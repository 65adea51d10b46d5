#include "sim/quant_unit.hpp"

#include <cassert>

#include "common/bitops.hpp"

namespace xpulp::sim {

namespace {

/// Eytzinger walk: node k has children 2k+1 / 2k+2; going right means
/// "x is >= threshold", contributing a 1 bit (Fig. 2 of the paper). Records
/// the address each level reads in `nodes` and returns the code. After Q
/// levels the node index is 2^Q - 1 + code, so the code falls out of the
/// final index. A path leaving memory traps in load_u16.
u32 walk_tree(const mem::Memory& mem, addr_t tree, i16 x, unsigned q_bits,
              addr_t* nodes) {
  u32 idx = 0;
  for (unsigned level = 0; level < q_bits; ++level) {
    nodes[level] = tree + idx * 2;
    const i16 t = static_cast<i16>(mem.load_u16(nodes[level]));
    idx = 2 * idx + 1 + (x >= t ? 1u : 0u);
  }
  return idx - ((1u << q_bits) - 1);
}

}  // namespace

u32 QuantUnit::quantize_one(const mem::Memory& mem, addr_t tree, i16 x,
                            unsigned q_bits) {
  assert(q_bits == 4 || q_bits == 2);
  addr_t nodes[4];
  return walk_tree(mem, tree, x, q_bits, nodes);
}

QuantResult QuantUnit::execute(mem::Memory& mem, u32 rs1, addr_t rs2,
                               unsigned q_bits) {
  assert(q_bits == 4 || q_bits == 2);
  const i16 act0 = static_cast<i16>(rs1 & 0xffffu);
  const i16 act1 = static_cast<i16>(rs1 >> 16);

  // Functional result: walk each tree once, recording the nodes read. Both
  // walks finish before anything is charged, so a tree leaving memory
  // traps with MemStats and the stall count untouched.
  addr_t nodes0[4], nodes1[4];
  const u32 q0 = walk_tree(mem, rs2, act0, q_bits, nodes0);
  const u32 q1 =
      walk_tree(mem, rs2 + tree_stride_bytes(q_bits), act1, q_bits, nodes1);

  QuantResult res{};
  res.rd = (q1 << 16) | q0;
  // Timing: init cycle to fetch the first threshold, then the two
  // activations' compare/address-update phases interleave through the
  // pipelined unit — 2 cycles per level (paper: 9 cycles nibble, 5 crumb).
  res.cycles = 1 + 2 * q_bits;
  res.mem_loads = 2 * q_bits;

  // Account the threshold fetches on the memory port in the unit's
  // interleaved tree0/tree1 order; misaligned trees add stall cycles
  // exactly like LSU accesses. Those are memory stalls, kept separate from
  // the unit's fixed latency so the core can attribute each to its own
  // stall cause.
  for (unsigned level = 0; level < q_bits; ++level) {
    res.mem_stalls += mem.access_cycles(nodes0[level], 2, /*is_store=*/false);
    res.mem_stalls += mem.access_cycles(nodes1[level], 2, /*is_store=*/false);
  }
  return res;
}

}  // namespace xpulp::sim
