#include "sim/quant_unit.hpp"

#include <cassert>

namespace xpulp::sim {

namespace {

/// pv.qnt with the threshold fetches accounted through `account(addr)`,
/// which returns the fetch's stall cycles. Both walks finish before
/// anything is charged, so a tree leaving memory traps (in load_u16) with
/// MemStats and the stall count untouched.
template <typename Account>
QuantResult qnt_execute(const mem::Memory& mem, u32 rs1, addr_t rs2,
                        unsigned q_bits, Account&& account) {
  assert(q_bits == 4 || q_bits == 2);
  addr_t nodes[2][4];
  QuantResult res{};
  res.rd = QuantUnit::quantize_pair(
      [&mem](addr_t a) { return mem.load_u16(a); }, rs1, rs2, q_bits, nodes);
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
    res.mem_stalls += account(nodes[0][level]);
    res.mem_stalls += account(nodes[1][level]);
  }
  return res;
}

}  // namespace

u32 QuantUnit::quantize_one(const mem::Memory& mem, addr_t tree, i16 x,
                            unsigned q_bits) {
  assert(q_bits == 4 || q_bits == 2);
  addr_t nodes[2][4];
  u32 code[2];
  qnt_walk2([&mem](addr_t a) { return mem.load_u16(a); }, {tree, tree},
            {x, x}, q_bits, code, nodes);
  return code[0];
}

QuantResult QuantUnit::execute(mem::Memory& mem, u32 rs1, addr_t rs2,
                               unsigned q_bits) {
  return qnt_execute(mem, rs1, rs2, q_bits, [&mem](addr_t a) {
    return mem.access_cycles(a, 2, /*is_store=*/false);
  });
}

QuantResult QuantUnit::execute_stalls(mem::Memory& mem, u32 rs1, addr_t rs2,
                                      unsigned q_bits) {
  return qnt_execute(mem, rs1, rs2, q_bits, [&mem](addr_t a) {
    return mem.access_stalls(a, 2, /*is_store=*/false);
  });
}

}  // namespace xpulp::sim
