// Hardware quantization unit (paper §III-B2, Fig. 4).
//
// `pv.qnt.{n,c} rD, rs1, (rs2)` quantizes the two 16-bit pre-activations
// packed in rs1 through a thresholding-based staircase function. Thresholds
// are pre-trained, stored in memory as a breadth-first (Eytzinger) balanced
// binary tree of 2^Q - 1 int16 values padded to 2^Q slots; the tree for the
// second activation sits at a hard-wired fixed offset (one tree stride) past
// rs2. The unit walks Q levels, one 16-bit comparison per level, pipelining
// the compare and address-update phases of the two activations in an
// interleaved fashion. Latency: 1 init cycle + 2*Q compare cycles = 9 cycles
// for nibble, 5 for crumb, matching the paper; the core pipeline stalls for
// the duration. The only extra memory stalls come from misaligned trees.
#pragma once

#include "common/types.hpp"
#include "mem/memory.hpp"

namespace xpulp::sim {

struct QuantResult {
  u32 rd;            // quantized codes: bits [Q-1:0] and [16+Q-1:16]
  /// Architectural unit latency: 1 init + 2*Q compare cycles (9 for
  /// nibble, 5 for crumb — the paper's figures). Excludes memory stalls.
  unsigned cycles;
  /// Extra stall cycles from the threshold fetches (misaligned trees,
  /// injected contention). The core charges these to mem_stall_cycles, not
  /// qnt_stall_cycles, so the per-cause stall partition matches the
  /// paper's fixed 9/5-cycle unit latency.
  unsigned mem_stalls;
  unsigned mem_loads;
};

/// Eytzinger walk of the two trees of a pv.qnt, the one definition every
/// path runs: node k has children 2k+1 / 2k+2; going right means "x is >=
/// threshold", contributing a 1 bit (Fig. 2 of the paper). `load(addr)`
/// returns the int16 threshold at addr; the address each level of tree t
/// reads lands in nodes[t][level]. After Q levels a node index is
/// 2^Q - 1 + code, so the code falls out of the final index. The two walks
/// are independent; stepping them level by level together lets the host
/// overlap their load chains.
template <typename Load>
void qnt_walk2(Load&& load, const addr_t (&tree)[2], const i16 (&x)[2],
               unsigned q_bits, u32 (&code)[2], addr_t (&nodes)[2][4]) {
  u32 idx[2] = {0, 0};
  for (unsigned level = 0; level < q_bits; ++level) {
    for (unsigned t = 0; t < 2; ++t) {
      nodes[t][level] = tree[t] + idx[t] * 2;
      const i16 th = static_cast<i16>(load(nodes[t][level]));
      idx[t] = 2 * idx[t] + 1 + (x[t] >= th ? 1u : 0u);
    }
  }
  for (unsigned t = 0; t < 2; ++t) code[t] = idx[t] - ((1u << q_bits) - 1);
}

class QuantUnit {
 public:
  /// Tree stride in bytes for a Q-bit output: 2^Q int16 slots.
  static constexpr u32 tree_stride_bytes(unsigned q_bits) {
    return (1u << q_bits) * 2;
  }

  /// One past the last byte the two walks of a pv.qnt with tree base
  /// `rs2` can read: the deepest node of act1's tree.
  static constexpr u64 trees_end(addr_t rs2, unsigned q_bits) {
    return u64{rs2} + 2 * tree_stride_bytes(q_bits) - 2;
  }

  /// The codes of both activations in rs1 (rd layout: bits [Q-1:0] and
  /// [16+Q-1:16]), walking act0's tree at rs2 and act1's one stride past
  /// it; nodes[t][level] is the address tree t reads at that level.
  template <typename Load>
  static u32 quantize_pair(Load&& load, u32 rs1, addr_t rs2, unsigned q_bits,
                           addr_t (&nodes)[2][4]) {
    const addr_t tree[2] = {rs2, rs2 + tree_stride_bytes(q_bits)};
    const i16 x[2] = {static_cast<i16>(rs1 & 0xffffu),
                      static_cast<i16>(rs1 >> 16)};
    u32 code[2];
    qnt_walk2(load, tree, x, q_bits, code, nodes);
    return (code[1] << 16) | code[0];
  }

  /// Execute pv.qnt for `q_bits` in {4, 2}. `rs1` holds act0 in [15:0] and
  /// act1 in [31:16] (each a signed 16-bit value); `rs2` is the address of
  /// act0's threshold tree.
  QuantResult execute(mem::Memory& mem, u32 rs1, addr_t rs2, unsigned q_bits);

  /// execute() for a caller that counts the 2Q threshold loads itself (the
  /// superblock fused loop batches them with its static accounting): the
  /// fetches go through Memory::access_stalls, so misalignment, contention
  /// and the access hook still see each one, in the same order.
  QuantResult execute_stalls(mem::Memory& mem, u32 rs1, addr_t rs2,
                             unsigned q_bits);

  /// Reference staircase used by tests and by the golden QNN layers:
  /// the quantized code is the number of sorted thresholds <= x.
  /// `tree` points to the Eytzinger-ordered threshold array.
  static u32 quantize_one(const mem::Memory& mem, addr_t tree, i16 x,
                          unsigned q_bits);
};

}  // namespace xpulp::sim
