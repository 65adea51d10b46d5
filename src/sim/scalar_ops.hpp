// Scalar operation semantics shared by the interpreters (Core::alu_body,
// Core::exec_pulp_scalar) and the superblock fused loop, which resolves
// the operation when it compiles a plan and calls the same helper with
// its operands (DESIGN.md §12). Bit-field ops need no helper of their
// own: both sides call sign_extend / zero_extend / insert_bits.
#pragma once

#include "common/bitops.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace xpulp::sim {

/// The RV32I ALU operations; the immediate and register forms of a
/// mnemonic share one.
enum class AluFn : u8 { kAdd, kSub, kSlt, kSltu, kXor, kOr, kAnd, kSll, kSrl, kSra };

template <AluFn F>
constexpr u32 alu(u32 a, u32 b) {
  if constexpr (F == AluFn::kAdd) return a + b;
  if constexpr (F == AluFn::kSub) return a - b;
  if constexpr (F == AluFn::kSlt) {
    return static_cast<i32>(a) < static_cast<i32>(b) ? 1 : 0;
  }
  if constexpr (F == AluFn::kSltu) return a < b ? 1 : 0;
  if constexpr (F == AluFn::kXor) return a ^ b;
  if constexpr (F == AluFn::kOr) return a | b;
  if constexpr (F == AluFn::kAnd) return a & b;
  if constexpr (F == AluFn::kSll) return a << (b & 31);
  if constexpr (F == AluFn::kSrl) return a >> (b & 31);
  if constexpr (F == AluFn::kSra) {
    return static_cast<u32>(static_cast<i32>(a) >> (b & 31));
  }
}

/// The two-operand XpulpV2 scalar ops without an immediate field: p.abs,
/// p.min(u), p.max(u), p.cnt, p.ff1, p.fl1, p.clb and p.ror. Any other
/// mnemonic yields 0 (callers only pass these).
constexpr u32 pulp_alu(isa::Mnemonic op, u32 a, u32 b) {
  using M = isa::Mnemonic;
  const i32 sa = static_cast<i32>(a);
  const i32 sb = static_cast<i32>(b);
  switch (op) {
    case M::kPAbs: return static_cast<u32>(sa < 0 ? -sa : sa);
    case M::kPMin: return static_cast<u32>(sa < sb ? sa : sb);
    case M::kPMinu: return a < b ? a : b;
    case M::kPMax: return static_cast<u32>(sa > sb ? sa : sb);
    case M::kPMaxu: return a > b ? a : b;
    case M::kPCnt: return popcount32(a);
    case M::kPFf1: return find_first_one(a);
    case M::kPFl1: return find_last_one(a);
    case M::kPClb: return count_leading_redundant_sign(a);
    case M::kPRor: return rotr32(a, b);
    default: return 0;
  }
}

/// p.clip / p.clipu bound: an immediate of 0 acts as 1.
constexpr unsigned clip_width(i32 imm) {
  return imm == 0 ? 1u : static_cast<unsigned>(imm);
}

}  // namespace xpulp::sim
