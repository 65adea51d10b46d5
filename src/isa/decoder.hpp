// Binary decoder: 32-bit (and 16-bit compressed) words -> Instr records.
#pragma once

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace xpulp::isa {

/// Decode one instruction word fetched at `pc`. For compressed instructions
/// only the low 16 bits of `raw` are consumed and the result has size == 2.
/// Throws IllegalInstruction for unknown encodings.
///
/// A valid decode depends only on the word (`pc` only names an illegal
/// one), so decodes are memoized per thread in a fixed direct-mapped
/// table of kDecodeMemoSlots slots keyed by the word: each distinct word
/// is decoded once, however many pcs hold it. A word that throws is never
/// memoized.
Instr decode(u32 raw, addr_t pc);

/// decode() without the memo: always walks the decode index.
Instr decode_uncached(u32 raw, addr_t pc);

inline constexpr unsigned kDecodeMemoBits = 12;
inline constexpr unsigned kDecodeMemoSlots = 1u << kDecodeMemoBits;

/// Per-thread decode counts since the thread started: decode() calls and
/// words decoded through the index (memo misses plus decode_uncached).
struct DecodeStats {
  u64 calls = 0;
  u64 fresh = 0;
};
DecodeStats decode_stats();

/// True if the low 16 bits of `raw` form a compressed (16-bit) instruction.
constexpr bool is_compressed(u32 raw) { return (raw & 0x3u) != 0x3u; }

/// Decode a 16-bit compressed instruction into its 32-bit equivalent Instr
/// (size == 2). Supports the RVC subset listed in DESIGN.md.
Instr decode_compressed(u16 raw, addr_t pc);

}  // namespace xpulp::isa
