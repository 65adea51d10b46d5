#include "isa/decoder.hpp"

#include <array>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "isa/isa_table.hpp"

namespace xpulp::isa {

namespace {

[[noreturn]] void illegal(addr_t pc, u32 raw) {
  throw IllegalInstruction(pc, raw);
}

// Decode index over isa_table(), built once. A word's opcode and funct3
// pick a slot; where the slot's entries differ in further bits, the slot
// names one more field (funct7, or rs2 for ecall/ebreak) whose value picks
// the leaf. Every lookup is two array reads, then the leaf entry's decode
// mask confirms the match.
struct DecodeIndex {
  struct Slot {
    u16 base = 0;  // first leaf of the slot
    u8 shift = 0;  // sub-index field: (raw >> shift) & mask
    u8 mask = 0;
  };
  const IsaTableEntry* table = nullptr;
  std::array<Slot, 1024> slots{};  // by (funct3 << 7) | opcode
  std::vector<u16> leaves{0};      // table index + 1; 0 = illegal

  static size_t slot_of(u32 raw) {
    return (raw & 0x7fu) | ((raw >> 5) & 0x380u);
  }
};

DecodeIndex build_index() {
  const std::vector<IsaTableEntry>& table = isa_table();
  DecodeIndex ix;
  ix.table = table.data();
  // Entry i is compatible with `word` on the bits of `field`.
  const auto fits = [&](size_t i, u32 word, u32 field) {
    return ((word ^ table[i].match) & table[i].decode_mask & field) == 0;
  };
  constexpr u32 kFunct3 = 7u << 12;
  constexpr std::array<std::pair<u8, u8>, 2> kSubFields = {
      std::pair<u8, u8>{25, 7}, {20, 5}};  // (shift, width)
  // Every entry fixes its opcode.
  std::array<std::vector<u16>, 128> by_opcode;
  for (size_t i = 0; i < table.size(); ++i) {
    by_opcode[table[i].match & 0x7fu].push_back(static_cast<u16>(i));
  }
  for (u32 key = 0; key < ix.slots.size(); ++key) {
    const u32 word = (key & 0x7fu) | ((key >> 7) << 12);
    std::vector<u16> cands;
    for (const u16 i : by_opcode[key & 0x7fu]) {
      if (fits(i, word, kFunct3)) cands.push_back(i);
    }
    if (cands.empty()) continue;  // slot 0 -> leaf 0: illegal
    DecodeIndex::Slot& slot = ix.slots[key];
    slot.base = static_cast<u16>(ix.leaves.size());
    if (cands.size() == 1) {
      ix.leaves.push_back(static_cast<u16>(cands[0] + 1));
      continue;
    }
    bool placed = false;
    for (const auto& [shift, width] : kSubFields) {
      const u32 n = 1u << width;
      std::vector<u16> leaves(n, 0);
      bool unique = true;
      for (u32 v = 0; v < n && unique; ++v) {
        for (const u16 c : cands) {
          if (!fits(c, v << shift, (n - 1) << shift)) continue;
          if (leaves[v] != 0) {
            unique = false;
            break;
          }
          leaves[v] = static_cast<u16>(c + 1);
        }
      }
      if (!unique) continue;
      slot.shift = shift;
      slot.mask = static_cast<u8>(n - 1);
      ix.leaves.insert(ix.leaves.end(), leaves.begin(), leaves.end());
      placed = true;
      break;
    }
    if (!placed) {
      throw std::logic_error("isa_table: no decode field separates a slot");
    }
  }
  return ix;
}

i32 imm_s(u32 raw) {
  return sign_extend((bits(raw, 31, 25) << 5) | bits(raw, 11, 7), 12);
}

i32 imm_b(u32 raw) {
  return sign_extend((bit(raw, 31) << 12) | (bit(raw, 7) << 11) |
                         (bits(raw, 30, 25) << 5) | (bits(raw, 11, 8) << 1),
                     13);
}

i32 imm_j(u32 raw) {
  return sign_extend((bit(raw, 31) << 20) | (bits(raw, 19, 12) << 12) |
                         (bit(raw, 20) << 11) | (bits(raw, 30, 21) << 1),
                     21);
}

// The operands of `raw` read back per its entry's shape (the inverse of
// encode's pack), rejecting words that break a shape constraint.
Instr unpack(const IsaTableEntry& e, u32 raw, addr_t pc) {
  using S = EncShape;
  const u8 rd = static_cast<u8>(bits(raw, 11, 7));
  const u8 rs1 = static_cast<u8>(bits(raw, 19, 15));
  const u8 rs2 = static_cast<u8>(bits(raw, 24, 20));
  const i32 imm_i = sign_extend(bits(raw, 31, 20), 12);
  const auto uimm12 = static_cast<i32>(bits(raw, 31, 20));
  Instr in;
  in.op = e.op;
  in.fmt = e.fmt;
  in.raw = raw;
  in.rd = rd;
  in.rs1 = rs1;
  in.rs2 = rs2;
  switch (e.shape) {
    case S::kR:
    case S::kRUnary:
    case S::kRLoad:
    case S::kRStore:
    case S::kSimdQnt:
    case S::kFixedWord:
      break;
    case S::kU:
      in.imm = static_cast<i32>(raw & 0xfffff000u);
      break;
    case S::kJ:
      in.imm = imm_j(raw);
      break;
    case S::kI:
    case S::kIAddr:
      in.imm = imm_i;
      break;
    case S::kShift:
      in.imm = rs2;
      break;
    case S::kB:
      in.rd = 0;
      in.imm = imm_b(raw);
      break;
    case S::kBImm5:
      in.rd = 0;
      in.imm = imm_b(raw);
      in.imm2 = rs2;  // raw imm5 bits
      in.rs2 = 0;
      break;
    case S::kS:
      in.rd = 0;
      in.imm = imm_s(raw);
      break;
    case S::kClipImm:
      in.imm = rs2;
      in.rs2 = 0;
      break;
    case S::kCsr:
      in.imm = uimm12;
      break;
    case S::kCsrImm:
      in.imm = uimm12;
      in.imm2 = rs1;
      in.rs1 = 0;
      break;
    case S::kBitmanip: {
      const u8 is3 = static_cast<u8>(bits(raw, 29, 25));
      // The field [Is2 + Is3 : Is2] must fit in 32 bits.
      if (rs2 + is3 + 1 > 32) illegal(pc, raw);
      in.imm = rs2;
      in.imm2 = is3;
      in.rs2 = 0;
      break;
    }
    case S::kSimdLane:
      if (rs2 >= simd_elem_count(e.fmt)) illegal(pc, raw);
      in.imm = rs2;
      in.rs2 = 0;
      break;
    // Hardware loops keep the loop index L = rd[0] and their own fields.
    case S::kHwBound:
    case S::kHwCounti:
      in.rs1 = 0;
      [[fallthrough]];
    case S::kHwCount:
    case S::kHwSetup:
    case S::kHwSetupi:
      in.imm2 = static_cast<u8>(rd & 1u);
      in.rd = 0;
      in.rs2 = 0;
      in.imm = e.shape == S::kHwCount    ? 0
               : e.shape == S::kHwCounti ? uimm12
                                         : imm_i * 2;
      break;
  }
  return in;
}

thread_local DecodeStats t_stats;

/// One slot of the decode memo: a word and its finalized decode, kept as
/// bytes so the table is zero-initialized thread-local storage (no
/// constructor, no heap). A zeroed slot holds op kInvalid, never a hit.
struct MemoSlot {
  u32 word;
  unsigned char in[sizeof(Instr)];
};
static_assert(sizeof(MemoSlot) * kDecodeMemoSlots <= 128 * 1024);
static_assert(std::is_trivially_copyable_v<Instr>);
thread_local MemoSlot t_memo[kDecodeMemoSlots];

}  // namespace

Instr decode(u32 raw, addr_t pc) {
  // Direct-mapped on the word. A slot is a hit only when it holds a valid
  // decode of this very word; words that throw never enter it, so an
  // illegal word throws on every decode, with its own pc.
  t_stats.calls += 1;
  MemoSlot& s = t_memo[(raw * 0x9E3779B1u) >> (32 - kDecodeMemoBits)];
  Instr in;
  if (s.word == raw) {
    std::memcpy(&in, s.in, sizeof in);
    if (in.valid()) return in;
  }
  in = decode_uncached(raw, pc);
  std::memcpy(s.in, &in, sizeof in);
  s.word = raw;
  return in;
}

DecodeStats decode_stats() { return t_stats; }

Instr decode_uncached(u32 raw, addr_t pc) {
  t_stats.fresh += 1;
  if (is_compressed(raw)) return decode_compressed(static_cast<u16>(raw), pc);
  static const DecodeIndex ix = build_index();
  const DecodeIndex::Slot s = ix.slots[DecodeIndex::slot_of(raw)];
  const u16 leaf = ix.leaves[s.base + ((raw >> s.shift) & s.mask)];
  if (leaf == 0) illegal(pc, raw);
  const IsaTableEntry& e = ix.table[leaf - 1];
  if ((raw & e.decode_mask) != (e.match & e.decode_mask)) illegal(pc, raw);
  Instr in = unpack(e, raw, pc);
  finalize_decode(in);
  return in;
}

}  // namespace xpulp::isa
