#include "isa/encoding.hpp"

#include <string>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "isa/isa_table.hpp"

namespace xpulp::isa {

namespace {

// The checks inline to a compare; the message is built out of line.
[[noreturn, gnu::cold, gnu::noinline]] void reject(const char* what,
                                                   const char* problem, i64 v) {
  throw AsmError(std::string(what) + problem + std::to_string(v));
}

[[noreturn, gnu::cold, gnu::noinline]] void no_encoding(const Instr& in) {
  throw AsmError("no encoding for '" + std::string(mnemonic_name(in.op)) +
                 std::string(simd_fmt_suffix(in.fmt)) + "'");
}

void check_range_signed(i64 v, unsigned bits, const char* what) {
  const i64 hi = (i64{1} << (bits - 1)) - 1;
  const i64 lo = -(i64{1} << (bits - 1));
  if (v < lo || v > hi) reject(what, " immediate out of range: ", v);
}

void check_range_unsigned(i64 v, unsigned bits, const char* what) {
  const i64 hi = (i64{1} << bits) - 1;
  if (v < 0 || v > hi) reject(what, " immediate out of range: ", v);
}

void check_reg(u32 r, const char* what) {
  if (r > 31) reject(what, " register out of range: ", r);
}

// Branch/jump byte offsets must be even (we do not generate 16-bit-aligned
// targets from compressed code in the assembler).
void check_even(i64 v, const char* what) {
  if (v & 1) reject(what, " offset must be even: ", v);
}

// Re-interpret an unsigned 12-bit field (CSR address, lp.counti count) as
// the sign-extended value enc_i expects, so the raw bit pattern survives.
i32 as_i12(i64 v, const char* what) {
  check_range_unsigned(v, 12, what);
  return sign_extend(static_cast<u32>(v), 12);
}

}  // namespace

u32 simd_fmt_to_funct3(SimdFmt f) {
  switch (f) {
    case SimdFmt::kB: return 0;
    case SimdFmt::kBSc: return 1;
    case SimdFmt::kH: return 2;
    case SimdFmt::kHSc: return 3;
    case SimdFmt::kN: return 4;
    case SimdFmt::kNSc: return 5;
    case SimdFmt::kC: return 6;
    case SimdFmt::kCSc: return 7;
    default: throw AsmError("SIMD instruction without a format");
  }
}

SimdFmt simd_fmt_from_funct3(u32 funct3) {
  switch (funct3 & 7u) {
    case 0: return SimdFmt::kB;
    case 1: return SimdFmt::kBSc;
    case 2: return SimdFmt::kH;
    case 3: return SimdFmt::kHSc;
    case 4: return SimdFmt::kN;
    case 5: return SimdFmt::kNSc;
    case 6: return SimdFmt::kC;
    default: return SimdFmt::kCSc;
  }
}

u32 enc_r(u32 opcode, u32 funct3, u32 funct7, u32 rd, u32 rs1, u32 rs2) {
  check_reg(rd, "rd");
  check_reg(rs1, "rs1");
  check_reg(rs2, "rs2");
  return (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) |
         (rd << 7) | opcode;
}

u32 enc_i(u32 opcode, u32 funct3, u32 rd, u32 rs1, i32 imm12) {
  check_reg(rd, "rd");
  check_reg(rs1, "rs1");
  check_range_signed(imm12, 12, "I-type");
  return (static_cast<u32>(imm12 & 0xfff) << 20) | (rs1 << 15) |
         (funct3 << 12) | (rd << 7) | opcode;
}

u32 enc_s(u32 opcode, u32 funct3, u32 rs1, u32 rs2, i32 imm12) {
  check_reg(rs1, "rs1");
  check_reg(rs2, "rs2");
  check_range_signed(imm12, 12, "S-type");
  const u32 imm = static_cast<u32>(imm12 & 0xfff);
  return (bits(imm, 11, 5) << 25) | (rs2 << 20) | (rs1 << 15) |
         (funct3 << 12) | (bits(imm, 4, 0) << 7) | opcode;
}

u32 enc_b(u32 opcode, u32 funct3, u32 rs1, u32 rs2, i32 imm13) {
  check_reg(rs1, "rs1");
  check_reg(rs2, "rs2");
  check_even(imm13, "branch");
  check_range_signed(imm13, 13, "B-type");
  const u32 imm = static_cast<u32>(imm13 & 0x1fff);
  return (bit(imm, 12) << 31) | (bits(imm, 10, 5) << 25) | (rs2 << 20) |
         (rs1 << 15) | (funct3 << 12) | (bits(imm, 4, 1) << 8) |
         (bit(imm, 11) << 7) | opcode;
}

u32 enc_u(u32 opcode, u32 rd, i32 imm20_upper) {
  check_reg(rd, "rd");
  return (static_cast<u32>(imm20_upper & 0xfffff) << 12) | (rd << 7) | opcode;
}

u32 enc_j(u32 opcode, u32 rd, i32 imm21) {
  check_reg(rd, "rd");
  check_even(imm21, "jump");
  check_range_signed(imm21, 21, "J-type");
  const u32 imm = static_cast<u32>(imm21 & 0x1fffff);
  return (bit(imm, 20) << 31) | (bits(imm, 10, 1) << 21) |
         (bit(imm, 11) << 20) | (bits(imm, 19, 12) << 12) | (rd << 7) | opcode;
}

namespace {

u32 loop_index(u32 l) {
  check_range_unsigned(l, 1, "hw-loop index");
  return l;
}

i32 hwloop_offset_field(i32 byte_offset) {
  check_even(byte_offset, "hw-loop");
  return byte_offset >> 1;
}

// An instruction's operands packed into the free bits of its entry's word,
// each field range-checked; the entry's match supplies the fixed bits.
u32 pack(const IsaTableEntry& e, const Instr& in) {
  using S = EncShape;
  switch (e.shape) {
    case S::kU:
      return e.match |
             enc_u(0, in.rd, static_cast<i32>(static_cast<u32>(in.imm) >> 12));
    case S::kJ:
      return e.match | enc_j(0, in.rd, in.imm);
    case S::kI:
    case S::kIAddr:
      return e.match | enc_i(0, 0, in.rd, in.rs1, in.imm);
    case S::kShift:
    case S::kClipImm:
      check_range_unsigned(in.imm, 5, "shift/clip");
      return e.match |
             enc_r(0, 0, 0, in.rd, in.rs1, static_cast<u32>(in.imm));
    case S::kB:
      return e.match | enc_b(0, 0, in.rs1, in.rs2, in.imm);
    case S::kBImm5:
      check_range_unsigned(in.imm2, 5, "branch compare");
      return e.match | enc_b(0, 0, in.rs1, in.imm2, in.imm);
    case S::kS:
      return e.match | enc_s(0, 0, in.rs1, in.rs2, in.imm);
    case S::kR:
    case S::kRLoad:
    case S::kRStore:
    case S::kSimdQnt:
      return e.match | enc_r(0, 0, 0, in.rd, in.rs1, in.rs2);
    case S::kRUnary:
      return e.match | enc_r(0, 0, 0, in.rd, in.rs1, 0);
    case S::kCsr:
      return e.match | enc_i(0, 0, in.rd, in.rs1, as_i12(in.imm, "csr"));
    case S::kCsrImm:
      return e.match | enc_i(0, 0, in.rd, in.imm2, as_i12(in.imm, "csr"));
    case S::kFixedWord:
      return e.match;
    case S::kBitmanip:
      check_range_unsigned(in.imm2, 5, "Is3");
      check_range_unsigned(static_cast<u32>(in.imm), 5, "Is2");
      return e.match |
             enc_r(0, 0, in.imm2, in.rd, in.rs1, static_cast<u32>(in.imm));
    case S::kHwBound:
      return e.match | enc_i(0, 0, loop_index(in.imm2), 0,
                             hwloop_offset_field(in.imm));
    case S::kHwCount:
      return e.match | enc_i(0, 0, loop_index(in.imm2), in.rs1, 0);
    case S::kHwCounti:
      return e.match | enc_i(0, 0, loop_index(in.imm2), 0,
                             as_i12(in.imm, "lp.counti"));
    case S::kHwSetup:
    case S::kHwSetupi:
      return e.match | enc_i(0, 0, loop_index(in.imm2), in.rs1,
                             hwloop_offset_field(in.imm));
    case S::kSimdLane:
      check_range_unsigned(in.imm, 5, "lane");
      if (static_cast<u32>(in.imm) >= simd_elem_count(e.fmt)) {
        throw AsmError("lane index out of range");
      }
      return e.match |
             enc_r(0, 0, 0, in.rd, in.rs1, static_cast<u32>(in.imm));
  }
  throw AsmError("unknown encoding shape");
}

}  // namespace

u32 encode(const Instr& in) {
  const IsaTableEntry* e = isa_table_lookup(in.op, in.fmt);
  if (e == nullptr) no_encoding(in);
  return pack(*e, in);
}

}  // namespace xpulp::isa
