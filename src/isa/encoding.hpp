// Binary encoding of the instruction set.
//
// Standard RV32I/M instructions use their official encodings. The PULP
// extensions occupy the RISC-V custom opcode space with a layout of our own
// design (the paper does not publish bit-level encodings; semantics follow
// Table II of the paper and the RI5CY manual). The layout is:
//
//   0x0B custom-0  I-type   post-increment immediate loads (funct3 = size)
//   0x2B custom-1  S-type   post-increment immediate stores (funct3 = size)
//   0x5B custom-2  R-type   "PULP scalar" space, funct3 = subclass:
//        000 reg-post-increment load   (funct7 = size code)
//        001 reg-reg (indexed) load    (funct7 = size code)
//        010 reg-post-increment store  (funct7 = size code, inc reg in rd)
//        011 reg-reg (indexed) store   (funct7 = size code, idx reg in rd)
//        100 scalar ALU / MAC          (funct7 = op)
//        110 bit-manipulation group A  (funct7[6:5] = op, funct7[4:0] = Is3)
//        111 bit-manipulation group B  (funct7[6:5] = op, funct7[4:0] = Is3)
//   0x7B custom-3  hardware loops, funct3 = which (loop index L in rd bit 0)
//   0x57           packed SIMD: funct3 = format (b/b.sc/h/h.sc/n/n.sc/c/c.sc),
//                  funct7 = operation (see SimdFunct7)
//
// The bit layout of every instruction lives in one place, the table in
// isa_table.hpp; encoder, decoder, disassembler and text assembler all work
// from its entries.
#pragma once

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace xpulp::isa {

// Major opcodes.
inline constexpr u32 kOpLui = 0x37;
inline constexpr u32 kOpAuipc = 0x17;
inline constexpr u32 kOpJal = 0x6F;
inline constexpr u32 kOpJalr = 0x67;
inline constexpr u32 kOpBranch = 0x63;
inline constexpr u32 kOpLoad = 0x03;
inline constexpr u32 kOpStore = 0x23;
inline constexpr u32 kOpOpImm = 0x13;
inline constexpr u32 kOpOp = 0x33;
inline constexpr u32 kOpMiscMem = 0x0F;
inline constexpr u32 kOpSystem = 0x73;
inline constexpr u32 kOpPulpLoadPost = 0x0B;   // custom-0
inline constexpr u32 kOpPulpStorePost = 0x2B;  // custom-1
inline constexpr u32 kOpPulpScalar = 0x5B;     // custom-2
inline constexpr u32 kOpPulpHwloop = 0x7B;     // custom-3
inline constexpr u32 kOpPulpSimd = 0x57;

// funct3 subclasses within kOpPulpScalar.
inline constexpr u32 kScalarLoadPostReg = 0b000;
inline constexpr u32 kScalarLoadRegReg = 0b001;
inline constexpr u32 kScalarStorePostReg = 0b010;
inline constexpr u32 kScalarStoreRegReg = 0b011;
inline constexpr u32 kScalarAlu = 0b100;
inline constexpr u32 kScalarBitmanipA = 0b110;
inline constexpr u32 kScalarBitmanipB = 0b111;

// Size codes for the reg-addressed load/store subclasses (funct7 value).
enum class MemSizeCode : u32 { kLb = 0, kLh = 1, kLw = 2, kLbu = 3, kLhu = 4 };

// funct7 values for the scalar-ALU subclass.
enum class ScalarAluFunct7 : u32 {
  kAbs = 0, kMin = 1, kMinu = 2, kMax = 3, kMaxu = 4,
  kExths = 5, kExthz = 6, kExtbs = 7, kExtbz = 8,
  kCnt = 9, kFf1 = 10, kFl1 = 11, kClb = 12, kRor = 13,
  kClip = 14, kClipu = 15, kMac = 16, kMsu = 17,
};

// funct7[6:5] values for the two bit-manipulation subclasses.
// Group A (funct3=110): 0 extract, 1 extractu, 2 insert, 3 bclr.
// Group B (funct3=111): 0 bset.
enum class BitmanipA : u32 { kExtract = 0, kExtractu = 1, kInsert = 2, kBclr = 3 };
enum class BitmanipB : u32 { kBset = 0 };

// funct3 values for hardware loop ops.
enum class HwloopFunct3 : u32 {
  kStarti = 0, kEndi = 1, kCount = 2, kCounti = 3, kSetup = 4, kSetupi = 5,
};

// funct7 values for SIMD ops under kOpPulpSimd.
enum class SimdFunct7 : u32 {
  kAdd = 0, kSub = 1, kAvg = 2, kAvgu = 3,
  kMax = 4, kMaxu = 5, kMin = 6, kMinu = 7,
  kSrl = 8, kSra = 9, kSll = 10, kAbs = 11,
  kAnd = 12, kOr = 13, kXor = 14,
  kDotup = 16, kDotusp = 17, kDotsp = 18,
  kSdotup = 19, kSdotusp = 20, kSdotsp = 21,
  // Element manipulation (b/h only; lane immediate in the rs2 field).
  kElemExtract = 22, kElemExtractu = 23, kElemInsert = 24,
  kShuffle = 25, kPack = 26,
  // Mixed-precision virtual dot products: operand widths come from the
  // mpc CSR, so funct3 carries no format and must be 0.
  kMldotup = 27, kMldotusp = 28, kMldotsp = 29,
  kQnt = 32,
  kMlsdotup = 33, kMlsdotusp = 34, kMlsdotsp = 35,
};

// funct3 encoding of SIMD formats.
u32 simd_fmt_to_funct3(SimdFmt f);
SimdFmt simd_fmt_from_funct3(u32 funct3);

// ---- Format packers (exposed for tests) ----
u32 enc_r(u32 opcode, u32 funct3, u32 funct7, u32 rd, u32 rs1, u32 rs2);
u32 enc_i(u32 opcode, u32 funct3, u32 rd, u32 rs1, i32 imm12);
u32 enc_s(u32 opcode, u32 funct3, u32 rs1, u32 rs2, i32 imm12);
u32 enc_b(u32 opcode, u32 funct3, u32 rs1, u32 rs2, i32 imm13);
u32 enc_u(u32 opcode, u32 rd, i32 imm20_upper);  // imm = value for bits 31:12
u32 enc_j(u32 opcode, u32 rd, i32 imm21);

// ---- Whole-instruction encoder ----
// Encodes a decoded Instr back into its 32-bit word: the operands packed per
// the shape of the instruction's isa_table entry. Branch/jump immediates
// are the *byte offsets* held in Instr::imm. Throws AsmError on out-of-range
// fields and on (mnemonic, format) pairs the table does not hold.
u32 encode(const Instr& in);

}  // namespace xpulp::isa
