// Instruction model: every mnemonic the simulator understands, plus the
// decoded-instruction record that the decoder produces and the core executes.
//
// The instruction set is RV32IM + a subset of the C extension, the XpulpV2
// DSP extensions used by PULP-NN kernels (hardware loops, post-increment
// load/store, scalar min/max/abs/clip, MAC, bit manipulation, 8/16-bit
// packed SIMD), and the XpulpNN extensions contributed by the paper
// (4-bit "nibble" / 2-bit "crumb" packed SIMD incl. dot products, and the
// multi-cycle pv.qnt quantization instruction).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace xpulp::isa {

enum class Mnemonic : u16 {
  kInvalid = 0,

  // ---- RV32I ----
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu,
  kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak,
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,

  // ---- RV32M ----
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,

  // ---- XpulpV2: post-increment / register-addressed memory ops ----
  kPLbPostImm, kPLhPostImm, kPLwPostImm, kPLbuPostImm, kPLhuPostImm,
  kPSbPostImm, kPShPostImm, kPSwPostImm,
  kPLbPostReg, kPLhPostReg, kPLwPostReg, kPLbuPostReg, kPLhuPostReg,
  kPLbRegReg, kPLhRegReg, kPLwRegReg, kPLbuRegReg, kPLhuRegReg,
  kPSbPostReg, kPShPostReg, kPSwPostReg,
  kPSbRegReg, kPShRegReg, kPSwRegReg,

  // ---- XpulpV2: scalar ALU extensions ----
  kPAbs, kPMin, kPMinu, kPMax, kPMaxu,
  kPExths, kPExthz, kPExtbs, kPExtbz,
  kPCnt, kPFf1, kPFl1, kPClb, kPRor,
  kPClip, kPClipu,           // immediate clip: [-2^(i-1), 2^(i-1)-1] / [0, 2^i - 1]
  kPMac, kPMsu,              // rd +/-= rs1 * rs2

  // ---- XpulpV2: bit manipulation (two 5-bit immediates Is3=width-1, Is2=pos)
  kPExtract, kPExtractu, kPInsert, kPBclr, kPBset,

  // ---- XpulpV2: immediate-compare branches (rs2 field = signed imm5) ----
  kPBeqimm, kPBneimm,

  // ---- XpulpV2: hardware loops ----
  kLpStarti, kLpEndi, kLpCount, kLpCounti, kLpSetup, kLpSetupi,

  // ---- Packed SIMD (XpulpV2 for b/h formats, XpulpNN for n/c formats) ----
  kPvAdd, kPvSub, kPvAvg, kPvAvgu,
  kPvMax, kPvMaxu, kPvMin, kPvMinu,
  kPvSrl, kPvSra, kPvSll, kPvAbs,
  kPvAnd, kPvOr, kPvXor,
  kPvDotup, kPvDotusp, kPvDotsp,
  kPvSdotup, kPvSdotusp, kPvSdotsp,
  // Mixed-precision "virtual" dot products (Ottavi et al.): the operand
  // formats are not encoded in the instruction — they come from the
  // precision-status CSR (mpc, 0x7C1) at execution time. rs1 holds
  // 32/WA activations of WA bits; rs2 packs the same number of WB-bit
  // weights in its low lanes. mldot* overwrite rd, mlsdot* accumulate.
  kPvMldotup, kPvMldotusp, kPvMldotsp,
  kPvMlsdotup, kPvMlsdotusp, kPvMlsdotsp,
  // Element manipulation (XpulpV2, b/h formats; lane index in the rs2
  // field for extract/insert).
  kPvElemExtract, kPvElemExtractu, kPvElemInsert,
  kPvShuffle,  // rd[i] = rs1[rs2[i] mod lanes]
  kPvPackH,    // rd = (rs1.h0 << 16) | rs2.h0   (h format only)
  kPvQnt,  // XpulpNN thresholding-based quantization (n/c only)

  kCount,
};

/// SIMD vector format: element width and whether the second operand is a
/// replicated scalar (`.sc` variant). The `sci` immediate variants of
/// XpulpV2 are intentionally not modelled (see DESIGN.md §3).
enum class SimdFmt : u8 {
  kNone = 0,
  kB,    // 4 x 8-bit
  kBSc,
  kH,    // 2 x 16-bit
  kHSc,
  kN,    // 8 x 4-bit  (nibble, XpulpNN)
  kNSc,
  kC,    // 16 x 2-bit (crumb, XpulpNN)
  kCSc,
};

/// Element width in bits for a SIMD format (0 for kNone).
constexpr unsigned simd_elem_bits(SimdFmt f) {
  switch (f) {
    case SimdFmt::kB: case SimdFmt::kBSc: return 8;
    case SimdFmt::kH: case SimdFmt::kHSc: return 16;
    case SimdFmt::kN: case SimdFmt::kNSc: return 4;
    case SimdFmt::kC: case SimdFmt::kCSc: return 2;
    default: return 0;
  }
}

/// Number of elements packed in a 32-bit register for a SIMD format.
constexpr unsigned simd_elem_count(SimdFmt f) {
  const unsigned b = simd_elem_bits(f);
  return b == 0 ? 0 : 32 / b;
}

/// True for the `.sc` (replicated scalar) variants.
constexpr bool simd_is_scalar_rep(SimdFmt f) {
  return f == SimdFmt::kBSc || f == SimdFmt::kHSc || f == SimdFmt::kNSc ||
         f == SimdFmt::kCSc;
}

/// True for the sub-byte formats introduced by XpulpNN.
constexpr bool simd_is_subbyte(SimdFmt f) {
  return simd_elem_bits(f) == 4 || simd_elem_bits(f) == 2;
}

/// Precision-status CSR for the mixed virtual dot products (Ottavi et
/// al.). WARL, two bits: 0 selects 8x4, 1 selects 8x2, 2 selects 4x2;
/// 3 is reserved and makes any mixed dot product trap as illegal.
inline constexpr u32 kMpcCsr = 0x7C1;
inline constexpr u32 kMpcSelCount = 3;

/// Activation (rs1) element width in bits for an mpc selector.
constexpr unsigned mixed_width_a(u32 sel) { return sel == 2 ? 4u : 8u; }
/// Weight (rs2) element width in bits for an mpc selector. The rs2 word
/// packs 32/width_a values of width_b bits in its low lanes.
constexpr unsigned mixed_width_b(u32 sel) { return sel == 0 ? 4u : 2u; }

/// Handler class an instruction dispatches to. Computed once at decode
/// time; the core indexes a static handler table with it instead of
/// switching over the ~130 mnemonics on every executed instruction.
enum class ExecClass : u8 {
  kIllegal = 0,
  kLui,
  kAuipc,
  kBranchJump,  // jal/jalr, conditional branches, p.beqimm/p.bneimm
  kAluImm,      // RV32I immediate ALU ops
  kAluReg,      // RV32I register ALU ops
  kMulDiv,
  kMem,         // every load/store addressing mode
  kFence,
  kEcall,
  kEbreak,
  kCsr,
  kHwloop,
  kPulpScalar,
  kSimdAlu,     // packed SIMD arithmetic/logic/shift
  kSimdDotp,    // pv.dot* / pv.sdot*
  kSimdElem,    // pv.extract/insert/shuffle/pack
  kSimdQnt,     // pv.qnt
  kCount,
};

/// True for the four packed-SIMD handler classes.
constexpr bool exec_class_is_simd(ExecClass c) {
  return c == ExecClass::kSimdAlu || c == ExecClass::kSimdDotp ||
         c == ExecClass::kSimdElem || c == ExecClass::kSimdQnt;
}

/// Packed operand-use / classification flags, filled at decode time from
/// the predicate functions below so the interpreter's per-step hot path
/// reads one bitmask instead of re-running mnemonic switches.
namespace iflag {
inline constexpr u16 kReadsRs1 = 1u << 0;
inline constexpr u16 kReadsRs2 = 1u << 1;
inline constexpr u16 kReadsRd = 1u << 2;   // rd used as a source operand
inline constexpr u16 kWritesRd = 1u << 3;
inline constexpr u16 kIsLoad = 1u << 4;
inline constexpr u16 kIsStore = 1u << 5;
inline constexpr u16 kLoadSigned = 1u << 6;
// ISA-feature requirements; the core pre-computes a mask of *missing*
// features from its config and a single AND replaces the require() chains.
inline constexpr u16 kNeedXpulpV2 = 1u << 7;
inline constexpr u16 kNeedXpulpNN = 1u << 8;
inline constexpr u16 kNeedHwloops = 1u << 9;
// Load/store addressing mode, resolved at decode time so the memory handler
// needs no mnemonic switch: post-increment addresses with the unmodified
// base and writes base+offset back to rs1; reg-offset takes the offset from
// a register (rs2 for loads, the rd field for stores) instead of `imm`.
inline constexpr u16 kMemPostInc = 1u << 10;
inline constexpr u16 kMemRegOff = 1u << 11;
// Dot-product family, resolved at decode time: sdot accumulates into rd,
// and each operand is independently signed (pv.dotusp is unsigned x signed).
inline constexpr u16 kDotAccum = 1u << 12;
inline constexpr u16 kDotSignedA = 1u << 13;
inline constexpr u16 kDotSignedB = 1u << 14;
// Mixed-precision virtual dot product: the operand widths come from the
// precision-status CSR (mpc) at execution time, not from `fmt` (kNone).
inline constexpr u16 kDotMixed = 1u << 15;
}  // namespace iflag

/// A decoded instruction. `imm` is the primary (sign-extended) immediate;
/// `imm2` carries secondary fields: Is3 for bit-manipulation ops, the loop
/// index L for hardware loops, and the CSR uimm for CSRR*I. `flags`,
/// `cls` and `mem_size` are derived fields filled by finalize_decode().
struct Instr {
  Mnemonic op = Mnemonic::kInvalid;
  SimdFmt fmt = SimdFmt::kNone;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  i32 imm = 0;
  u8 imm2 = 0;
  u32 raw = 0;
  u8 size = 4;  // bytes: 2 for compressed, 4 otherwise

  u16 flags = 0;                       // iflag:: bits
  ExecClass cls = ExecClass::kIllegal;
  u8 mem_size = 0;                     // bytes for loads/stores, else 0

  bool valid() const { return op != Mnemonic::kInvalid; }
  bool has(u16 f) const { return (flags & f) != 0; }
};

/// Fill the derived fields (`flags`, `cls`, `mem_size`) of a decoded
/// instruction from its mnemonic/format. Idempotent; decode() and
/// decode_compressed() call it on every instruction they produce. The
/// values are defined to agree exactly with the predicate functions below
/// (the differential dispatch test enforces this).
void finalize_decode(Instr& in);

/// Human-readable mnemonic (e.g. "pv.sdotsp"). The SIMD format suffix is
/// appended by the disassembler, not included here.
std::string_view mnemonic_name(Mnemonic m);

/// Assembly suffix of a SIMD format (".b", ".sc.n", ...; "" for kNone).
std::string_view simd_fmt_suffix(SimdFmt f);

/// Classification helpers used by the timing model and the power model.
bool is_load(Mnemonic m);
bool is_store(Mnemonic m);
bool is_branch(Mnemonic m);
bool is_simd(Mnemonic m);
bool is_dotp(Mnemonic m);        // any pv.dot*/pv.sdot*/pv.mldot* op
bool is_mixed_dotp(Mnemonic m);  // pv.mldot*/pv.mlsdot* (CSR-selected widths)
bool is_elem_manip(Mnemonic m);  // pv.extract/insert/shuffle/pack
bool is_mem_post_increment(Mnemonic m);
bool writes_rd(const Instr& in); // whether the instruction writes `rd`
bool reads_rs1(const Instr& in);
bool reads_rs2(const Instr& in);
bool reads_rd(const Instr& in);  // rd used as a source (MAC, sdot, insert, ...)

/// Memory access size in bytes for load/store mnemonics (0 otherwise).
unsigned mem_access_size(Mnemonic m);

/// True if the load mnemonic sign-extends its result.
bool load_is_signed(Mnemonic m);

}  // namespace xpulp::isa
