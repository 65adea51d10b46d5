// Programmatic assembler for the RI5CY/XpulpNN instruction set.
//
// Kernels in this repository are *generated* (the host plays the role of
// the compiler): a generator calls one method per instruction, uses labels
// for control flow, and finish() resolves the label fixups and returns the
// binary image. This mirrors how the paper's kernels were produced (C with
// builtins lowering to the new instructions) while keeping the whole
// toolchain in-repo. Each instruction is encoded as it is emitted, so a
// program's only buffer is its image (4 bytes per instruction); an
// instruction with a label operand is decoded and re-encoded with the
// label's offset at finish().
//
// Conventions:
//   - all emitted instructions are 32-bit (no compressed forms);
//   - branch/jump targets are labels; immediates are byte offsets computed
//     at finish() time;
//   - hardware loops: lp_setup*(l, count, end_label) marks the next
//     instruction as the loop start; bind the end label *after* the last
//     body instruction.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "xasm/program.hpp"

namespace xpulp::xasm {

/// ABI register numbers for readable generator code.
namespace reg {
inline constexpr u8 zero = 0, ra = 1, sp = 2, gp = 3, tp = 4;
inline constexpr u8 t0 = 5, t1 = 6, t2 = 7;
inline constexpr u8 s0 = 8, s1 = 9;
inline constexpr u8 a0 = 10, a1 = 11, a2 = 12, a3 = 13, a4 = 14, a5 = 15,
                    a6 = 16, a7 = 17;
inline constexpr u8 s2 = 18, s3 = 19, s4 = 20, s5 = 21, s6 = 22, s7 = 23,
                    s8 = 24, s9 = 25, s10 = 26, s11 = 27;
inline constexpr u8 t3 = 28, t4 = 29, t5 = 30, t6 = 31;
}  // namespace reg

class Assembler {
 public:
  using Label = u32;

  explicit Assembler(addr_t base = 0);

  // ---- Labels ----
  Label new_label() {
    labels_.push_back(kUnbound);
    return static_cast<Label>(labels_.size() - 1);
  }
  void bind(Label l);
  /// Convenience: create a label bound at the current position.
  Label here() {
    const Label l = new_label();
    bind(l);
    return l;
  }
  addr_t current_addr() const {
    return base_ + static_cast<u32>(words_.size()) * 4;
  }

  // ---- RV32I ----
  void lui(u8 rd, u32 imm_value);   // imm_value: full value, low 12 bits == 0
  void auipc(u8 rd, u32 imm_value);
  void jal(u8 rd, Label target);
  void jalr(u8 rd, u8 rs1, i32 imm);
  void beq(u8 rs1, u8 rs2, Label t);
  void bne(u8 rs1, u8 rs2, Label t);
  void blt(u8 rs1, u8 rs2, Label t);
  void bge(u8 rs1, u8 rs2, Label t);
  void bltu(u8 rs1, u8 rs2, Label t);
  void bgeu(u8 rs1, u8 rs2, Label t);
  void lb(u8 rd, u8 rs1, i32 imm);
  void lh(u8 rd, u8 rs1, i32 imm);
  void lw(u8 rd, u8 rs1, i32 imm);
  void lbu(u8 rd, u8 rs1, i32 imm);
  void lhu(u8 rd, u8 rs1, i32 imm);
  void sb(u8 rs2, u8 rs1, i32 imm);
  void sh(u8 rs2, u8 rs1, i32 imm);
  void sw(u8 rs2, u8 rs1, i32 imm);
  void addi(u8 rd, u8 rs1, i32 imm);
  void slti(u8 rd, u8 rs1, i32 imm);
  void sltiu(u8 rd, u8 rs1, i32 imm);
  void xori(u8 rd, u8 rs1, i32 imm);
  void ori(u8 rd, u8 rs1, i32 imm);
  void andi(u8 rd, u8 rs1, i32 imm);
  void slli(u8 rd, u8 rs1, u32 shamt);
  void srli(u8 rd, u8 rs1, u32 shamt);
  void srai(u8 rd, u8 rs1, u32 shamt);
  void add(u8 rd, u8 rs1, u8 rs2);
  void sub(u8 rd, u8 rs1, u8 rs2);
  void sll(u8 rd, u8 rs1, u8 rs2);
  void slt(u8 rd, u8 rs1, u8 rs2);
  void sltu(u8 rd, u8 rs1, u8 rs2);
  void xor_(u8 rd, u8 rs1, u8 rs2);
  void srl(u8 rd, u8 rs1, u8 rs2);
  void sra(u8 rd, u8 rs1, u8 rs2);
  void or_(u8 rd, u8 rs1, u8 rs2);
  void and_(u8 rd, u8 rs1, u8 rs2);
  void ecall();
  void ebreak();
  void csrrs(u8 rd, u32 csr, u8 rs1);
  void csrrw(u8 rd, u32 csr, u8 rs1);
  void csrrwi(u8 rd, u32 csr, u32 uimm5);

  // ---- RV32M ----
  void mul(u8 rd, u8 rs1, u8 rs2);
  void mulh(u8 rd, u8 rs1, u8 rs2);
  void mulhu(u8 rd, u8 rs1, u8 rs2);
  void div(u8 rd, u8 rs1, u8 rs2);
  void divu(u8 rd, u8 rs1, u8 rs2);
  void rem(u8 rd, u8 rs1, u8 rs2);
  void remu(u8 rd, u8 rs1, u8 rs2);

  // ---- Pseudo-instructions ----
  void nop() { addi(0, 0, 0); }
  void mv(u8 rd, u8 rs1) { addi(rd, rs1, 0); }
  void li(u8 rd, i32 value);  // lui+addi as needed
  void j(Label t) { jal(0, t); }
  void ret() { jalr(0, reg::ra, 0); }
  void halt() { ecall(); }

  // ---- XpulpV2: post-increment / indexed memory ----
  void p_lb_post(u8 rd, u8 base, i32 inc);
  void p_lh_post(u8 rd, u8 base, i32 inc);
  void p_lw_post(u8 rd, u8 base, i32 inc);
  void p_lbu_post(u8 rd, u8 base, i32 inc);
  void p_lhu_post(u8 rd, u8 base, i32 inc);
  void p_sb_post(u8 data, u8 base, i32 inc);
  void p_sh_post(u8 data, u8 base, i32 inc);
  void p_sw_post(u8 data, u8 base, i32 inc);
  void p_lw_post_r(u8 rd, u8 base, u8 inc);
  void p_lw_rr(u8 rd, u8 base, u8 idx);
  void p_sw_post_r(u8 data, u8 base, u8 inc);
  void p_sw_rr(u8 data, u8 base, u8 idx);

  // ---- XpulpV2: scalar ALU / bit manipulation ----
  void p_abs(u8 rd, u8 rs1);
  void p_min(u8 rd, u8 rs1, u8 rs2);
  void p_minu(u8 rd, u8 rs1, u8 rs2);
  void p_max(u8 rd, u8 rs1, u8 rs2);
  void p_maxu(u8 rd, u8 rs1, u8 rs2);
  void p_exths(u8 rd, u8 rs1);
  void p_exthz(u8 rd, u8 rs1);
  void p_extbs(u8 rd, u8 rs1);
  void p_extbz(u8 rd, u8 rs1);
  void p_cnt(u8 rd, u8 rs1);
  void p_ff1(u8 rd, u8 rs1);
  void p_fl1(u8 rd, u8 rs1);
  void p_clb(u8 rd, u8 rs1);
  void p_ror(u8 rd, u8 rs1, u8 rs2);
  void p_clip(u8 rd, u8 rs1, u32 bits);
  void p_clipu(u8 rd, u8 rs1, u32 bits);
  void p_mac(u8 rd, u8 rs1, u8 rs2);
  void p_msu(u8 rd, u8 rs1, u8 rs2);
  void p_extract(u8 rd, u8 rs1, u32 width, u32 pos);    // sign-extending
  void p_extractu(u8 rd, u8 rs1, u32 width, u32 pos);   // zero-extending
  void p_insert(u8 rd, u8 rs1, u32 width, u32 pos);
  void p_bclr(u8 rd, u8 rs1, u32 width, u32 pos);
  void p_bset(u8 rd, u8 rs1, u32 width, u32 pos);

  // ---- XpulpV2: hardware loops ----
  /// lp_setup: count from a register; the loop body starts at the next
  /// emitted instruction and ends just before `end` is bound.
  void lp_setup(unsigned l, u8 count_reg, Label end);
  void lp_setupi(unsigned l, u32 count_imm5, Label end);
  void lp_starti(unsigned l, Label start);
  void lp_endi(unsigned l, Label end);
  void lp_count(unsigned l, u8 count_reg);
  void lp_counti(unsigned l, u32 count);

  // ---- Packed SIMD (formats: b/h are XpulpV2; n/c are XpulpNN) ----
  void pv_op(isa::Mnemonic op, isa::SimdFmt fmt, u8 rd, u8 rs1, u8 rs2);
  void pv_add(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvAdd, f, rd, rs1, rs2); }
  void pv_sub(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvSub, f, rd, rs1, rs2); }
  void pv_avg(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvAvg, f, rd, rs1, rs2); }
  void pv_avgu(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvAvgu, f, rd, rs1, rs2); }
  void pv_max(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMax, f, rd, rs1, rs2); }
  void pv_maxu(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMaxu, f, rd, rs1, rs2); }
  void pv_min(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMin, f, rd, rs1, rs2); }
  void pv_minu(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMinu, f, rd, rs1, rs2); }
  void pv_srl(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvSrl, f, rd, rs1, rs2); }
  void pv_sra(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvSra, f, rd, rs1, rs2); }
  void pv_sll(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvSll, f, rd, rs1, rs2); }
  void pv_abs(isa::SimdFmt f, u8 rd, u8 rs1) { pv_op(isa::Mnemonic::kPvAbs, f, rd, rs1, 0); }
  void pv_and(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvAnd, f, rd, rs1, rs2); }
  void pv_or(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvOr, f, rd, rs1, rs2); }
  void pv_xor(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvXor, f, rd, rs1, rs2); }
  void pv_dotup(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvDotup, f, rd, rs1, rs2); }
  void pv_dotusp(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvDotusp, f, rd, rs1, rs2); }
  void pv_dotsp(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvDotsp, f, rd, rs1, rs2); }
  void pv_sdotup(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvSdotup, f, rd, rs1, rs2); }
  void pv_sdotusp(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvSdotusp, f, rd, rs1, rs2); }
  void pv_sdotsp(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvSdotsp, f, rd, rs1, rs2); }
  /// Mixed virtual dot products (XpulpNN successor, Ottavi et al.): no
  /// static format — operand widths come from the mpc CSR at run time.
  void pv_mldotup(u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMldotup, isa::SimdFmt::kNone, rd, rs1, rs2); }
  void pv_mldotusp(u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMldotusp, isa::SimdFmt::kNone, rd, rs1, rs2); }
  void pv_mldotsp(u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMldotsp, isa::SimdFmt::kNone, rd, rs1, rs2); }
  void pv_mlsdotup(u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMlsdotup, isa::SimdFmt::kNone, rd, rs1, rs2); }
  void pv_mlsdotusp(u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMlsdotusp, isa::SimdFmt::kNone, rd, rs1, rs2); }
  void pv_mlsdotsp(u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvMlsdotsp, isa::SimdFmt::kNone, rd, rs1, rs2); }
  /// Element manipulation (b/h formats).
  void pv_extract(isa::SimdFmt f, u8 rd, u8 rs1, u32 lane);
  void pv_extractu(isa::SimdFmt f, u8 rd, u8 rs1, u32 lane);
  void pv_insert(isa::SimdFmt f, u8 rd, u8 rs1, u32 lane);
  void pv_shuffle(isa::SimdFmt f, u8 rd, u8 rs1, u8 rs2);
  void pv_pack_h(u8 rd, u8 rs1, u8 rs2) { pv_op(isa::Mnemonic::kPvPackH, isa::SimdFmt::kH, rd, rs1, rs2); }

  /// Immediate-compare branches (imm5 in [-16, 15]).
  void p_beqimm(u8 rs1, i32 imm5, Label t);
  void p_bneimm(u8 rs1, i32 imm5, Label t);

  /// pv.qnt.{n,c}: q_bits in {4, 2}.
  void pv_qnt(unsigned q_bits, u8 rd, u8 rs1, u8 rs2);

  /// Any instruction without a label operand, fields as given (e.g. one
  /// built from an isa::canonical_samples() entry). By reference: a
  /// by-value Instr is copied with wide loads of the fields its builder
  /// just stored one by one, a store-forwarding stall that costs more than
  /// the encoding.
  void emit(const isa::Instr& in);

  // ---- Finalization ----
  u32 instruction_count() const { return static_cast<u32>(words_.size()); }
  Program finish();

 private:
  // The text front end binds the label operands of the instructions it
  // parses from the ISA table (text_asm.hpp).
  friend Program assemble_text(std::string_view source, addr_t base);

  static constexpr i64 kUnbound = -1;

  enum class FixKind { kBranch, kJal, kHwloopEnd, kHwloopStart };
  struct Fixup {
    u32 index;  // instruction index whose imm needs the label offset
    Label label;
    FixKind kind;
  };

  void emit_fixup(isa::Instr in, Label l, FixKind kind) {
    // Encoded with a zero offset now, re-encoded with the label's at
    // finish().
    in.imm = 0;
    fixups_.push_back({static_cast<u32>(words_.size()), l, kind});
    emit(in);
  }
  isa::Instr mk(isa::Mnemonic op, u8 rd, u8 rs1, u8 rs2, i32 imm = 0,
                u8 imm2 = 0) const;
  void branch(isa::Mnemonic op, u8 rs1, u8 rs2, Label t);
  void mem_i(isa::Mnemonic op, u8 rd_or_data, u8 base, i32 imm, bool store);
  void bitmanip(isa::Mnemonic op, u8 rd, u8 rs1, u32 width, u32 pos);

  addr_t base_;
  /// The encoded image so far. Rather than growing a fresh buffer for
  /// every program, which fragments the heap of a process that generates
  /// many, each thread's assemblers pass on the largest buffer a finished
  /// one held (spare_words); finish() returns an exact-size copy.
  std::vector<u32> words_;
  static std::vector<u32>& spare_words();
  std::vector<i64> labels_;  // bound byte address or kUnbound
  std::vector<Fixup> fixups_;
  bool finished_ = false;
};

}  // namespace xpulp::xasm
