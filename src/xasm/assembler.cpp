#include "xasm/assembler.hpp"

#include "common/bitops.hpp"
#include "isa/decoder.hpp"
#include "isa/encoding.hpp"

namespace xpulp::xasm {

using isa::Instr;
using isa::Mnemonic;
using isa::SimdFmt;

Instr Assembler::mk(Mnemonic op, u8 rd, u8 rs1, u8 rs2, i32 imm,
                    u8 imm2) const {
  Instr in;
  in.op = op;
  in.rd = rd;
  in.rs1 = rs1;
  in.rs2 = rs2;
  in.imm = imm;
  in.imm2 = imm2;
  return in;
}

std::vector<u32>& Assembler::spare_words() {
  thread_local std::vector<u32> spare;
  return spare;
}

Assembler::Assembler(addr_t base) : base_(base) {
  if (base % 4 != 0) throw AsmError("program base must be word-aligned");
  words_.swap(spare_words());
  words_.clear();
}

void Assembler::emit(const Instr& in) { words_.push_back(isa::encode(in)); }

void Assembler::bind(Label l) {
  if (l >= labels_.size()) throw AsmError("unknown label");
  if (labels_[l] != kUnbound) throw AsmError("label bound twice");
  labels_[l] = current_addr();
}

// ---- RV32I ----

void Assembler::lui(u8 rd, u32 imm_value) {
  if (imm_value & 0xfffu) throw AsmError("lui immediate has low bits set");
  emit(mk(Mnemonic::kLui, rd, 0, 0, static_cast<i32>(imm_value)));
}

void Assembler::auipc(u8 rd, u32 imm_value) {
  emit(mk(Mnemonic::kAuipc, rd, 0, 0, static_cast<i32>(imm_value)));
}

void Assembler::jal(u8 rd, Label target) {
  emit_fixup(mk(Mnemonic::kJal, rd, 0, 0), target, FixKind::kJal);
}

void Assembler::jalr(u8 rd, u8 rs1, i32 imm) {
  emit(mk(Mnemonic::kJalr, rd, rs1, 0, imm));
}

void Assembler::branch(Mnemonic op, u8 rs1, u8 rs2, Label t) {
  emit_fixup(mk(op, 0, rs1, rs2), t, FixKind::kBranch);
}

void Assembler::beq(u8 a, u8 b, Label t) { branch(Mnemonic::kBeq, a, b, t); }
void Assembler::bne(u8 a, u8 b, Label t) { branch(Mnemonic::kBne, a, b, t); }
void Assembler::blt(u8 a, u8 b, Label t) { branch(Mnemonic::kBlt, a, b, t); }
void Assembler::bge(u8 a, u8 b, Label t) { branch(Mnemonic::kBge, a, b, t); }
void Assembler::bltu(u8 a, u8 b, Label t) { branch(Mnemonic::kBltu, a, b, t); }
void Assembler::bgeu(u8 a, u8 b, Label t) { branch(Mnemonic::kBgeu, a, b, t); }

void Assembler::mem_i(Mnemonic op, u8 rd_or_data, u8 base, i32 imm,
                      bool store) {
  if (store) {
    emit(mk(op, 0, base, rd_or_data, imm));
  } else {
    emit(mk(op, rd_or_data, base, 0, imm));
  }
}

void Assembler::lb(u8 rd, u8 rs1, i32 imm) { mem_i(Mnemonic::kLb, rd, rs1, imm, false); }
void Assembler::lh(u8 rd, u8 rs1, i32 imm) { mem_i(Mnemonic::kLh, rd, rs1, imm, false); }
void Assembler::lw(u8 rd, u8 rs1, i32 imm) { mem_i(Mnemonic::kLw, rd, rs1, imm, false); }
void Assembler::lbu(u8 rd, u8 rs1, i32 imm) { mem_i(Mnemonic::kLbu, rd, rs1, imm, false); }
void Assembler::lhu(u8 rd, u8 rs1, i32 imm) { mem_i(Mnemonic::kLhu, rd, rs1, imm, false); }
void Assembler::sb(u8 rs2, u8 rs1, i32 imm) { mem_i(Mnemonic::kSb, rs2, rs1, imm, true); }
void Assembler::sh(u8 rs2, u8 rs1, i32 imm) { mem_i(Mnemonic::kSh, rs2, rs1, imm, true); }
void Assembler::sw(u8 rs2, u8 rs1, i32 imm) { mem_i(Mnemonic::kSw, rs2, rs1, imm, true); }

void Assembler::addi(u8 rd, u8 rs1, i32 imm) { emit(mk(Mnemonic::kAddi, rd, rs1, 0, imm)); }
void Assembler::slti(u8 rd, u8 rs1, i32 imm) { emit(mk(Mnemonic::kSlti, rd, rs1, 0, imm)); }
void Assembler::sltiu(u8 rd, u8 rs1, i32 imm) { emit(mk(Mnemonic::kSltiu, rd, rs1, 0, imm)); }
void Assembler::xori(u8 rd, u8 rs1, i32 imm) { emit(mk(Mnemonic::kXori, rd, rs1, 0, imm)); }
void Assembler::ori(u8 rd, u8 rs1, i32 imm) { emit(mk(Mnemonic::kOri, rd, rs1, 0, imm)); }
void Assembler::andi(u8 rd, u8 rs1, i32 imm) { emit(mk(Mnemonic::kAndi, rd, rs1, 0, imm)); }
void Assembler::slli(u8 rd, u8 rs1, u32 shamt) { emit(mk(Mnemonic::kSlli, rd, rs1, 0, static_cast<i32>(shamt))); }
void Assembler::srli(u8 rd, u8 rs1, u32 shamt) { emit(mk(Mnemonic::kSrli, rd, rs1, 0, static_cast<i32>(shamt))); }
void Assembler::srai(u8 rd, u8 rs1, u32 shamt) { emit(mk(Mnemonic::kSrai, rd, rs1, 0, static_cast<i32>(shamt))); }

void Assembler::add(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kAdd, rd, rs1, rs2)); }
void Assembler::sub(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kSub, rd, rs1, rs2)); }
void Assembler::sll(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kSll, rd, rs1, rs2)); }
void Assembler::slt(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kSlt, rd, rs1, rs2)); }
void Assembler::sltu(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kSltu, rd, rs1, rs2)); }
void Assembler::xor_(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kXor, rd, rs1, rs2)); }
void Assembler::srl(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kSrl, rd, rs1, rs2)); }
void Assembler::sra(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kSra, rd, rs1, rs2)); }
void Assembler::or_(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kOr, rd, rs1, rs2)); }
void Assembler::and_(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kAnd, rd, rs1, rs2)); }
void Assembler::ecall() { emit(mk(Mnemonic::kEcall, 0, 0, 0)); }
void Assembler::ebreak() { emit(mk(Mnemonic::kEbreak, 0, 0, 0)); }
void Assembler::csrrs(u8 rd, u32 csr, u8 rs1) {
  emit(mk(Mnemonic::kCsrrs, rd, rs1, 0, static_cast<i32>(csr)));
}
void Assembler::csrrw(u8 rd, u32 csr, u8 rs1) {
  emit(mk(Mnemonic::kCsrrw, rd, rs1, 0, static_cast<i32>(csr)));
}
void Assembler::csrrwi(u8 rd, u32 csr, u32 uimm5) {
  if (uimm5 > 31) throw AsmError("csrrwi immediate out of range");
  emit(mk(Mnemonic::kCsrrwi, rd, 0, 0, static_cast<i32>(csr),
          static_cast<u8>(uimm5)));
}

void Assembler::mul(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kMul, rd, rs1, rs2)); }
void Assembler::mulh(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kMulh, rd, rs1, rs2)); }
void Assembler::mulhu(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kMulhu, rd, rs1, rs2)); }
void Assembler::div(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kDiv, rd, rs1, rs2)); }
void Assembler::divu(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kDivu, rd, rs1, rs2)); }
void Assembler::rem(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kRem, rd, rs1, rs2)); }
void Assembler::remu(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kRemu, rd, rs1, rs2)); }

void Assembler::li(u8 rd, i32 value) {
  if (value >= -2048 && value <= 2047) {
    addi(rd, 0, value);
    return;
  }
  // lui + addi with carry correction: addi sign-extends its 12-bit operand.
  u32 hi = static_cast<u32>(value) & 0xfffff000u;
  const i32 lo = sign_extend(static_cast<u32>(value) & 0xfffu, 12);
  if (lo < 0) hi += 0x1000u;
  emit(mk(Mnemonic::kLui, rd, 0, 0, static_cast<i32>(hi)));
  if (lo != 0) addi(rd, rd, lo);
}

// ---- XpulpV2 memory ----

void Assembler::p_lb_post(u8 rd, u8 base, i32 inc) { emit(mk(Mnemonic::kPLbPostImm, rd, base, 0, inc)); }
void Assembler::p_lh_post(u8 rd, u8 base, i32 inc) { emit(mk(Mnemonic::kPLhPostImm, rd, base, 0, inc)); }
void Assembler::p_lw_post(u8 rd, u8 base, i32 inc) { emit(mk(Mnemonic::kPLwPostImm, rd, base, 0, inc)); }
void Assembler::p_lbu_post(u8 rd, u8 base, i32 inc) { emit(mk(Mnemonic::kPLbuPostImm, rd, base, 0, inc)); }
void Assembler::p_lhu_post(u8 rd, u8 base, i32 inc) { emit(mk(Mnemonic::kPLhuPostImm, rd, base, 0, inc)); }
void Assembler::p_sb_post(u8 data, u8 base, i32 inc) { emit(mk(Mnemonic::kPSbPostImm, 0, base, data, inc)); }
void Assembler::p_sh_post(u8 data, u8 base, i32 inc) { emit(mk(Mnemonic::kPShPostImm, 0, base, data, inc)); }
void Assembler::p_sw_post(u8 data, u8 base, i32 inc) { emit(mk(Mnemonic::kPSwPostImm, 0, base, data, inc)); }
void Assembler::p_lw_post_r(u8 rd, u8 base, u8 inc) { emit(mk(Mnemonic::kPLwPostReg, rd, base, inc)); }
void Assembler::p_lw_rr(u8 rd, u8 base, u8 idx) { emit(mk(Mnemonic::kPLwRegReg, rd, base, idx)); }
void Assembler::p_sw_post_r(u8 data, u8 base, u8 inc) { emit(mk(Mnemonic::kPSwPostReg, inc, base, data)); }
void Assembler::p_sw_rr(u8 data, u8 base, u8 idx) { emit(mk(Mnemonic::kPSwRegReg, idx, base, data)); }

// ---- XpulpV2 scalar ----

void Assembler::p_abs(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPAbs, rd, rs1, 0)); }
void Assembler::p_min(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kPMin, rd, rs1, rs2)); }
void Assembler::p_minu(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kPMinu, rd, rs1, rs2)); }
void Assembler::p_max(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kPMax, rd, rs1, rs2)); }
void Assembler::p_maxu(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kPMaxu, rd, rs1, rs2)); }
void Assembler::p_exths(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPExths, rd, rs1, 0)); }
void Assembler::p_exthz(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPExthz, rd, rs1, 0)); }
void Assembler::p_extbs(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPExtbs, rd, rs1, 0)); }
void Assembler::p_extbz(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPExtbz, rd, rs1, 0)); }
void Assembler::p_cnt(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPCnt, rd, rs1, 0)); }
void Assembler::p_ff1(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPFf1, rd, rs1, 0)); }
void Assembler::p_fl1(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPFl1, rd, rs1, 0)); }
void Assembler::p_clb(u8 rd, u8 rs1) { emit(mk(Mnemonic::kPClb, rd, rs1, 0)); }
void Assembler::p_ror(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kPRor, rd, rs1, rs2)); }
void Assembler::p_clip(u8 rd, u8 rs1, u32 bits) { emit(mk(Mnemonic::kPClip, rd, rs1, 0, static_cast<i32>(bits))); }
void Assembler::p_clipu(u8 rd, u8 rs1, u32 bits) { emit(mk(Mnemonic::kPClipu, rd, rs1, 0, static_cast<i32>(bits))); }
void Assembler::p_mac(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kPMac, rd, rs1, rs2)); }
void Assembler::p_msu(u8 rd, u8 rs1, u8 rs2) { emit(mk(Mnemonic::kPMsu, rd, rs1, rs2)); }

void Assembler::bitmanip(Mnemonic op, u8 rd, u8 rs1, u32 width, u32 pos) {
  if (width == 0 || width > 32 || pos >= 32 || pos + width > 32) {
    throw AsmError("bit-manipulation field out of range");
  }
  emit(mk(op, rd, rs1, 0, static_cast<i32>(pos), static_cast<u8>(width - 1)));
}

void Assembler::p_extract(u8 rd, u8 rs1, u32 width, u32 pos) { bitmanip(Mnemonic::kPExtract, rd, rs1, width, pos); }
void Assembler::p_extractu(u8 rd, u8 rs1, u32 width, u32 pos) { bitmanip(Mnemonic::kPExtractu, rd, rs1, width, pos); }
void Assembler::p_insert(u8 rd, u8 rs1, u32 width, u32 pos) { bitmanip(Mnemonic::kPInsert, rd, rs1, width, pos); }
void Assembler::p_bclr(u8 rd, u8 rs1, u32 width, u32 pos) { bitmanip(Mnemonic::kPBclr, rd, rs1, width, pos); }
void Assembler::p_bset(u8 rd, u8 rs1, u32 width, u32 pos) { bitmanip(Mnemonic::kPBset, rd, rs1, width, pos); }

// ---- Hardware loops ----

void Assembler::lp_setup(unsigned l, u8 count_reg, Label end) {
  emit_fixup(mk(Mnemonic::kLpSetup, 0, count_reg, 0, 0, static_cast<u8>(l)),
             end, FixKind::kHwloopEnd);
}

void Assembler::lp_setupi(unsigned l, u32 count_imm5, Label end) {
  if (count_imm5 > 31) throw AsmError("lp.setupi count exceeds 5 bits");
  emit_fixup(mk(Mnemonic::kLpSetupi, 0, static_cast<u8>(count_imm5), 0, 0,
                static_cast<u8>(l)),
             end, FixKind::kHwloopEnd);
}

void Assembler::lp_starti(unsigned l, Label start) {
  emit_fixup(mk(Mnemonic::kLpStarti, 0, 0, 0, 0, static_cast<u8>(l)), start,
             FixKind::kHwloopStart);
}

void Assembler::lp_endi(unsigned l, Label end) {
  emit_fixup(mk(Mnemonic::kLpEndi, 0, 0, 0, 0, static_cast<u8>(l)), end,
             FixKind::kHwloopEnd);
}

void Assembler::lp_count(unsigned l, u8 count_reg) {
  emit(mk(Mnemonic::kLpCount, 0, count_reg, 0, 0, static_cast<u8>(l)));
}

void Assembler::lp_counti(unsigned l, u32 count) {
  emit(mk(Mnemonic::kLpCounti, 0, 0, 0, static_cast<i32>(count),
          static_cast<u8>(l)));
}

// ---- SIMD ----

void Assembler::pv_op(Mnemonic op, SimdFmt fmt, u8 rd, u8 rs1, u8 rs2) {
  Instr in = mk(op, rd, rs1, rs2);
  in.fmt = fmt;
  emit(in);
}

namespace {

void check_elem_operands(SimdFmt f, u32 lane) {
  if (isa::simd_is_subbyte(f) || isa::simd_is_scalar_rep(f)) {
    throw AsmError("element manipulation supports plain b/h formats");
  }
  if (lane >= isa::simd_elem_count(f)) throw AsmError("lane index out of range");
}

}  // namespace

void Assembler::pv_extract(SimdFmt f, u8 rd, u8 rs1, u32 lane) {
  check_elem_operands(f, lane);
  Instr in = mk(Mnemonic::kPvElemExtract, rd, rs1, 0, static_cast<i32>(lane));
  in.fmt = f;
  emit(in);
}

void Assembler::pv_extractu(SimdFmt f, u8 rd, u8 rs1, u32 lane) {
  check_elem_operands(f, lane);
  Instr in = mk(Mnemonic::kPvElemExtractu, rd, rs1, 0, static_cast<i32>(lane));
  in.fmt = f;
  emit(in);
}

void Assembler::pv_insert(SimdFmt f, u8 rd, u8 rs1, u32 lane) {
  check_elem_operands(f, lane);
  Instr in = mk(Mnemonic::kPvElemInsert, rd, rs1, 0, static_cast<i32>(lane));
  in.fmt = f;
  emit(in);
}

void Assembler::pv_shuffle(SimdFmt f, u8 rd, u8 rs1, u8 rs2) {
  if (isa::simd_is_subbyte(f) || isa::simd_is_scalar_rep(f)) {
    throw AsmError("pv.shuffle supports plain b/h formats");
  }
  pv_op(Mnemonic::kPvShuffle, f, rd, rs1, rs2);
}

void Assembler::p_beqimm(u8 rs1, i32 imm5, Label t) {
  if (imm5 < -16 || imm5 > 15) throw AsmError("p.beqimm immediate out of range");
  emit_fixup(mk(Mnemonic::kPBeqimm, 0, rs1, 0, 0,
                static_cast<u8>(imm5 & 0x1f)),
             t, FixKind::kBranch);
}

void Assembler::p_bneimm(u8 rs1, i32 imm5, Label t) {
  if (imm5 < -16 || imm5 > 15) throw AsmError("p.bneimm immediate out of range");
  emit_fixup(mk(Mnemonic::kPBneimm, 0, rs1, 0, 0,
                static_cast<u8>(imm5 & 0x1f)),
             t, FixKind::kBranch);
}

void Assembler::pv_qnt(unsigned q_bits, u8 rd, u8 rs1, u8 rs2) {
  if (q_bits != 4 && q_bits != 2) throw AsmError("pv.qnt needs q_bits 4 or 2");
  pv_op(Mnemonic::kPvQnt, q_bits == 4 ? SimdFmt::kN : SimdFmt::kC, rd, rs1,
        rs2);
}

// ---- Finalization ----

Program Assembler::finish() {
  if (finished_) throw AsmError("finish() called twice");
  finished_ = true;

  for (const Fixup& f : fixups_) {
    if (f.label >= labels_.size() || labels_[f.label] == kUnbound) {
      throw AsmError("unbound label referenced at instruction " +
                     std::to_string(f.index));
    }
    const i64 target = labels_[f.label];
    const i64 pc = base_ + static_cast<i64>(f.index) * 4;
    Instr in = isa::decode(words_[f.index], static_cast<addr_t>(pc));
    in.imm = static_cast<i32>(target - pc);
    words_[f.index] = isa::encode(in);
  }
  Program out(base_, std::vector<u32>(words_.begin(), words_.end()));
  std::vector<u32>& spare = spare_words();
  if (words_.capacity() > spare.capacity()) words_.swap(spare);
  return out;
}

}  // namespace xpulp::xasm
