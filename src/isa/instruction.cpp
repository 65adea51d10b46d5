#include "isa/instruction.hpp"

#include <iterator>

namespace xpulp::isa {

std::string_view mnemonic_name(Mnemonic m) {
  switch (m) {
    case Mnemonic::kInvalid: return "<invalid>";
    case Mnemonic::kLui: return "lui";
    case Mnemonic::kAuipc: return "auipc";
    case Mnemonic::kJal: return "jal";
    case Mnemonic::kJalr: return "jalr";
    case Mnemonic::kBeq: return "beq";
    case Mnemonic::kBne: return "bne";
    case Mnemonic::kBlt: return "blt";
    case Mnemonic::kBge: return "bge";
    case Mnemonic::kBltu: return "bltu";
    case Mnemonic::kBgeu: return "bgeu";
    case Mnemonic::kLb: return "lb";
    case Mnemonic::kLh: return "lh";
    case Mnemonic::kLw: return "lw";
    case Mnemonic::kLbu: return "lbu";
    case Mnemonic::kLhu: return "lhu";
    case Mnemonic::kSb: return "sb";
    case Mnemonic::kSh: return "sh";
    case Mnemonic::kSw: return "sw";
    case Mnemonic::kAddi: return "addi";
    case Mnemonic::kSlti: return "slti";
    case Mnemonic::kSltiu: return "sltiu";
    case Mnemonic::kXori: return "xori";
    case Mnemonic::kOri: return "ori";
    case Mnemonic::kAndi: return "andi";
    case Mnemonic::kSlli: return "slli";
    case Mnemonic::kSrli: return "srli";
    case Mnemonic::kSrai: return "srai";
    case Mnemonic::kAdd: return "add";
    case Mnemonic::kSub: return "sub";
    case Mnemonic::kSll: return "sll";
    case Mnemonic::kSlt: return "slt";
    case Mnemonic::kSltu: return "sltu";
    case Mnemonic::kXor: return "xor";
    case Mnemonic::kSrl: return "srl";
    case Mnemonic::kSra: return "sra";
    case Mnemonic::kOr: return "or";
    case Mnemonic::kAnd: return "and";
    case Mnemonic::kFence: return "fence";
    case Mnemonic::kEcall: return "ecall";
    case Mnemonic::kEbreak: return "ebreak";
    case Mnemonic::kCsrrw: return "csrrw";
    case Mnemonic::kCsrrs: return "csrrs";
    case Mnemonic::kCsrrc: return "csrrc";
    case Mnemonic::kCsrrwi: return "csrrwi";
    case Mnemonic::kCsrrsi: return "csrrsi";
    case Mnemonic::kCsrrci: return "csrrci";
    case Mnemonic::kMul: return "mul";
    case Mnemonic::kMulh: return "mulh";
    case Mnemonic::kMulhsu: return "mulhsu";
    case Mnemonic::kMulhu: return "mulhu";
    case Mnemonic::kDiv: return "div";
    case Mnemonic::kDivu: return "divu";
    case Mnemonic::kRem: return "rem";
    case Mnemonic::kRemu: return "remu";
    case Mnemonic::kPLbPostImm: return "p.lb!";
    case Mnemonic::kPLhPostImm: return "p.lh!";
    case Mnemonic::kPLwPostImm: return "p.lw!";
    case Mnemonic::kPLbuPostImm: return "p.lbu!";
    case Mnemonic::kPLhuPostImm: return "p.lhu!";
    case Mnemonic::kPSbPostImm: return "p.sb!";
    case Mnemonic::kPShPostImm: return "p.sh!";
    case Mnemonic::kPSwPostImm: return "p.sw!";
    case Mnemonic::kPLbPostReg: return "p.lb.r!";
    case Mnemonic::kPLhPostReg: return "p.lh.r!";
    case Mnemonic::kPLwPostReg: return "p.lw.r!";
    case Mnemonic::kPLbuPostReg: return "p.lbu.r!";
    case Mnemonic::kPLhuPostReg: return "p.lhu.r!";
    case Mnemonic::kPLbRegReg: return "p.lb.rr";
    case Mnemonic::kPLhRegReg: return "p.lh.rr";
    case Mnemonic::kPLwRegReg: return "p.lw.rr";
    case Mnemonic::kPLbuRegReg: return "p.lbu.rr";
    case Mnemonic::kPLhuRegReg: return "p.lhu.rr";
    case Mnemonic::kPSbPostReg: return "p.sb.r!";
    case Mnemonic::kPShPostReg: return "p.sh.r!";
    case Mnemonic::kPSwPostReg: return "p.sw.r!";
    case Mnemonic::kPSbRegReg: return "p.sb.rr";
    case Mnemonic::kPShRegReg: return "p.sh.rr";
    case Mnemonic::kPSwRegReg: return "p.sw.rr";
    case Mnemonic::kPAbs: return "p.abs";
    case Mnemonic::kPMin: return "p.min";
    case Mnemonic::kPMinu: return "p.minu";
    case Mnemonic::kPMax: return "p.max";
    case Mnemonic::kPMaxu: return "p.maxu";
    case Mnemonic::kPExths: return "p.exths";
    case Mnemonic::kPExthz: return "p.exthz";
    case Mnemonic::kPExtbs: return "p.extbs";
    case Mnemonic::kPExtbz: return "p.extbz";
    case Mnemonic::kPCnt: return "p.cnt";
    case Mnemonic::kPFf1: return "p.ff1";
    case Mnemonic::kPFl1: return "p.fl1";
    case Mnemonic::kPClb: return "p.clb";
    case Mnemonic::kPRor: return "p.ror";
    case Mnemonic::kPClip: return "p.clip";
    case Mnemonic::kPClipu: return "p.clipu";
    case Mnemonic::kPMac: return "p.mac";
    case Mnemonic::kPMsu: return "p.msu";
    case Mnemonic::kPExtract: return "p.extract";
    case Mnemonic::kPExtractu: return "p.extractu";
    case Mnemonic::kPInsert: return "p.insert";
    case Mnemonic::kPBclr: return "p.bclr";
    case Mnemonic::kPBset: return "p.bset";
    case Mnemonic::kPBeqimm: return "p.beqimm";
    case Mnemonic::kPBneimm: return "p.bneimm";
    case Mnemonic::kLpStarti: return "lp.starti";
    case Mnemonic::kLpEndi: return "lp.endi";
    case Mnemonic::kLpCount: return "lp.count";
    case Mnemonic::kLpCounti: return "lp.counti";
    case Mnemonic::kLpSetup: return "lp.setup";
    case Mnemonic::kLpSetupi: return "lp.setupi";
    case Mnemonic::kPvAdd: return "pv.add";
    case Mnemonic::kPvSub: return "pv.sub";
    case Mnemonic::kPvAvg: return "pv.avg";
    case Mnemonic::kPvAvgu: return "pv.avgu";
    case Mnemonic::kPvMax: return "pv.max";
    case Mnemonic::kPvMaxu: return "pv.maxu";
    case Mnemonic::kPvMin: return "pv.min";
    case Mnemonic::kPvMinu: return "pv.minu";
    case Mnemonic::kPvSrl: return "pv.srl";
    case Mnemonic::kPvSra: return "pv.sra";
    case Mnemonic::kPvSll: return "pv.sll";
    case Mnemonic::kPvAbs: return "pv.abs";
    case Mnemonic::kPvAnd: return "pv.and";
    case Mnemonic::kPvOr: return "pv.or";
    case Mnemonic::kPvXor: return "pv.xor";
    case Mnemonic::kPvDotup: return "pv.dotup";
    case Mnemonic::kPvDotusp: return "pv.dotusp";
    case Mnemonic::kPvDotsp: return "pv.dotsp";
    case Mnemonic::kPvSdotup: return "pv.sdotup";
    case Mnemonic::kPvSdotusp: return "pv.sdotusp";
    case Mnemonic::kPvSdotsp: return "pv.sdotsp";
    case Mnemonic::kPvMldotup: return "pv.mldotup";
    case Mnemonic::kPvMldotusp: return "pv.mldotusp";
    case Mnemonic::kPvMldotsp: return "pv.mldotsp";
    case Mnemonic::kPvMlsdotup: return "pv.mlsdotup";
    case Mnemonic::kPvMlsdotusp: return "pv.mlsdotusp";
    case Mnemonic::kPvMlsdotsp: return "pv.mlsdotsp";
    case Mnemonic::kPvElemExtract: return "pv.extract";
    case Mnemonic::kPvElemExtractu: return "pv.extractu";
    case Mnemonic::kPvElemInsert: return "pv.insert";
    case Mnemonic::kPvShuffle: return "pv.shuffle";
    case Mnemonic::kPvPackH: return "pv.pack";
    case Mnemonic::kPvQnt: return "pv.qnt";
    case Mnemonic::kCount: return "<count>";
  }
  return "<unknown>";
}

std::string_view simd_fmt_suffix(SimdFmt f) {
  static constexpr std::string_view kSuffix[] = {
      "", ".b", ".sc.b", ".h", ".sc.h", ".n", ".sc.n", ".c", ".sc.c"};
  const auto i = static_cast<size_t>(f);
  return i < std::size(kSuffix) ? kSuffix[i] : "";
}

bool is_load(Mnemonic m) {
  switch (m) {
    case Mnemonic::kLb: case Mnemonic::kLh: case Mnemonic::kLw:
    case Mnemonic::kLbu: case Mnemonic::kLhu:
    case Mnemonic::kPLbPostImm: case Mnemonic::kPLhPostImm:
    case Mnemonic::kPLwPostImm: case Mnemonic::kPLbuPostImm:
    case Mnemonic::kPLhuPostImm:
    case Mnemonic::kPLbPostReg: case Mnemonic::kPLhPostReg:
    case Mnemonic::kPLwPostReg: case Mnemonic::kPLbuPostReg:
    case Mnemonic::kPLhuPostReg:
    case Mnemonic::kPLbRegReg: case Mnemonic::kPLhRegReg:
    case Mnemonic::kPLwRegReg: case Mnemonic::kPLbuRegReg:
    case Mnemonic::kPLhuRegReg:
      return true;
    default:
      return false;
  }
}

bool is_store(Mnemonic m) {
  switch (m) {
    case Mnemonic::kSb: case Mnemonic::kSh: case Mnemonic::kSw:
    case Mnemonic::kPSbPostImm: case Mnemonic::kPShPostImm:
    case Mnemonic::kPSwPostImm:
    case Mnemonic::kPSbPostReg: case Mnemonic::kPShPostReg:
    case Mnemonic::kPSwPostReg:
    case Mnemonic::kPSbRegReg: case Mnemonic::kPShRegReg:
    case Mnemonic::kPSwRegReg:
      return true;
    default:
      return false;
  }
}

bool is_branch(Mnemonic m) {
  switch (m) {
    case Mnemonic::kBeq: case Mnemonic::kBne: case Mnemonic::kBlt:
    case Mnemonic::kBge: case Mnemonic::kBltu: case Mnemonic::kBgeu:
    case Mnemonic::kPBeqimm: case Mnemonic::kPBneimm:
      return true;
    default:
      return false;
  }
}

bool is_simd(Mnemonic m) {
  return m >= Mnemonic::kPvAdd && m <= Mnemonic::kPvQnt;
}

bool is_elem_manip(Mnemonic m) {
  switch (m) {
    case Mnemonic::kPvElemExtract: case Mnemonic::kPvElemExtractu:
    case Mnemonic::kPvElemInsert: case Mnemonic::kPvShuffle:
    case Mnemonic::kPvPackH:
      return true;
    default:
      return false;
  }
}

bool is_dotp(Mnemonic m) {
  switch (m) {
    case Mnemonic::kPvDotup: case Mnemonic::kPvDotusp: case Mnemonic::kPvDotsp:
    case Mnemonic::kPvSdotup: case Mnemonic::kPvSdotusp:
    case Mnemonic::kPvSdotsp:
    case Mnemonic::kPvMldotup: case Mnemonic::kPvMldotusp:
    case Mnemonic::kPvMldotsp:
    case Mnemonic::kPvMlsdotup: case Mnemonic::kPvMlsdotusp:
    case Mnemonic::kPvMlsdotsp:
      return true;
    default:
      return false;
  }
}

bool is_mixed_dotp(Mnemonic m) {
  switch (m) {
    case Mnemonic::kPvMldotup: case Mnemonic::kPvMldotusp:
    case Mnemonic::kPvMldotsp:
    case Mnemonic::kPvMlsdotup: case Mnemonic::kPvMlsdotusp:
    case Mnemonic::kPvMlsdotsp:
      return true;
    default:
      return false;
  }
}

bool is_mem_post_increment(Mnemonic m) {
  switch (m) {
    case Mnemonic::kPLbPostImm: case Mnemonic::kPLhPostImm:
    case Mnemonic::kPLwPostImm: case Mnemonic::kPLbuPostImm:
    case Mnemonic::kPLhuPostImm:
    case Mnemonic::kPSbPostImm: case Mnemonic::kPShPostImm:
    case Mnemonic::kPSwPostImm:
    case Mnemonic::kPLbPostReg: case Mnemonic::kPLhPostReg:
    case Mnemonic::kPLwPostReg: case Mnemonic::kPLbuPostReg:
    case Mnemonic::kPLhuPostReg:
    case Mnemonic::kPSbPostReg: case Mnemonic::kPShPostReg:
    case Mnemonic::kPSwPostReg:
      return true;
    default:
      return false;
  }
}

bool writes_rd(const Instr& in) {
  switch (in.op) {
    case Mnemonic::kSb: case Mnemonic::kSh: case Mnemonic::kSw:
    case Mnemonic::kPSbPostImm: case Mnemonic::kPShPostImm:
    case Mnemonic::kPSwPostImm:
    case Mnemonic::kPSbRegReg:
    case Mnemonic::kPShRegReg: case Mnemonic::kPSwRegReg:
    case Mnemonic::kPSbPostReg: case Mnemonic::kPShPostReg:
    case Mnemonic::kPSwPostReg:
    case Mnemonic::kBeq: case Mnemonic::kBne: case Mnemonic::kBlt:
    case Mnemonic::kBge: case Mnemonic::kBltu: case Mnemonic::kBgeu:
    case Mnemonic::kPBeqimm: case Mnemonic::kPBneimm:
    case Mnemonic::kFence: case Mnemonic::kEcall: case Mnemonic::kEbreak:
    case Mnemonic::kLpStarti: case Mnemonic::kLpEndi:
    case Mnemonic::kLpCount: case Mnemonic::kLpCounti:
    case Mnemonic::kLpSetup: case Mnemonic::kLpSetupi:
      return false;
    default:
      return in.rd != 0;
  }
}

bool reads_rs1(const Instr& in) {
  switch (in.op) {
    case Mnemonic::kLui: case Mnemonic::kAuipc: case Mnemonic::kJal:
    case Mnemonic::kFence: case Mnemonic::kEcall: case Mnemonic::kEbreak:
    case Mnemonic::kCsrrwi: case Mnemonic::kCsrrsi: case Mnemonic::kCsrrci:
    case Mnemonic::kLpStarti: case Mnemonic::kLpEndi:
    case Mnemonic::kLpCounti: case Mnemonic::kLpSetupi:
      return false;
    default:
      return true;
  }
}

bool reads_rs2(const Instr& in) {
  switch (in.op) {
    case Mnemonic::kAdd: case Mnemonic::kSub: case Mnemonic::kSll:
    case Mnemonic::kSlt: case Mnemonic::kSltu: case Mnemonic::kXor:
    case Mnemonic::kSrl: case Mnemonic::kSra: case Mnemonic::kOr:
    case Mnemonic::kAnd:
    case Mnemonic::kMul: case Mnemonic::kMulh: case Mnemonic::kMulhsu:
    case Mnemonic::kMulhu: case Mnemonic::kDiv: case Mnemonic::kDivu:
    case Mnemonic::kRem: case Mnemonic::kRemu:
    case Mnemonic::kBeq: case Mnemonic::kBne: case Mnemonic::kBlt:
    case Mnemonic::kBge: case Mnemonic::kBltu: case Mnemonic::kBgeu:
    case Mnemonic::kSb: case Mnemonic::kSh: case Mnemonic::kSw:
    case Mnemonic::kPSbPostImm: case Mnemonic::kPShPostImm:
    case Mnemonic::kPSwPostImm:
    case Mnemonic::kPSbPostReg: case Mnemonic::kPShPostReg:
    case Mnemonic::kPSwPostReg:
    case Mnemonic::kPSbRegReg: case Mnemonic::kPShRegReg:
    case Mnemonic::kPSwRegReg:
    case Mnemonic::kPLbPostReg: case Mnemonic::kPLhPostReg:
    case Mnemonic::kPLwPostReg: case Mnemonic::kPLbuPostReg:
    case Mnemonic::kPLhuPostReg:
    case Mnemonic::kPLbRegReg: case Mnemonic::kPLhRegReg:
    case Mnemonic::kPLwRegReg: case Mnemonic::kPLbuRegReg:
    case Mnemonic::kPLhuRegReg:
    case Mnemonic::kPMin: case Mnemonic::kPMinu: case Mnemonic::kPMax:
    case Mnemonic::kPMaxu: case Mnemonic::kPRor:
    case Mnemonic::kPMac: case Mnemonic::kPMsu:
      return true;
    default:
      // SIMD register-register ops read rs2; .sc variants also read rs2 (the
      // scalar lives in a register). pv.qnt reads rs2 as the threshold base.
      return is_simd(in.op);
  }
}

bool reads_rd(const Instr& in) {
  switch (in.op) {
    case Mnemonic::kPMac: case Mnemonic::kPMsu:
    case Mnemonic::kPInsert: case Mnemonic::kPvElemInsert:
    case Mnemonic::kPvSdotup: case Mnemonic::kPvSdotusp:
    case Mnemonic::kPvSdotsp:
    case Mnemonic::kPvMlsdotup: case Mnemonic::kPvMlsdotusp:
    case Mnemonic::kPvMlsdotsp:
      return true;
    // Register post-increment / reg-reg stores carry the increment/offset
    // register in the rd field.
    case Mnemonic::kPSbPostReg: case Mnemonic::kPShPostReg:
    case Mnemonic::kPSwPostReg:
    case Mnemonic::kPSbRegReg: case Mnemonic::kPShRegReg:
    case Mnemonic::kPSwRegReg:
      return true;
    default:
      return false;
  }
}

unsigned mem_access_size(Mnemonic m) {
  switch (m) {
    case Mnemonic::kLb: case Mnemonic::kLbu: case Mnemonic::kSb:
    case Mnemonic::kPLbPostImm: case Mnemonic::kPLbuPostImm:
    case Mnemonic::kPSbPostImm:
    case Mnemonic::kPLbPostReg: case Mnemonic::kPLbuPostReg:
    case Mnemonic::kPLbRegReg: case Mnemonic::kPLbuRegReg:
    case Mnemonic::kPSbPostReg: case Mnemonic::kPSbRegReg:
      return 1;
    case Mnemonic::kLh: case Mnemonic::kLhu: case Mnemonic::kSh:
    case Mnemonic::kPLhPostImm: case Mnemonic::kPLhuPostImm:
    case Mnemonic::kPShPostImm:
    case Mnemonic::kPLhPostReg: case Mnemonic::kPLhuPostReg:
    case Mnemonic::kPLhRegReg: case Mnemonic::kPLhuRegReg:
    case Mnemonic::kPShPostReg: case Mnemonic::kPShRegReg:
      return 2;
    case Mnemonic::kLw: case Mnemonic::kSw:
    case Mnemonic::kPLwPostImm: case Mnemonic::kPSwPostImm:
    case Mnemonic::kPLwPostReg: case Mnemonic::kPLwRegReg:
    case Mnemonic::kPSwPostReg: case Mnemonic::kPSwRegReg:
      return 4;
    default:
      return 0;
  }
}

bool load_is_signed(Mnemonic m) {
  switch (m) {
    case Mnemonic::kLb: case Mnemonic::kLh:
    case Mnemonic::kPLbPostImm: case Mnemonic::kPLhPostImm:
    case Mnemonic::kPLbPostReg: case Mnemonic::kPLhPostReg:
    case Mnemonic::kPLbRegReg: case Mnemonic::kPLhRegReg:
      return true;
    default:
      return false;
  }
}

namespace {

ExecClass classify(Mnemonic m) {
  using M = Mnemonic;
  switch (m) {
    case M::kLui: return ExecClass::kLui;
    case M::kAuipc: return ExecClass::kAuipc;
    case M::kJal: case M::kJalr:
    case M::kBeq: case M::kBne: case M::kBlt: case M::kBge:
    case M::kBltu: case M::kBgeu:
    case M::kPBeqimm: case M::kPBneimm:
      return ExecClass::kBranchJump;
    case M::kAddi: case M::kSlti: case M::kSltiu: case M::kXori:
    case M::kOri: case M::kAndi: case M::kSlli: case M::kSrli:
    case M::kSrai:
      return ExecClass::kAluImm;
    case M::kAdd: case M::kSub: case M::kSll: case M::kSlt:
    case M::kSltu: case M::kXor: case M::kSrl: case M::kSra:
    case M::kOr: case M::kAnd:
      return ExecClass::kAluReg;
    case M::kMul: case M::kMulh: case M::kMulhsu: case M::kMulhu:
    case M::kDiv: case M::kDivu: case M::kRem: case M::kRemu:
      return ExecClass::kMulDiv;
    case M::kFence: return ExecClass::kFence;
    case M::kEcall: return ExecClass::kEcall;
    case M::kEbreak: return ExecClass::kEbreak;
    case M::kCsrrw: case M::kCsrrs: case M::kCsrrc:
    case M::kCsrrwi: case M::kCsrrsi: case M::kCsrrci:
      return ExecClass::kCsr;
    case M::kLpStarti: case M::kLpEndi: case M::kLpCount:
    case M::kLpCounti: case M::kLpSetup: case M::kLpSetupi:
      return ExecClass::kHwloop;
    case M::kPAbs: case M::kPMin: case M::kPMinu: case M::kPMax:
    case M::kPMaxu: case M::kPExths: case M::kPExthz: case M::kPExtbs:
    case M::kPExtbz: case M::kPCnt: case M::kPFf1: case M::kPFl1:
    case M::kPClb: case M::kPRor: case M::kPClip: case M::kPClipu:
    case M::kPMac: case M::kPMsu:
    case M::kPExtract: case M::kPExtractu: case M::kPInsert:
    case M::kPBclr: case M::kPBset:
      return ExecClass::kPulpScalar;
    default:
      if (is_load(m) || is_store(m)) return ExecClass::kMem;
      if (m == M::kPvQnt) return ExecClass::kSimdQnt;
      if (is_dotp(m)) return ExecClass::kSimdDotp;
      if (is_elem_manip(m)) return ExecClass::kSimdElem;
      if (is_simd(m)) return ExecClass::kSimdAlu;
      return ExecClass::kIllegal;
  }
}

bool mem_is_base_rv32i(Mnemonic m) {
  switch (m) {
    case Mnemonic::kLb: case Mnemonic::kLh: case Mnemonic::kLw:
    case Mnemonic::kLbu: case Mnemonic::kLhu:
    case Mnemonic::kSb: case Mnemonic::kSh: case Mnemonic::kSw:
      return true;
    default:
      return false;
  }
}

}  // namespace

namespace {

bool mem_is_post_inc(Mnemonic m) {
  switch (m) {
    case Mnemonic::kPLbPostImm: case Mnemonic::kPLhPostImm:
    case Mnemonic::kPLwPostImm: case Mnemonic::kPLbuPostImm:
    case Mnemonic::kPLhuPostImm:
    case Mnemonic::kPSbPostImm: case Mnemonic::kPShPostImm:
    case Mnemonic::kPSwPostImm:
    case Mnemonic::kPLbPostReg: case Mnemonic::kPLhPostReg:
    case Mnemonic::kPLwPostReg: case Mnemonic::kPLbuPostReg:
    case Mnemonic::kPLhuPostReg:
    case Mnemonic::kPSbPostReg: case Mnemonic::kPShPostReg:
    case Mnemonic::kPSwPostReg:
      return true;
    default:
      return false;
  }
}

bool mem_is_reg_offset(Mnemonic m) {
  switch (m) {
    case Mnemonic::kPLbPostReg: case Mnemonic::kPLhPostReg:
    case Mnemonic::kPLwPostReg: case Mnemonic::kPLbuPostReg:
    case Mnemonic::kPLhuPostReg:
    case Mnemonic::kPSbPostReg: case Mnemonic::kPShPostReg:
    case Mnemonic::kPSwPostReg:
    case Mnemonic::kPLbRegReg: case Mnemonic::kPLhRegReg:
    case Mnemonic::kPLwRegReg: case Mnemonic::kPLbuRegReg:
    case Mnemonic::kPLhuRegReg:
    case Mnemonic::kPSbRegReg: case Mnemonic::kPShRegReg:
    case Mnemonic::kPSwRegReg:
      return true;
    default:
      return false;
  }
}

}  // namespace

void finalize_decode(Instr& in) {
  u16 f = 0;
  if (reads_rs1(in)) f |= iflag::kReadsRs1;
  if (reads_rs2(in)) f |= iflag::kReadsRs2;
  if (reads_rd(in)) f |= iflag::kReadsRd;
  if (writes_rd(in)) f |= iflag::kWritesRd;
  if (is_load(in.op)) f |= iflag::kIsLoad;
  if (is_store(in.op)) f |= iflag::kIsStore;
  if (load_is_signed(in.op)) f |= iflag::kLoadSigned;
  if (mem_is_post_inc(in.op)) f |= iflag::kMemPostInc;
  if (mem_is_reg_offset(in.op)) f |= iflag::kMemRegOff;
  switch (in.op) {
    case Mnemonic::kPvSdotup:
      f |= iflag::kDotAccum;
      break;
    case Mnemonic::kPvDotusp:
      f |= iflag::kDotSignedB;
      break;
    case Mnemonic::kPvSdotusp:
      f |= iflag::kDotAccum | iflag::kDotSignedB;
      break;
    case Mnemonic::kPvDotsp:
      f |= iflag::kDotSignedA | iflag::kDotSignedB;
      break;
    case Mnemonic::kPvSdotsp:
      f |= iflag::kDotAccum | iflag::kDotSignedA | iflag::kDotSignedB;
      break;
    case Mnemonic::kPvMldotup:
      f |= iflag::kDotMixed;
      break;
    case Mnemonic::kPvMldotusp:
      f |= iflag::kDotMixed | iflag::kDotSignedB;
      break;
    case Mnemonic::kPvMldotsp:
      f |= iflag::kDotMixed | iflag::kDotSignedA | iflag::kDotSignedB;
      break;
    case Mnemonic::kPvMlsdotup:
      f |= iflag::kDotMixed | iflag::kDotAccum;
      break;
    case Mnemonic::kPvMlsdotusp:
      f |= iflag::kDotMixed | iflag::kDotAccum | iflag::kDotSignedB;
      break;
    case Mnemonic::kPvMlsdotsp:
      f |= iflag::kDotMixed | iflag::kDotAccum | iflag::kDotSignedA |
           iflag::kDotSignedB;
      break;
    default:
      break;
  }

  const ExecClass cls = classify(in.op);
  switch (cls) {
    case ExecClass::kHwloop:
      f |= iflag::kNeedXpulpV2 | iflag::kNeedHwloops;
      break;
    case ExecClass::kPulpScalar:
      f |= iflag::kNeedXpulpV2;
      break;
    case ExecClass::kBranchJump:
      if (in.op == Mnemonic::kPBeqimm || in.op == Mnemonic::kPBneimm) {
        f |= iflag::kNeedXpulpV2;
      }
      break;
    case ExecClass::kMem:
      if (!mem_is_base_rv32i(in.op)) f |= iflag::kNeedXpulpV2;
      break;
    default:
      if (exec_class_is_simd(cls)) {
        f |= iflag::kNeedXpulpV2;
        // Mixed dot products have fmt == kNone (widths live in the mpc
        // CSR) but are sub-byte capable, so they need XpulpNN outright.
        if (simd_is_subbyte(in.fmt) || in.op == Mnemonic::kPvQnt ||
            (f & iflag::kDotMixed)) {
          f |= iflag::kNeedXpulpNN;
        }
      }
      break;
  }

  in.flags = f;
  in.cls = cls;
  in.mem_size = static_cast<u8>(mem_access_size(in.op));
}

}  // namespace xpulp::isa
