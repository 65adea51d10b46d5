#include "isa/disasm.hpp"

#include <array>
#include <sstream>

#include "common/bitops.hpp"
#include "isa/isa_table.hpp"

namespace xpulp::isa {

namespace {

constexpr std::array<std::string_view, 32> kRegNames = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
    "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6"};

std::string hex(u32 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

}  // namespace

std::string_view reg_name(unsigned r) { return kRegNames[r & 31u]; }

std::string disassemble(const Instr& in, addr_t pc) {
  using S = EncShape;
  // Instructions absent from the table print in register form.
  const IsaTableEntry* e = isa_table_lookup(in.op, in.fmt);
  const S shape = e != nullptr ? e->shape : S::kR;
  const auto rd = reg_name(in.rd);
  const auto rs1 = reg_name(in.rs1);
  const auto rs2 = reg_name(in.rs2);
  const auto target = [&] { return hex(pc + static_cast<u32>(in.imm)); };
  const std::string_view close = is_mem_post_increment(in.op) ? "!)" : ")";
  const int loop = in.imm2;

  std::ostringstream os;
  os << mnemonic_name(in.op) << simd_fmt_suffix(e != nullptr ? e->fmt : in.fmt);
  switch (shape) {
    case S::kU:
      os << ' ' << rd << ", " << hex(static_cast<u32>(in.imm) >> 12);
      break;
    case S::kJ:
      os << ' ' << rd << ", " << target();
      break;
    case S::kI:
    case S::kShift:
    case S::kClipImm:
    case S::kSimdLane:
      os << ' ' << rd << ", " << rs1 << ", " << in.imm;
      break;
    case S::kIAddr:
      os << ' ' << rd << ", " << in.imm << '(' << rs1 << close;
      break;
    case S::kB:
      os << ' ' << rs1 << ", " << rs2 << ", " << target();
      break;
    case S::kBImm5:
      os << ' ' << rs1 << ", " << sign_extend(in.imm2, 5) << ", " << target();
      break;
    case S::kS:
      os << ' ' << rs2 << ", " << in.imm << '(' << rs1 << close;
      break;
    case S::kR:
      os << ' ' << rd << ", " << rs1 << ", " << rs2;
      break;
    case S::kRUnary:
      os << ' ' << rd << ", " << rs1;
      break;
    case S::kRLoad:
      os << ' ' << rd << ", " << rs2 << '(' << rs1 << close;
      break;
    case S::kRStore:
      os << ' ' << rs2 << ", " << rd << '(' << rs1 << close;
      break;
    case S::kCsr:
      os << ' ' << rd << ", " << hex(static_cast<u32>(in.imm)) << ", " << rs1;
      break;
    case S::kCsrImm:
      os << ' ' << rd << ", " << hex(static_cast<u32>(in.imm)) << ", "
         << static_cast<int>(in.imm2);
      break;
    case S::kFixedWord:
      break;
    case S::kBitmanip:
      os << ' ' << rd << ", " << rs1 << ", " << static_cast<int>(in.imm2)
         << ", " << in.imm;
      break;
    case S::kHwBound:
      os << " x" << loop << ", " << target();
      break;
    case S::kHwCount:
      os << " x" << loop << ", " << rs1;
      break;
    case S::kHwCounti:
      os << " x" << loop << ", " << in.imm;
      break;
    case S::kHwSetup:
      os << " x" << loop << ", " << rs1 << ", " << target();
      break;
    case S::kHwSetupi:
      os << " x" << loop << ", " << static_cast<int>(in.rs1) << ", "
         << target();
      break;
    case S::kSimdQnt:
      os << ' ' << rd << ", " << rs1 << ", (" << rs2 << ')';
      break;
  }
  return os.str();
}

}  // namespace xpulp::isa
