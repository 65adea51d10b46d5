#include "analysis/isa_audit.hpp"

#include <sstream>

#include "common/error.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "isa/instruction.hpp"
#include "isa/isa_table.hpp"

namespace xpulp::analysis {

namespace {

using isa::Instr;
using isa::IsaTableEntry;
using isa::Mnemonic;
namespace iflag = isa::iflag;

std::string hex32(u32 w) {
  std::ostringstream os;
  os << "0x" << std::hex << w;
  return os.str();
}

std::string entry_name(const IsaTableEntry& e) {
  return std::string(isa::mnemonic_name(e.op)) +
         std::string(isa::simd_fmt_suffix(e.fmt));
}

/// Compare the operand fields two decodes agree on, consulting the
/// expected instruction's flags: a field is only architecturally
/// meaningful when the instruction reads or writes it (e.g. the raw rs2
/// field of `ebreak` is bit 20 of the fixed word, not an operand).
std::string compare_operands(const Instr& want, const Instr& got) {
  std::ostringstream os;
  if ((want.has(iflag::kWritesRd) || want.has(iflag::kReadsRd)) &&
      want.rd != got.rd) {
    os << " rd " << +want.rd << " != " << +got.rd;
  }
  if (want.has(iflag::kReadsRs1) && want.rs1 != got.rs1) {
    os << " rs1 " << +want.rs1 << " != " << +got.rs1;
  }
  if (want.has(iflag::kReadsRs2) && want.rs2 != got.rs2) {
    os << " rs2 " << +want.rs2 << " != " << +got.rs2;
  }
  return os.str();
}

}  // namespace

void AuditResult::merge(const AuditResult& o) {
  failures.insert(failures.end(), o.failures.begin(), o.failures.end());
  checked += o.checked;
}

AuditResult audit_table_disjoint() {
  AuditResult r;
  const auto& table = isa::isa_table();
  for (size_t a = 0; a < table.size(); ++a) {
    for (size_t b = a + 1; b < table.size(); ++b) {
      ++r.checked;
      // Two fixed patterns overlap iff they agree on every bit both
      // masks constrain.
      const u32 both = table[a].mask & table[b].mask;
      if (((table[a].match ^ table[b].match) & both) == 0) {
        r.failures.push_back("entries " + entry_name(table[a]) + " and " +
                             entry_name(table[b]) +
                             " overlap: no constrained bit separates them");
      }
    }
  }
  return r;
}

AuditResult audit_table_roundtrip() {
  AuditResult r;
  constexpr addr_t kPc = 0x1000;
  for (const IsaTableEntry& e : isa::isa_table()) {
    for (const Instr& sample : isa::canonical_samples(e)) {
      ++r.checked;
      const std::string name = entry_name(e);
      u32 w = 0;
      try {
        w = isa::encode(sample);
      } catch (const AsmError& err) {
        r.failures.push_back(name + ": sample does not encode: " + err.what());
        continue;
      }
      if ((w & e.mask) != e.match) {
        r.failures.push_back(name + ": encoded word " + hex32(w) +
                             " does not satisfy the entry's (mask, match)");
        continue;
      }
      Instr d;
      try {
        d = isa::decode(w, kPc);
      } catch (const IllegalInstruction&) {
        r.failures.push_back(name + ": encoded word " + hex32(w) +
                             " does not decode");
        continue;
      }
      if (d.op != sample.op || d.fmt != sample.fmt) {
        r.failures.push_back(name + ": word " + hex32(w) +
                             " decodes to a different mnemonic/format");
        continue;
      }
      const std::string fields = compare_operands(sample, d);
      if (!fields.empty()) {
        r.failures.push_back(name + ": operand mismatch after decode:" +
                             fields);
      }
      if (d.imm != sample.imm || d.imm2 != sample.imm2) {
        r.failures.push_back(name + ": immediate mismatch after decode (" +
                             std::to_string(sample.imm) + "/" +
                             std::to_string(sample.imm2) + " vs " +
                             std::to_string(d.imm) + "/" +
                             std::to_string(d.imm2) + ")");
      }
      u32 w2 = 0;
      try {
        w2 = isa::encode(d);
      } catch (const AsmError& err) {
        r.failures.push_back(name + ": decoded form does not re-encode: " +
                             err.what());
        continue;
      }
      if (w2 != w) {
        r.failures.push_back(name + ": re-encode not bit-identical (" +
                             hex32(w) + " vs " + hex32(w2) + ")");
      }
      if (isa::disassemble(d, kPc).empty()) {
        r.failures.push_back(name + ": disassembles to empty text");
      }
      // A canonical word must match exactly one table entry — its own.
      const IsaTableEntry* found = isa::isa_table_lookup(d.op, d.fmt);
      if (found == nullptr) {
        r.failures.push_back(name + ": decode is absent from the table");
      }
    }
  }
  return r;
}

AuditResult audit_compressed_space() {
  AuditResult r;
  constexpr addr_t kPc = 0x1000;
  for (u32 v = 0; v <= 0xffffu; ++v) {
    if ((v & 3u) == 3u) continue;  // 32-bit parcel, not RVC space
    ++r.checked;
    Instr d;
    try {
      d = isa::decode_compressed(static_cast<u16>(v), kPc);
    } catch (const IllegalInstruction&) {
      continue;  // rejecting is a valid answer; legality is spot-checked
                 // by the positive expansion tests
    }
    const std::string name = "parcel " + hex32(v);
    if (d.size != 2) {
      r.failures.push_back(name + ": expansion has size " +
                           std::to_string(d.size));
      continue;
    }
    // The expansion must be expressible as a canonical 32-bit
    // instruction that decodes back to the same operation.
    u32 w = 0;
    try {
      w = isa::encode(d);
    } catch (const AsmError& err) {
      r.failures.push_back(name + ": expansion does not encode: " +
                           err.what());
      continue;
    }
    Instr d32;
    try {
      d32 = isa::decode(w, kPc);
    } catch (const IllegalInstruction&) {
      r.failures.push_back(name + ": expansion word " + hex32(w) +
                           " does not decode");
      continue;
    }
    if (d32.op != d.op || d32.fmt != d.fmt) {
      r.failures.push_back(name + ": expansion and 32-bit decode disagree "
                                  "on the mnemonic");
      continue;
    }
    std::string fields = compare_operands(d, d32);
    if (!fields.empty()) {
      r.failures.push_back(name + ": operand mismatch vs 32-bit decode:" +
                           fields);
    }
    // ecall/ebreak keep raw field bits in the decoded record; their
    // immediates are not operands.
    if (d.op != Mnemonic::kEcall && d.op != Mnemonic::kEbreak &&
        (d32.imm != d.imm || d32.imm2 != d.imm2)) {
      r.failures.push_back(name + ": immediate mismatch vs 32-bit decode");
    }
  }
  return r;
}

std::vector<u32> illegal_encoding_bank() {
  std::vector<u32> bank;
  const auto word = [&bank](u32 opcode, u32 funct3 = 0, u32 funct7 = 0,
                            u32 rs2 = 0) {
    bank.push_back(opcode | (funct3 << 12) | (rs2 << 20) | (funct7 << 25));
  };

  // Major opcodes this core does not implement (F/D, AMO, RV64 spaces...).
  for (const u32 opc : {0x07u, 0x1bu, 0x27u, 0x2fu, 0x3bu, 0x47u, 0x4bu,
                        0x53u, 0x6bu, 0x77u, 0x7fu}) {
    word(opc);
  }

  // Reserved funct3 of the load/store spaces (standard and post-inc).
  for (const u32 f3 : {3u, 6u, 7u}) word(isa::kOpLoad, f3);
  for (const u32 f3 : {3u, 6u, 7u}) word(isa::kOpPulpLoadPost, f3);
  for (const u32 f3 : {3u, 5u, 7u}) word(isa::kOpStore, f3);
  for (const u32 f3 : {3u, 4u}) word(isa::kOpPulpStorePost, f3);

  // OP-IMM: shifts with nonzero/unknown funct7.
  word(isa::kOpOpImm, 1, 0x01);  // slli, funct7 != 0
  word(isa::kOpOpImm, 1, 0x20);
  word(isa::kOpOpImm, 5, 0x10);  // sr?i, funct7 not 0x00/0x20

  // OP: funct7 outside {0x00, 0x01, 0x20}, and 0x20 with a funct3 that
  // has no sub/sra assignment.
  word(isa::kOpOp, 0, 0x05);
  word(isa::kOpOp, 7, 0x20);
  word(isa::kOpOp, 1, 0x20);

  // JALR with a reserved funct3.
  word(isa::kOpJalr, 2);

  // SYSTEM: funct3 0 words other than ecall/ebreak; reserved funct3 4.
  word(isa::kOpSystem, 0, 0, 2);       // imm = 2 (uret slot, unsupported)
  bank.push_back(0x00000073u | (1u << 7));  // ecall with rd != 0
  word(isa::kOpSystem, 4);

  // PULP scalar space: reserved funct3, bad size codes, reserved ALU
  // funct7, bit-manipulation fields.
  word(isa::kOpPulpScalar, 5);
  word(isa::kOpPulpScalar, isa::kScalarLoadPostReg, 5);    // size code 5
  word(isa::kOpPulpScalar, isa::kScalarLoadRegReg, 0x7f);
  word(isa::kOpPulpScalar, isa::kScalarStorePostReg, 3);   // no p.sbu store
  word(isa::kOpPulpScalar, isa::kScalarStoreRegReg, 4);
  word(isa::kOpPulpScalar, isa::kScalarAlu, 18);           // past kMsu
  word(isa::kOpPulpScalar, isa::kScalarAlu, 0x7f);
  // p.extract with Is2 + Is3 + 1 > 32 (field runs past bit 31).
  word(isa::kOpPulpScalar, isa::kScalarBitmanipA, 31, 8);
  // Bit-manipulation group B op2 != 0 (only bset is assigned).
  word(isa::kOpPulpScalar, isa::kScalarBitmanipB, 1u << 5);

  // Hardware loops: reserved funct3.
  word(isa::kOpPulpHwloop, 6);
  word(isa::kOpPulpHwloop, 7);

  // SIMD: funct7 holes and per-op format restrictions.
  for (const u32 f7 : {15u, 30u, 31u, 36u, 0x7fu}) word(isa::kOpPulpSimd, 0, f7);
  // Mixed virtual dots carry no static format: any nonzero funct3 is a
  // reserved form, for every member of the family.
  for (const u32 f7 : {27u, 28u, 29u, 33u, 34u, 35u}) {
    word(isa::kOpPulpSimd, 1, f7);
    word(isa::kOpPulpSimd, 6, f7);
  }
  constexpr u32 kQnt = static_cast<u32>(isa::SimdFunct7::kQnt);
  word(isa::kOpPulpSimd, 0, kQnt);  // pv.qnt.b: not a sub-byte format
  word(isa::kOpPulpSimd, 5, kQnt);  // pv.qnt.n.sc: no scalar replication
  constexpr u32 kElem = static_cast<u32>(isa::SimdFunct7::kElemExtract);
  word(isa::kOpPulpSimd, 4, kElem);  // pv.extract.n: b/h only
  word(isa::kOpPulpSimd, 1, kElem);  // pv.extract.b.sc
  word(isa::kOpPulpSimd, 0, kElem, 4);  // pv.extract.b lane 4 of 4
  word(isa::kOpPulpSimd, 2, kElem, 2);  // pv.extract.h lane 2 of 2
  constexpr u32 kPack = static_cast<u32>(isa::SimdFunct7::kPack);
  word(isa::kOpPulpSimd, 0, kPack);  // pv.pack.b: h only
  constexpr u32 kShuffle = static_cast<u32>(isa::SimdFunct7::kShuffle);
  word(isa::kOpPulpSimd, 4, kShuffle);  // pv.shuffle.n: b/h only

  return bank;
}

std::vector<u16> illegal_compressed_bank() {
  return {
      0x0000,  // all-zero parcel (defined illegal by the RVC spec)
      0x8000,  // quadrant 0 funct3 100 (reserved)
      0x6101,  // c.addi16sp with imm = 0 (reserved)
      0x6001,  // c.lui x0-adjacent form with imm = 0
      0x9c01,  // quadrant 1 RV64-only arithmetic (c.subw space)
      0x4002,  // c.lwsp with rd = x0 (reserved)
      0x8002,  // c.jr with rs1 = x0 (reserved)
  };
}

AuditResult audit_illegal_bank() {
  AuditResult r;
  constexpr addr_t kPc = 0x1000;
  for (const u32 w : illegal_encoding_bank()) {
    ++r.checked;
    try {
      const Instr d = isa::decode(w, kPc);
      r.failures.push_back("illegal word " + hex32(w) +
                           " unexpectedly decodes as " +
                           std::string(isa::mnemonic_name(d.op)));
    } catch (const IllegalInstruction&) {
    }
  }
  for (const u16 v : illegal_compressed_bank()) {
    ++r.checked;
    try {
      const Instr d = isa::decode_compressed(v, kPc);
      r.failures.push_back("illegal parcel " + hex32(v) +
                           " unexpectedly decodes as " +
                           std::string(isa::mnemonic_name(d.op)));
    } catch (const IllegalInstruction&) {
    }
  }
  return r;
}

AuditResult audit_isa_encoding_space() {
  AuditResult r;
  r.merge(audit_table_disjoint());
  r.merge(audit_table_roundtrip());
  r.merge(audit_compressed_space());
  r.merge(audit_illegal_bank());
  return r;
}

}  // namespace xpulp::analysis
