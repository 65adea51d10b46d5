// Declarative table of every canonical instruction encoding the simulator
// implements: one (mask, match) pair per mnemonic (per SIMD format for the
// packed ops), plus the entry's encoding shape. The table is the only
// description of the encoding space: encode() packs an entry's operands by
// its shape, decode() finds the entry through an index built from the
// table and unpacks by shape, disassemble() prints by shape and the text
// assembler parses by shape. The auditor in src/analysis proves the
// entries pairwise non-overlapping and every shape's pack/unpack pair
// mutually inverse; the golden-word and digest tests in test_encoding pin
// the table's contents.
//
// "Canonical" means the bit pattern the encoder emits. The decoder is
// deliberately lenient in a few places (ignored rs2 bits of unary ops,
// ignored rd[4:1] and unused fields of hardware loops, any funct3 under
// MISC-MEM): `decode_mask` is the subset of `mask` it checks. Such words
// decode but do not match any entry's (mask, match), which is exactly what
// the analyzer's non-canonical-encoding diagnostic keys off.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace xpulp::isa {

/// Encoding shape of a table entry: which bits carry which operand, the
/// operand syntax in assembly text, and the field constraints. Two entries
/// share a shape only if they share both layout and syntax. `[!]` marks
/// the post-increment base register of the mnemonics ending in '!'; L is
/// the hardware-loop index (x0/x1); targets are labels in source text and
/// absolute addresses in disassembly.
enum class EncShape : u8 {
  kU,         // rd, upper20            imm = upper20 << 12
  kJ,         // rd, target             21-bit even offset
  kI,         // rd, rs1, simm12
  kIAddr,     // rd, simm12(rs1[!])     loads, p.l*!, jalr
  kShift,     // rd, rs1, shamt5        shamt in the rs2 field
  kB,         // rs1, rs2, target       13-bit even offset
  kBImm5,     // rs1, simm5, target     imm5 in the rs2 field (p.beqimm)
  kS,         // rs2, simm12(rs1[!])    stores, p.s*!
  kR,         // rd, rs1, rs2           scalar and pv.* register ops
  kRUnary,    // rd, rs1                rs2 field 0
  kRLoad,     // rd, rs2(rs1[!])        p.l*.r!, p.l*.rr
  kRStore,    // rs2, rd(rs1[!])        p.s*.r!, p.s*.rr (offset reg in rd)
  kClipImm,   // rd, rs1, uimm5         in the rs2 field
  kCsr,       // rd, csr12, rs1
  kCsrImm,    // rd, csr12, uimm5       uimm5 in the rs1 field
  kFixedWord, // no operands            ecall/ebreak/fence
  kBitmanip,  // rd, rs1, Is3, Is2      Is2 in rs2, Is3 in funct7[4:0];
              //                        Is2 + Is3 + 1 <= 32
  kHwBound,   // L, target              lp.starti/lp.endi
  kHwCount,   // L, rs1                 lp.count
  kHwCounti,  // L, uimm12              lp.counti
  kHwSetup,   // L, rs1, target         lp.setup
  kHwSetupi,  // L, uimm5, target       lp.setupi, count in the rs1 field
  kSimdLane,  // rd, rs1, lane          lane < element count, in rs2
  kSimdQnt,   // rd, rs1, (rs2)         pv.qnt, rs2 = threshold base
};

struct IsaTableEntry {
  Mnemonic op = Mnemonic::kInvalid;
  SimdFmt fmt = SimdFmt::kNone;
  EncShape shape = EncShape::kR;
  u32 mask = 0;         // bits fixed in the canonical encoding
  u32 match = 0;        // their values
  u32 decode_mask = 0;  // the subset of `mask` the decoder checks
};

/// The full table: RV32IM + XpulpV2 + XpulpNN, one entry per canonical
/// (mnemonic, format) encoding. Built once, in Mnemonic order.
const std::vector<IsaTableEntry>& isa_table();

/// Operand-varied sample instructions for one entry, each satisfying the
/// entry's field constraints (shift ranges, Is2+Is3+1 <= 32, lane < lane
/// count, even offsets, ...). Used by the round-trip audit and by the
/// encoder->decoder->disassembler property test.
std::vector<Instr> canonical_samples(const IsaTableEntry& e);

/// Entry an instruction encodes through, by op + fmt; nullptr if absent.
/// Scalar mnemonics carry no format field, so their `fmt` is ignored.
/// Constant time (a dense index).
const IsaTableEntry* isa_table_lookup(Mnemonic op, SimdFmt fmt);

}  // namespace xpulp::isa
