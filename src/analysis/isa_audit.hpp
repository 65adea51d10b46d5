// Encoding-space auditor over the declarative ISA table in
// src/isa/isa_table.hpp, from which encoder, decoder and disassembler all
// work. It cannot tell a wrong table entry from a right one (the golden
// words in test_encoding pin the table itself); it proves the table and
// the routines built on it are consistent:
//
//   - audit_table_disjoint(): every (mask, match) pair is pairwise
//     non-overlapping — no word can match two table entries;
//   - audit_table_roundtrip(): operand-varied canonical samples of every
//     entry encode to a word matching the entry's (mask, match), decode
//     back to the same mnemonic/operands, re-encode bit-identically, and
//     disassemble to non-empty text — every shape's pack and unpack are
//     mutually inverse and the decode index finds every entry;
//   - audit_compressed_space(): exhaustive sweep of all 3 * 2^14 16-bit
//     parcels — every parcel either raises IllegalInstruction or expands
//     to a 32-bit instruction whose re-encoding decodes equivalently;
//   - illegal_encoding_bank(): generated 32-bit words adjacent to legal
//     encodings (reserved funct fields, bad size codes, out-of-range lane
//     or bit-field operands, unused major opcodes) that must all raise
//     IllegalInstruction; audit_illegal_bank() proves they do.
//
// audit_isa_encoding_space() runs everything; xlint --audit and the
// test suite both call it.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace xpulp::analysis {

struct AuditResult {
  std::vector<std::string> failures;
  size_t checked = 0;  // pairs / samples / words examined

  bool ok() const { return failures.empty(); }
  void merge(const AuditResult& o);
};

AuditResult audit_table_disjoint();
AuditResult audit_table_roundtrip();
AuditResult audit_compressed_space();

/// 32-bit words that must not decode, each one mutation away from a legal
/// encoding. Exported so tests can also feed them through a live core.
std::vector<u32> illegal_encoding_bank();

/// 16-bit parcels that must not decode as compressed instructions.
std::vector<u16> illegal_compressed_bank();

AuditResult audit_illegal_bank();

/// All of the above.
AuditResult audit_isa_encoding_space();

}  // namespace xpulp::analysis
