// Encoding-space audit as a test-suite gate: the declarative ISA table
// must be pairwise non-overlapping and round-trip exact through the
// encoder/decoder/disassembler built on it, the full 16-bit compressed
// space must decode or reject cleanly, and every generated illegal
// encoding must trap both in the decoder and on a live core.
#include <gtest/gtest.h>

#include "analysis/isa_audit.hpp"
#include "common/error.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "isa/isa_table.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "xasm/text_asm.hpp"

namespace xpulp::analysis {
namespace {

void expect_ok(const AuditResult& r) {
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
  EXPECT_TRUE(r.ok());
}

TEST(IsaAudit, TableEntriesPairwiseDisjoint) {
  const AuditResult r = audit_table_disjoint();
  expect_ok(r);
  // ~240 entries -> tens of thousands of pairs actually examined.
  EXPECT_GT(r.checked, 20'000u);
}

TEST(IsaAudit, EverySampleRoundTripsBitIdentically) {
  const AuditResult r = audit_table_roundtrip();
  expect_ok(r);
  EXPECT_GT(r.checked, 500u);  // >= 3 operand-varied samples per entry
}

TEST(IsaAudit, CompressedSpaceSweptExhaustively) {
  const AuditResult r = audit_compressed_space();
  expect_ok(r);
  // All 16-bit parcels with a compressed quadrant: 3 * 2^14.
  EXPECT_EQ(r.checked, 3u * 16384u);
}

TEST(IsaAudit, IllegalBankRejectedByDecoder) {
  const AuditResult r = audit_illegal_bank();
  expect_ok(r);
  EXPECT_GT(r.checked, 30u);
}

TEST(IsaAudit, CombinedAuditPasses) {
  const AuditResult r = audit_isa_encoding_space();
  expect_ok(r);
  EXPECT_GT(r.checked, 60'000u);
}

TEST(IsaAudit, EveryTableEntryHasLookup) {
  for (const isa::IsaTableEntry& e : isa::isa_table()) {
    const isa::IsaTableEntry* found = isa::isa_table_lookup(e.op, e.fmt);
    ASSERT_NE(found, nullptr) << isa::mnemonic_name(e.op);
    EXPECT_EQ(found->mask, e.mask);
    EXPECT_EQ(found->match, e.match);
  }
}

// Negative-decode bank on a live core: each generated illegal word must
// raise IllegalInstruction when fetched and executed, not just when fed to
// the decoder in isolation.
TEST(IsaAudit, IllegalBankTrapsOnLiveCore) {
  mem::Memory mem(64 * 1024);
  for (const u32 w : illegal_encoding_bank()) {
    mem.store_u32(0, w);
    mem.store_u32(4, 0x00000073);  // ecall, never reached
    sim::Core core(mem, sim::CoreConfig::extended());
    core.reset(0);
    EXPECT_THROW(core.run(2), IllegalInstruction) << std::hex << w;
  }
}

TEST(IsaAudit, IllegalCompressedBankRejected) {
  for (const u16 w : illegal_compressed_bank()) {
    ASSERT_TRUE(isa::is_compressed(w)) << std::hex << w;
    EXPECT_THROW(isa::decode_compressed(w, 0), IllegalInstruction)
        << std::hex << w;
  }
}

// Property over the whole table: encoder -> decoder -> disassembler ->
// text assembler is the identity on canonical words, for every entry but
// control flow (its text carries absolute target addresses; the source
// form takes labels, exercised by test_text_asm) and fence (a nop in text).
TEST(IsaAudit, TableSamplesSurviveTextAssemblerRoundTrip) {
  using S = isa::EncShape;
  int checked = 0;
  for (const isa::IsaTableEntry& e : isa::isa_table()) {
    switch (e.shape) {
      case S::kJ: case S::kB: case S::kBImm5:
      case S::kHwBound: case S::kHwSetup: case S::kHwSetupi:
        continue;
      default:
        break;
    }
    if (e.op == isa::Mnemonic::kFence) continue;
    for (const isa::Instr& sample : isa::canonical_samples(e)) {
      const u32 w = isa::encode(sample);
      const isa::Instr in = isa::decode(w, 0);
      const std::string text = isa::disassemble(in, 0);
      SCOPED_TRACE(text);
      xasm::Program p(0, {});
      ASSERT_NO_THROW(p = xasm::assemble_text(text + "\n"));
      ASSERT_EQ(p.size_words(), 1u);
      EXPECT_EQ(p.words()[0], w);
      ++checked;
    }
  }
  EXPECT_GT(checked, 800);
}

}  // namespace
}  // namespace xpulp::analysis
