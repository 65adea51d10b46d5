// Fuzz-style robustness tests: random instruction words must either decode
// to a stable instruction or raise IllegalInstruction -- never crash,
// never decode inconsistently. Random programs over the legal instruction
// set must execute without tripping internal invariants.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "sim_test_util.hpp"

namespace xpulp {
namespace {

TEST(FuzzDecoder, RandomWordsDecodeOrThrow) {
  Rng rng(0xf022);
  int decoded = 0, rejected = 0;
  for (int i = 0; i < 200'000; ++i) {
    const u32 w = rng.next_u32();
    try {
      const isa::Instr in = isa::decode(w, 0x100);
      ++decoded;
      // Stability: decoding the same word twice gives identical fields.
      const isa::Instr again = isa::decode(w, 0x100);
      ASSERT_EQ(in.op, again.op);
      ASSERT_EQ(in.rd, again.rd);
      ASSERT_EQ(in.rs1, again.rs1);
      ASSERT_EQ(in.rs2, again.rs2);
      ASSERT_EQ(in.imm, again.imm);
      ASSERT_EQ(in.imm2, again.imm2);
      ASSERT_EQ(in.fmt, again.fmt);
      // The disassembler accepts anything the decoder produces.
      ASSERT_FALSE(isa::disassemble(in, 0x100).empty());
    } catch (const IllegalInstruction&) {
      ++rejected;
    }
  }
  // Both outcomes must actually occur over a large sample.
  EXPECT_GT(decoded, 1000);
  EXPECT_GT(rejected, 1000);
}

void expect_same_decode(const isa::Instr& a, const isa::Instr& b, u32 w) {
  EXPECT_EQ(a.op, b.op) << std::hex << w;
  EXPECT_EQ(a.fmt, b.fmt) << std::hex << w;
  EXPECT_EQ(a.rd, b.rd) << std::hex << w;
  EXPECT_EQ(a.rs1, b.rs1) << std::hex << w;
  EXPECT_EQ(a.rs2, b.rs2) << std::hex << w;
  EXPECT_EQ(a.imm, b.imm) << std::hex << w;
  EXPECT_EQ(a.imm2, b.imm2) << std::hex << w;
  EXPECT_EQ(a.raw, b.raw) << std::hex << w;
  EXPECT_EQ(a.size, b.size) << std::hex << w;
  EXPECT_EQ(a.flags, b.flags) << std::hex << w;
  EXPECT_EQ(a.cls, b.cls) << std::hex << w;
  EXPECT_EQ(a.mem_size, b.mem_size) << std::hex << w;
}

/// decode() and decode_uncached() agree on `w`: the same fields, or the
/// same IllegalInstruction naming the pc of this call.
void expect_memo_matches_fresh(u32 w, addr_t pc) {
  isa::Instr fresh;
  try {
    fresh = isa::decode_uncached(w, pc);
  } catch (const IllegalInstruction&) {
    try {
      isa::decode(w, pc);
      ADD_FAILURE() << "memoized decode accepted illegal " << std::hex << w;
    } catch (const IllegalInstruction& e) {
      EXPECT_EQ(e.pc(), pc) << std::hex << w;
    }
    return;
  }
  expect_same_decode(isa::decode(w, pc), fresh, w);
}

TEST(FuzzDecoder, MemoizedDecodeEqualsFreshDecode) {
  // The fuzz corpus twice over (the second pass is served by the memo
  // wherever the first left a word in its slot), legal and illegal words,
  // 32-bit and compressed, each at a new pc.
  Rng rng(0x3e30);
  std::vector<u32> corpus(60'000);
  for (u32& w : corpus) w = rng.next_u32();
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < corpus.size(); ++i) {
      expect_memo_matches_fresh(corpus[i], static_cast<addr_t>(4 * i + pass));
      if (::testing::Test::HasFailure()) FAIL() << "pass " << pass;
    }
  }
}

TEST(FuzzDecoder, MemoSlotCollisionsRefillExactly) {
  // Find legal words that evict `a` from its memo slot (decoding `a` right
  // after one of them decodes afresh), then alternate them with `a`: every
  // decode still equals the fresh one, a hit decodes nothing afresh and a
  // refill after an eviction does.
  Rng rng(0xc011);
  const auto legal = [&rng] {
    for (;;) {
      const u32 w = rng.next_u32() | 0x3;
      try {
        isa::decode_uncached(w, 0);
        return w;
      } catch (const IllegalInstruction&) {
      }
    }
  };
  const u32 a = legal();
  std::vector<u32> rivals;
  for (int tries = 0; tries < 400'000 && rivals.size() < 3; ++tries) {
    const u32 b = legal();
    if (b == a) continue;
    isa::decode(a, 0);
    isa::decode(b, 0);
    const u64 before = isa::decode_stats().fresh;
    isa::decode(a, 0);
    if (isa::decode_stats().fresh != before) rivals.push_back(b);
  }
  ASSERT_EQ(rivals.size(), 3u);
  for (int round = 0; round < 4; ++round) {
    for (const u32 b : rivals) {
      expect_memo_matches_fresh(b, 0x200);
      const u64 f0 = isa::decode_stats().fresh;
      expect_same_decode(isa::decode(b, 0x204), isa::decode_uncached(b, 0), b);
      EXPECT_EQ(isa::decode_stats().fresh, f0 + 1) << "hit decoded afresh";
      const u64 f1 = isa::decode_stats().fresh;
      expect_same_decode(isa::decode(a, 0x208), isa::decode_uncached(a, 0), a);
      EXPECT_EQ(isa::decode_stats().fresh, f1 + 2) << "evicted word was hit";
    }
  }
}

TEST(FuzzDecoder, DecodeEncodeDecodeIsStable) {
  // For every word the decoder accepts, re-encoding the decoded form and
  // decoding again must land on the same instruction (the encoder may
  // canonicalize don't-care bits, so we compare decoded fields, not raw
  // words).
  Rng rng(0xf0f0);
  int checked = 0;
  for (int i = 0; i < 100'000; ++i) {
    const u32 w = rng.next_u32() | 0x3;  // bias towards 32-bit encodings
    isa::Instr in;
    try {
      in = isa::decode(w, 0);
    } catch (const IllegalInstruction&) {
      continue;
    }
    if (in.size != 4) continue;
    u32 re = 0;
    try {
      re = isa::encode(in);
    } catch (const AsmError&) {
      // Encoder is stricter than the decoder only for fields the decoder
      // ignores (e.g. fence operands); skip those.
      continue;
    }
    // The encoder canonicalizes don't-care fields (e.g. the rs2 slot of a
    // unary op), so the strong property is: canonicalization is a fixed
    // point -- encode(decode(encode(decode(w)))) == encode(decode(w)).
    const isa::Instr out = isa::decode(re, 0);
    ASSERT_EQ(out.op, in.op) << std::hex << w;
    ASSERT_EQ(isa::encode(out), re) << std::hex << w;
    ++checked;
  }
  EXPECT_GT(checked, 5000);
}

TEST(FuzzDecoder, CompressedWordsDecodeOrThrow) {
  Rng rng(0xc0de);
  int decoded = 0, rejected = 0;
  for (int i = 0; i < 100'000; ++i) {
    const u16 w = static_cast<u16>(rng.next_u32());
    if (isa::is_compressed(w)) {
      try {
        const isa::Instr in = isa::decode_compressed(w, 0);
        ASSERT_EQ(in.size, 2u);
        ++decoded;
      } catch (const IllegalInstruction&) {
        ++rejected;
      }
    }
  }
  EXPECT_GT(decoded, 1000);
  EXPECT_GT(rejected, 1000);
}

// Random straight-line programs from a legal-op generator: the simulator
// must execute them without internal faults and with the cycle invariant
// intact (cycles == instructions + accounted stalls).
TEST(FuzzExec, RandomStraightLineProgramsKeepInvariants) {
  Rng rng(0xbeef);
  for (int trial = 0; trial < 40; ++trial) {
    auto res = test::run_program([&](xasm::Assembler& a) {
      // A safe data region pointer.
      a.li(xasm::reg::s0, 0x8000);
      for (int i = 0; i < 200; ++i) {
        // Destinations avoid s0 (x8): it anchors the program's only legal
        // data pointer, and clobbering it would let a random store
        // overwrite code.
        static constexpr u8 kDests[] = {5, 6, 7, 9, 10, 11, 12, 13, 14, 15};
        const u8 rd = kDests[rng.uniform(0, 9)];
        const u8 rs1 = static_cast<u8>(rng.uniform(5, 15));
        const u8 rs2 = kDests[rng.uniform(0, 9)];
        switch (rng.uniform(0, 9)) {
          case 0: a.add(rd, rs1, rs2); break;
          case 1: a.sub(rd, rs1, rs2); break;
          case 2: a.mul(rd, rs1, rs2); break;
          case 3: a.p_max(rd, rs1, rs2); break;
          case 4: a.pv_add(isa::SimdFmt::kN, rd, rs1, rs2); break;
          case 5: a.pv_sdotusp(isa::SimdFmt::kC, rd, rs1, rs2); break;
          case 6: a.lw(rd, xasm::reg::s0, rng.uniform(0, 500) * 4); break;
          case 7: a.sw(rd, xasm::reg::s0, rng.uniform(0, 500) * 4); break;
          case 8: a.p_extractu(rd, rs1, 1 + rng.uniform(0, 7),
                               rng.uniform(0, 24)); break;
          case 9: a.srai(rd, rs1, static_cast<u32>(rng.uniform(0, 31))); break;
        }
      }
    });
    ASSERT_EQ(res.reason, sim::HaltReason::kEcall);
    const auto& p = res.perf;
    ASSERT_EQ(p.cycles, p.instructions + p.branch_stall_cycles +
                            p.load_use_stall_cycles + p.mem_stall_cycles +
                            p.mul_div_stall_cycles + p.qnt_stall_cycles);
  }
}

}  // namespace
}  // namespace xpulp
