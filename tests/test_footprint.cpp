// Footprint analyzer unit tests: the strided-interval lattice, loop
// summarization (hardware loops and counted branch loops), post-loop
// exit-state exactness, and the overlap predicate race.cpp builds on.
#include <gtest/gtest.h>

#include <functional>

#include "analysis/footprint.hpp"
#include "analysis/race.hpp"
#include "kernels/conv_layer.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::analysis {
namespace {

namespace r = xasm::reg;

Footprint run(const std::function<void(xasm::Assembler&)>& body) {
  xasm::Assembler a(0);
  body(a);
  return FootprintAnalyzer().analyze(a.finish());
}

const StridedAccess* find_access(const Footprint& fp, bool is_store,
                                 unsigned size) {
  for (const StridedAccess& acc : fp.accesses) {
    if (acc.is_store == is_store && acc.size == size) return &acc;
  }
  return nullptr;
}

StridedAccess acc(bool is_store, unsigned size, AVal a) {
  StridedAccess s;
  s.is_store = is_store;
  s.size = size;
  s.addr = a;
  return s;
}

// ---- AVal lattice ----

TEST(AVal, RangeNormalizesToConst) {
  EXPECT_EQ(AVal::range(8, 8, 4), AVal::constant(8));
  // hi snaps down onto the progression.
  const AVal v = AVal::range(0, 10, 4);
  EXPECT_EQ(v.hi, 8u);
  EXPECT_EQ(v.count(), 3u);
}

TEST(AVal, JoinOfConstsMakesStride) {
  const AVal j = aval_join(AVal::constant(0x100), AVal::constant(0x118));
  EXPECT_EQ(j.kind, AVal::kRange);
  EXPECT_EQ(j.lo, 0x100u);
  EXPECT_EQ(j.hi, 0x118u);
  EXPECT_EQ(j.stride, 0x18u);
}

TEST(AVal, AddTreatsConstAsSignedDisplacement) {
  // range + (-4): the interval shifts down instead of smearing to Top.
  const AVal v = aval_add(AVal::range(0x100, 0x120, 8),
                          AVal::constant(static_cast<u32>(-4)));
  EXPECT_EQ(v, AVal::range(0xfc, 0x11c, 8));
}

TEST(AVal, ShlScalesLoHiStride) {
  EXPECT_EQ(aval_shl(AVal::range(1, 5, 2), 2), AVal::range(4, 20, 8));
}

// ---- hardware-loop summarization ----

TEST(Footprint, HwLoopPostIncrementIsExactStride) {
  const Footprint fp = run([](xasm::Assembler& a) {
    a.li(r::a0, 0x1000);
    const auto end = a.new_label();
    a.lp_setupi(0, 8, end);
    a.p_lw_post(r::a1, r::a0, 4);
    a.addi(r::zero, r::zero, 0);
    a.bind(end);
    a.ecall();
  });
  EXPECT_EQ(fp.loop_count, 1u);
  EXPECT_EQ(fp.unsummarized, 0u);
  const StridedAccess* ld = find_access(fp, /*is_store=*/false, 4);
  ASSERT_NE(ld, nullptr);
  EXPECT_EQ(ld->addr, AVal::range(0x1000, 0x1000 + 7 * 4, 4))
      << ld->addr.to_string();
}

TEST(Footprint, PostLoopPointerIsExactConstant) {
  // After 8 iterations of a += 4 the exit state must be the exact final
  // value, so the post-loop store footprint is a single word.
  const Footprint fp = run([](xasm::Assembler& a) {
    a.li(r::a0, 0x1000);
    a.li(r::a2, 7);
    const auto end = a.new_label();
    a.lp_setupi(0, 8, end);
    a.p_lw_post(r::a1, r::a0, 4);
    a.addi(r::zero, r::zero, 0);
    a.bind(end);
    a.sw(r::a2, r::a0, 0);
    a.ecall();
  });
  const StridedAccess* st = find_access(fp, /*is_store=*/true, 4);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->addr, AVal::constant(0x1000 + 8 * 4)) << st->addr.to_string();
}

TEST(Footprint, NestedHwLoopsCompose) {
  // Outer loop strides rows (16 bytes), inner strides words: the inner
  // load footprint is the full dense 4x4 word block.
  const Footprint fp = run([](xasm::Assembler& a) {
    a.li(r::a0, 0x2000);
    const auto oend = a.new_label();
    const auto iend = a.new_label();
    a.lp_setupi(1, 4, oend);
    a.lp_setupi(0, 4, iend);
    a.p_lw_post(r::a1, r::a0, 4);
    a.addi(r::zero, r::zero, 0);
    a.bind(iend);
    a.addi(r::zero, r::zero, 0);
    a.bind(oend);
    a.ecall();
  });
  EXPECT_EQ(fp.loop_count, 2u);
  EXPECT_EQ(fp.unsummarized, 0u);
  const StridedAccess* ld = find_access(fp, /*is_store=*/false, 4);
  ASSERT_NE(ld, nullptr);
  EXPECT_EQ(ld->addr, AVal::range(0x2000, 0x2000 + 15 * 4, 4))
      << ld->addr.to_string();
}

// ---- counted branch-loop summarization ----

TEST(Footprint, CountedBranchLoopIsExact) {
  const Footprint fp = run([](xasm::Assembler& a) {
    a.li(r::a0, 0x3000);
    a.li(r::a2, 6);  // counter
    const auto head = a.here();
    a.p_sw_post(r::zero, r::a0, 8);
    a.addi(r::a2, r::a2, -1);
    a.bne(r::a2, r::zero, head);
    a.ecall();
  });
  EXPECT_EQ(fp.loop_count, 1u);
  EXPECT_EQ(fp.unsummarized, 0u);
  const StridedAccess* st = find_access(fp, /*is_store=*/true, 4);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->addr, AVal::range(0x3000, 0x3000 + 5 * 8, 8))
      << st->addr.to_string();
}

TEST(Footprint, UnboundedAddressIsUnprovableNotWrong) {
  // A pointer loaded from memory is Top; the analyzer must refuse to
  // bound that access, not guess.
  const Footprint fp = run([](xasm::Assembler& a) {
    a.li(r::a0, 0x1000);
    a.lw(r::a1, r::a0, 0);
    a.sw(r::a0, r::a1, 0);  // store through unknown pointer
    a.ecall();
  });
  EXPECT_EQ(fp.unprovable(), 1u);
}

// ---- generated kernels: the acceptance property ----

TEST(Footprint, GeneratedConvKernelFullyProvable) {
  const auto k = kernels::generate_conv_kernel(
      qnn::ConvSpec::small_layer(4), kernels::ConvVariant::kXpulpNN_HwQ,
      0x40000);
  const Footprint fp = FootprintAnalyzer().analyze(k.program);
  EXPECT_EQ(fp.unprovable(), 0u);
  EXPECT_EQ(fp.unsummarized, 0u);
  EXPECT_GT(fp.loop_count, 0u);
  EXPECT_GT(fp.writes(), 0u);
}

// ---- overlap predicate ----

TEST(Overlap, DenseDense) {
  AddrRange ov{};
  EXPECT_TRUE(accesses_overlap(acc(true, 4, AVal::constant(0x100)),
                               acc(false, 4, AVal::constant(0x102)), &ov));
  EXPECT_EQ(ov.begin, 0x102u);
  EXPECT_EQ(ov.end, 0x104u);
  EXPECT_FALSE(accesses_overlap(acc(true, 4, AVal::constant(0x100)),
                                acc(false, 4, AVal::constant(0x104)), &ov));
}

TEST(Overlap, DenseVsStridedIsExact) {
  // Stride-8 byte stores at 0x100, 0x108, ...; a word at 0x104 falls in
  // a gap and must NOT count as overlap.
  const StridedAccess sparse = acc(true, 1, AVal::range(0x100, 0x140, 8));
  EXPECT_FALSE(
      accesses_overlap(sparse, acc(false, 4, AVal::constant(0x104)), nullptr));
  EXPECT_TRUE(
      accesses_overlap(sparse, acc(false, 4, AVal::constant(0x106)), nullptr));
}

TEST(Overlap, InterleavedStridesDisjoint) {
  // Two word streams, stride 8, offset by 4: perfectly interleaved,
  // never colliding — the gcd-phase test must prove it.
  EXPECT_FALSE(accesses_overlap(acc(true, 4, AVal::range(0x100, 0x180, 8)),
                                acc(true, 4, AVal::range(0x104, 0x184, 8)),
                                nullptr));
  // Same phase: every element collides.
  EXPECT_TRUE(accesses_overlap(acc(true, 4, AVal::range(0x100, 0x180, 8)),
                               acc(true, 4, AVal::range(0x100, 0x184, 8)),
                               nullptr));
}

TEST(Overlap, BoundingPrefilterRejectsDistantRanges) {
  EXPECT_FALSE(accesses_overlap(acc(true, 4, AVal::range(0x100, 0x180, 8)),
                                acc(true, 4, AVal::range(0x200, 0x280, 8)),
                                nullptr));
}

}  // namespace
}  // namespace xpulp::analysis
