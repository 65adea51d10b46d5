// PerfCounters self-consistency: on any workload the cycle counter must
// decompose exactly into instructions + the per-cause stall counters, and
// the instruction counter into the per-class counters. Checked across ISA
// levels (RV32IM GP code, XpulpV2 8-bit conv, XpulpNN sub-byte conv) on
// both dispatch paths, so a counter forgotten by a new handler fails here
// rather than silently skewing benches.
#include <gtest/gtest.h>

#include "kernels/conv_layer.hpp"
#include "kernels/gp_workload.hpp"
#include "sim/core.hpp"

namespace xpulp {
namespace {

using kernels::ConvVariant;
using qnn::ConvSpec;

ConvSpec spec(unsigned bits, int h, int w, int cin, int cout) {
  ConvSpec s;
  s.in_h = h;
  s.in_w = w;
  s.in_c = cin;
  s.out_c = cout;
  s.in_bits = s.w_bits = s.out_bits = bits;
  return s;
}

void expect_consistent(const sim::PerfCounters& p, const std::string& what) {
  const std::string v = sim::perf_invariant_violation(p);
  EXPECT_TRUE(v.empty()) << what << ": " << v;
  EXPECT_EQ(p.cycles, p.instructions + sim::perf_stall_cycles(p)) << what;
  EXPECT_EQ(p.instructions, sim::perf_class_ops(p)) << what;
}

/// The reference interpreter or the plain fast path (superblock off).
sim::CoreConfig with_dispatch(sim::CoreConfig cfg, bool reference) {
  cfg.reference_dispatch = reference;
  cfg.superblock = false;
  return cfg;
}

class PerfInvariants : public ::testing::TestWithParam<bool> {};

TEST_P(PerfInvariants, Rv32imGpWorkload) {
  // The GP workload is pure RV32IM code (no SIMD, no hwloops taken).
  const auto w = kernels::make_gp_workload();
  const auto res = kernels::run_gp_workload(
      w, with_dispatch(sim::CoreConfig::ri5cy(), GetParam()));
  EXPECT_EQ(res.checksum, w.expected_checksum);
  expect_consistent(res.perf, "gp/rv32im");
}

TEST_P(PerfInvariants, XpulpV2Conv8b) {
  const auto s = spec(8, 6, 6, 8, 4);
  const auto data = kernels::ConvLayerData::random(s, 7);
  const auto res = kernels::run_conv_layer(
      data, ConvVariant::kXpulpV2_8b,
      with_dispatch(sim::CoreConfig::ri5cy(), GetParam()));
  EXPECT_EQ(res.output, data.golden());
  expect_consistent(res.perf, "conv8b/xpulpv2");
}

TEST_P(PerfInvariants, XpulpV2SubByteConv) {
  // Software sub-byte unpacking kernel: heavy on extract/insert ALU ops.
  const auto s = spec(4, 6, 6, 16, 8);
  const auto data = kernels::ConvLayerData::random(s, 7);
  const auto res = kernels::run_conv_layer(
      data, ConvVariant::kXpulpV2_Sub,
      with_dispatch(sim::CoreConfig::ri5cy(), GetParam()));
  EXPECT_EQ(res.output, data.golden());
  expect_consistent(res.perf, "conv4b/xpulpv2-sub");
}

TEST_P(PerfInvariants, XpulpNNConv4b) {
  // Exercises nibble dotp, pv.qnt multi-cycle stalls and hardware loops.
  const auto s = spec(4, 6, 6, 16, 8);
  const auto data = kernels::ConvLayerData::random(s, 7);
  const auto res = kernels::run_conv_layer(
      data, ConvVariant::kXpulpNN_HwQ,
      with_dispatch(sim::CoreConfig::extended(), GetParam()));
  EXPECT_EQ(res.output, data.golden());
  EXPECT_GT(res.perf.qnt_ops, 0u);
  EXPECT_GT(res.perf.qnt_stall_cycles, 0u);
  expect_consistent(res.perf, "conv4b/xpulpnn-hwq");
}

TEST_P(PerfInvariants, XpulpNNConv2b) {
  const auto s = spec(2, 6, 6, 16, 8);
  const auto data = kernels::ConvLayerData::random(s, 7);
  const auto res = kernels::run_conv_layer(
      data, ConvVariant::kXpulpNN_SwQ,
      with_dispatch(sim::CoreConfig::extended(), GetParam()));
  EXPECT_EQ(res.output, data.golden());
  expect_consistent(res.perf, "conv2b/xpulpnn-swq");
}

INSTANTIATE_TEST_SUITE_P(Dispatch, PerfInvariants, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& i) {
                           return i.param ? "reference" : "fast";
                         });

TEST(PerfInvariantsNegative, CorruptedCountersAreReported) {
  const auto w = kernels::make_gp_workload();
  auto res = kernels::run_gp_workload(w, sim::CoreConfig::extended());

  sim::PerfCounters p = res.perf;
  p.cycles += 1;  // phantom cycle no stall cause explains
  EXPECT_NE(sim::perf_invariant_violation(p).find("cycles"),
            std::string::npos);

  p = res.perf;
  p.loads += 3;  // class sum no longer matches the instruction count
  EXPECT_FALSE(sim::perf_invariant_violation(p).empty());

  p = res.perf;
  p.mac_ops = p.mul_ops + p.scalar_alu_ops + 1;  // not a subset any more
  EXPECT_FALSE(sim::perf_invariant_violation(p).empty());
}

}  // namespace
}  // namespace xpulp
