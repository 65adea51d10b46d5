// Regression gate for the paper's headline claims, evaluated on the actual
// benchmark layer (16x16x32 input, 64 3x3x32 filters). If a refactor moves
// any reproduced number out of its accepted band, this suite fails --
// keeping EXPERIMENTS.md honest. Bands are centered on the paper's values
// with room for the model-vs-RTL differences documented there.
#include <gtest/gtest.h>

#include "bench_util.hpp"
#include "cluster/parallel_conv.hpp"

namespace xpulp {
namespace {

using bench::PlatformResult;
using bench::ratio;
using kernels::ConvLayerData;
using kernels::ConvVariant;

// bench_paper's runs, shared by all claims in this process: each
// configuration a claim reads is simulated once, on first use.
bench::PaperRuns& runs() {
  static bench::PaperRuns r;
  return r;
}

const PlatformResult& checked(const PlatformResult& r) {
  EXPECT_TRUE(r.output_ok) << r.platform << " " << r.bits << "-bit";
  return r;
}

// The paper's kernels: on the extended core, on the baseline RI5CY and
// with software-tree quantization on the extended core.
const PlatformResult& ext(unsigned bits) {
  return checked(runs().conv(
      bits, bits == 8 ? ConvVariant::kXpulpV2_8b : ConvVariant::kXpulpNN_HwQ,
      sim::CoreConfig::extended()));
}
const PlatformResult& base(unsigned bits) {
  return checked(runs().conv(
      bits, bits == 8 ? ConvVariant::kXpulpV2_8b : ConvVariant::kXpulpV2_Sub,
      sim::CoreConfig::ri5cy()));
}
const PlatformResult& swq(unsigned bits) {
  return checked(runs().conv(bits, ConvVariant::kXpulpNN_SwQ,
                             sim::CoreConfig::extended()));
}

TEST(PaperClaims, SubByteKernelSpeedupVsRi5cy) {
  // Paper: 5.3x (4-bit) and 8.9x (2-bit).
  EXPECT_NEAR(ratio(base(4).cycles, ext(4).cycles), 5.3, 0.5);
  EXPECT_NEAR(ratio(base(2).cycles, ext(2).cycles), 8.9, 0.9);
}

TEST(PaperClaims, PvQntKernelSpeedup) {
  // Paper: 1.21x (4-bit) and 1.16x (2-bit).
  EXPECT_NEAR(ratio(swq(4).cycles, ext(4).cycles), 1.21, 0.10);
  EXPECT_NEAR(ratio(swq(2).cycles, ext(2).cycles), 1.16, 0.08);
}

TEST(PaperClaims, NearLinearSubByteScaling) {
  // Paper Fig. 6: "almost linear" scaling vs the 8-bit kernel.
  EXPECT_GT(ratio(ext(8).cycles, ext(4).cycles), 1.6);
  EXPECT_LE(ratio(ext(8).cycles, ext(4).cycles), 2.0);
  EXPECT_GT(ratio(ext(8).cycles, ext(2).cycles), 3.0);
  EXPECT_LE(ratio(ext(8).cycles, ext(2).cycles), 4.0);
}

TEST(PaperClaims, EnergyEfficiencyGainAndPeak) {
  // Paper: up to 9x vs the baseline, peak 279 GMAC/s/W, 8-bit unchanged.
  EXPECT_NEAR(ext(2).gmac_s_w() / base(2).gmac_s_w(), 9.0, 1.0);
  EXPECT_NEAR(ext(2).gmac_s_w(), 279.0, 40.0);
  EXPECT_NEAR(ext(8).gmac_s_w() / base(8).gmac_s_w(), 1.0, 0.05);
}

TEST(PaperClaims, OrderOfMagnitudeVsArmMcus) {
  const auto& m4 = checked(runs().arm(2, armv7e::ArmModel::kCortexM4));
  const auto& m7 = checked(runs().arm(2, armv7e::ArmModel::kCortexM7));
  // Cycles: ~an order of magnitude vs the M4, severalfold vs the M7.
  EXPECT_GT(ratio(m4.cycles, ext(2).cycles), 8.0);
  EXPECT_GT(ratio(m7.cycles, ext(2).cycles), 4.0);
  // Efficiency: two orders of magnitude (paper: 103x / 354x).
  EXPECT_GT(ext(2).gmac_s_w() / m4.gmac_s_w(), 100.0);
  EXPECT_GT(ext(2).gmac_s_w() / m7.gmac_s_w(), 250.0);
}

TEST(PaperClaims, AreaAndPowerOverheads) {
  // Paper: 11.1% core area overhead and 5.9% core power overhead (PM).
  const auto t = power::area_table();
  EXPECT_NEAR((t[0].ext_pm_um2 / t[0].ri5cy_um2 - 1) * 100, 11.1, 1.0);
  EXPECT_NEAR(ext(8).power_mw / base(8).power_mw, 1.018, 0.02);  // SoC: +1.8%
}

TEST(PaperClaims, ClusterScalesNearLinearly) {
  // Extension claim recorded in EXPERIMENTS.md: >= 7.3x on 8 cores.
  const auto data = ConvLayerData::random(qnn::ConvSpec::paper_layer(2), 7);
  cluster::ClusterConfig cfg;
  cfg.num_cores = 8;
  const auto par = cluster::run_parallel_conv(
      data, ConvVariant::kXpulpNN_HwQ, cfg);
  EXPECT_EQ(par.output, data.golden());
  EXPECT_GT(ratio(ext(2).cycles, par.stats.makespan), 7.3);
  EXPECT_LT(par.stats.conflict_rate(), 0.10);
}

}  // namespace
}  // namespace xpulp
