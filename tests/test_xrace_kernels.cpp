// xrace end-to-end: the static sweep proves every generated parallel
// kernel deployment race-free (zero conflicts, zero unprovable
// footprints) at 1/2/4/8 cores; the shadow phase observes clean runs on
// the cluster and cross-validates; an injected row-overlap deployment is
// caught by BOTH phases at the same pc pair (and, dynamically, at the
// exact conflicting cycle), and the pre-load race gate blocks it.
#include <gtest/gtest.h>

#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/race.hpp"
#include "analysis/shadow.hpp"
#include "cluster/parallel_conv.hpp"

namespace xpulp::analysis {
namespace {

using kernels::ConvGenOptions;
using kernels::ConvKernel;
using kernels::ConvLayerData;
using kernels::ConvVariant;

std::vector<xasm::Program> programs_of(const std::vector<ConvKernel>& ks) {
  std::vector<xasm::Program> ps;
  for (const ConvKernel& k : ks) ps.push_back(k.program);
  return ps;
}

/// Two cores, both generated over ALL output rows: their packed output
/// stores collide byte for byte — the canonical injected race.
std::vector<ConvKernel> overlapping_kernels() {
  const qnn::ConvSpec s = qnn::ConvSpec::small_layer(4);
  std::vector<ConvKernel> ks;
  for (int c = 0; c < 2; ++c) {
    ConvGenOptions o;
    o.code_base = static_cast<addr_t>(c) * 0x4000;
    o.row_begin = 0;
    o.row_end = s.out_h();
    o.buffer_slots = 2;
    o.buffer_slot = c;
    ks.push_back(kernels::generate_conv_kernel(
        s, ConvVariant::kXpulpNN_HwQ, 0x40000, o));
  }
  return ks;
}

// ---- static phase over every generated parallel deployment ----

TEST(XraceStatic, AllParallelKernelDeploymentsProveRaceFree) {
  const auto checks = analyze_parallel_kernels({1, 2, 4, 8});
  ASSERT_GT(checks.size(), 40u);
  for (const RaceCheck& c : checks) {
    EXPECT_TRUE(c.report.clean())
        << c.name << " cores=" << c.cores << "\n" << c.report.to_string();
    EXPECT_EQ(c.report.unprovable.size(), 0u) << c.name;
    for (const Footprint& fp : c.report.footprints) {
      EXPECT_EQ(fp.unsummarized, 0u) << c.name;
    }
  }
  // The matrix must actually span the deployment space.
  bool eight_cores = false;
  bool linear = false;
  bool branch_loops = false;
  for (const RaceCheck& c : checks) {
    eight_cores |= c.cores == 8;
    linear |= c.name.rfind("linear/", 0) == 0;
    branch_loops |= c.name.find("no_hwloops") != std::string::npos;
  }
  EXPECT_TRUE(eight_cores);
  EXPECT_TRUE(linear);
  EXPECT_TRUE(branch_loops);
}

TEST(XraceStatic, InjectedRowOverlapCaughtAtStorePcs) {
  const RaceReport rep = analyze_races(programs_of(overlapping_kernels()));
  EXPECT_EQ(rep.unprovable.size(), 0u);
  ASSERT_FALSE(rep.conflicts.empty());
  bool mirrored = false;
  for (const RaceConflict& c : rep.conflicts) {
    if (c.kind != DiagKind::kCrossCoreWriteWrite) continue;
    EXPECT_EQ(c.core_a, 0);
    EXPECT_EQ(c.core_b, 1);
    // The two pixel-store streams cross-collide, so several pc pairs are
    // reported; the mirrored pair (same store instruction at each code
    // base) must be among them.
    mirrored |= c.pc_b == c.pc_a + 0x4000u;
  }
  EXPECT_TRUE(mirrored);
  const AnalysisReport ar = rep.to_report();
  EXPECT_GE(ar.count(DiagKind::kCrossCoreWriteWrite), 1u);
  EXPECT_TRUE(ar.has_errors());
}

TEST(XraceStatic, ReadOnlyRangeViolationFlagged) {
  const auto ks = cluster::make_parallel_conv_kernels(
      qnn::ConvSpec::small_layer(4), ConvVariant::kXpulpNN_HwQ, 2);
  RaceOptions opt;
  // Declare the output region read-only: every output store becomes a
  // violation against the declaration.
  opt.read_only.push_back(
      {ks[0].layout.output, ks[0].layout.output + ks[0].layout.output_bytes});
  const RaceReport rep = analyze_races(programs_of(ks), opt);
  ASSERT_FALSE(rep.conflicts.empty());
  EXPECT_EQ(rep.conflicts.front().core_b, -1);
}

// ---- the pre-load gate ----

TEST(XraceGate, CleanDeploymentLoads) {
  cluster::ClusterConfig cfg;
  cfg.num_cores = 4;
  cluster::Cluster cl(cfg);
  cl.set_pre_load_gate(make_race_gate());
  const auto ks = cluster::make_parallel_conv_kernels(
      qnn::ConvSpec::small_layer(4), ConvVariant::kXpulpNN_HwQ, 4);
  EXPECT_NO_THROW(cl.load(programs_of(ks)));
}

TEST(XraceGate, RacyDeploymentRejectedBeforeAnyStateMutates) {
  cluster::ClusterConfig cfg;
  cfg.num_cores = 2;
  cluster::Cluster cl(cfg);
  cl.set_pre_load_gate(make_race_gate());
  try {
    cl.load(programs_of(overlapping_kernels()));
    FAIL() << "gate did not throw";
  } catch (const AnalysisError& e) {
    EXPECT_GE(e.report().count(DiagKind::kCrossCoreWriteWrite), 1u);
    // The gate fired before load() wrote anything: memory still zero.
    EXPECT_EQ(cl.memory().load_u32(0), 0u);
  }
}

// ---- shadow phase on real cluster runs ----

TEST(XraceShadow, CleanParallelRunObservesNoConflicts) {
  const auto data = ConvLayerData::random(qnn::ConvSpec::small_layer(4), 42);
  ShadowMemory shadow;
  cluster::ClusterConfig cfg;
  cfg.num_cores = 4;
  const auto res = cluster::run_parallel_conv(
      data, ConvVariant::kXpulpNN_HwQ, cfg,
      [&shadow](cluster::Cluster& cl, const auto&) {
        attach_shadow(cl, shadow);
      });
  EXPECT_TRUE(shadow.clean()) << shadow.to_string();
  EXPECT_GT(shadow.stats().accesses, 0u);
  EXPECT_EQ(res.output.data(), data.golden().data());

  // Cross-validation against the static report of the same deployment.
  const auto ks = cluster::make_parallel_conv_kernels(
      qnn::ConvSpec::small_layer(4), ConvVariant::kXpulpNN_HwQ, 4);
  std::string why;
  EXPECT_TRUE(
      validate_against_shadow(analyze_races(programs_of(ks)), shadow, &why))
      << why;
}

TEST(XraceShadow, InjectedOverlapCaughtAtExactPcPairAndCycle) {
  const qnn::ConvSpec s = qnn::ConvSpec::small_layer(4);
  const auto data = ConvLayerData::random(s, 43);
  const auto ks = overlapping_kernels();
  const auto ps = programs_of(ks);
  const RaceReport srep = analyze_races(ps);

  cluster::ClusterConfig cfg;
  cfg.num_cores = 2;
  cluster::Cluster cl(cfg);
  kernels::load_conv_data(data, ks[0].layout, cl.memory());
  ShadowMemory shadow;
  attach_shadow(cl, shadow);
  cl.load(ps);
  cl.run();

  ASSERT_FALSE(shadow.clean());
  bool ww = false;
  for (const ShadowConflict& c : shadow.conflicts()) {
    if (c.kind != DiagKind::kCrossCoreWriteWrite) continue;
    ww = true;
    // Same mirrored store instruction on both cores, and the collision
    // is ordered: the first access strictly precedes the second.
    EXPECT_EQ(c.pc_b, c.pc_a + 0x4000u);
    EXPECT_LT(c.cycle_a, c.cycle_b);
  }
  EXPECT_TRUE(ww);

  // Every dynamically observed conflict was statically predicted.
  std::string why;
  EXPECT_TRUE(validate_against_shadow(srep, shadow, &why)) << why;
}

}  // namespace
}  // namespace xpulp::analysis
