// obs::Sampler: the due-threshold sampling contract. The sampled counter
// series must be a dispatch-mode-independent artifact of the workload —
// reference, fast and superblock runs fire at identical instruction
// boundaries with identical architectural counters — and the ring must
// report drops exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/conv_layer.hpp"
#include "obs/sampler.hpp"
#include "sim/core.hpp"

namespace xpulp::obs {
namespace {

using kernels::ConvVariant;

struct SampledRun {
  std::vector<Sample> samples;
  u64 recorded = 0;
  u64 dropped = 0;
  cycles_t final_cycles = 0;
};

struct Workload {
  unsigned bits;
  ConvVariant variant;
};

// The paper's two conv kernel families: XpulpV2 8-bit and XpulpNN 4-bit
// hardware-quant, on a reduced layer so three-mode sweeps stay fast.
const Workload kWorkloads[] = {
    {8, ConvVariant::kXpulpV2_8b},
    {4, ConvVariant::kXpulpNN_HwQ},
};

SampledRun run_sampled(const Workload& w, const char* mode,
                       cycles_t interval, size_t capacity = 1u << 16) {
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(w.bits), 7);
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.reference_dispatch = !std::strcmp(mode, "reference");
  cfg.superblock = !std::strcmp(mode, "superblock");

  Sampler::Options opts;
  opts.interval_cycles = interval;
  opts.capacity = capacity;
  std::optional<Sampler> sampler;
  const kernels::ConvRunResult res = kernels::run_conv_layer(
      data, w.variant, cfg, {},
      [&](sim::Core& core, const kernels::ConvKernel&) {
        sampler.emplace(core, opts);
      },
      [&](sim::Core&, const kernels::ConvKernel&) { sampler->finalize(); });

  SampledRun r;
  r.samples = sampler->samples();
  r.recorded = sampler->recorded();
  r.dropped = sampler->dropped();
  r.final_cycles = res.perf.cycles;
  return r;
}

// Architectural window state: everything except the superblock engine's
// own stats (which are definitionally zero when the engine is off). All
// three structs are plain aggregates of u64, so memcmp compares exactly.
bool arch_equal(const Sample& a, const Sample& b) {
  return a.ts_cycles == b.ts_cycles &&
         std::memcmp(&a.perf, &b.perf, sizeof(a.perf)) == 0 &&
         std::memcmp(&a.mem, &b.mem, sizeof(a.mem)) == 0 &&
         std::memcmp(&a.dotp, &b.dotp, sizeof(a.dotp)) == 0;
}

TEST(Sampler, ThreeModesProduceIdenticalSampleSeries) {
  for (const Workload& w : kWorkloads) {
    const SampledRun ref = run_sampled(w, "reference", 512);
    const SampledRun fast = run_sampled(w, "fast", 512);
    const SampledRun sb = run_sampled(w, "superblock", 512);

    ASSERT_EQ(ref.recorded, fast.recorded) << "bits " << w.bits;
    ASSERT_EQ(ref.recorded, sb.recorded) << "bits " << w.bits;
    ASSERT_EQ(ref.samples.size(), fast.samples.size());
    ASSERT_EQ(ref.samples.size(), sb.samples.size());
    EXPECT_EQ(ref.final_cycles, fast.final_cycles);
    EXPECT_EQ(ref.final_cycles, sb.final_cycles);

    for (size_t i = 0; i < ref.samples.size(); ++i) {
      EXPECT_TRUE(arch_equal(ref.samples[i], fast.samples[i]))
          << "bits " << w.bits << " window " << i;
      EXPECT_TRUE(arch_equal(ref.samples[i], sb.samples[i]))
          << "bits " << w.bits << " window " << i;
    }

    // The superblock run fuses instructions; the others never do.
    u64 sb_fused = 0, other_fused = 0;
    for (const Sample& s : sb.samples) sb_fused += s.sb.fused_instructions;
    for (const Sample& s : fast.samples) other_fused += s.sb.fused_instructions;
    EXPECT_GT(sb_fused, 0u) << "bits " << w.bits;
    EXPECT_EQ(other_fused, 0u) << "bits " << w.bits;
  }
}

TEST(Sampler, BoundariesFollowTheDueThresholdContract) {
  constexpr cycles_t kN = 256;
  const SampledRun r = run_sampled(kWorkloads[1], "fast", kN);
  ASSERT_GE(r.samples.size(), 3u);

  // Each window's end boundary is the first instruction boundary at or
  // past the next multiple of N after the previous boundary; the final
  // (trailing) window ends at halt. Window deltas chain exactly: the
  // cycle deltas sum to each boundary's absolute timestamp.
  u64 prev_ts = 0;
  for (size_t i = 0; i < r.samples.size(); ++i) {
    const Sample& s = r.samples[i];
    EXPECT_EQ(s.ts_cycles, prev_ts + s.perf.cycles) << "window " << i;
    if (i + 1 < r.samples.size()) {
      const u64 due = (prev_ts / kN + 1) * kN;
      EXPECT_GE(s.ts_cycles, due) << "window " << i;
      // The overshoot is bounded by one instruction's cost, which is
      // always far below the interval for these kernels.
      EXPECT_LT(s.ts_cycles, due + kN) << "window " << i;
    } else {
      EXPECT_EQ(s.ts_cycles, r.final_cycles);  // trailing partial window
    }
    prev_ts = s.ts_cycles;
  }
}

TEST(Sampler, RingOverflowKeepsNewestWindows) {
  constexpr size_t kCap = 8;
  const SampledRun full = run_sampled(kWorkloads[1], "fast", 128);
  const SampledRun capped = run_sampled(kWorkloads[1], "fast", 128, kCap);

  ASSERT_GT(full.recorded, kCap) << "workload too small to overflow";
  EXPECT_EQ(capped.recorded, full.recorded);
  EXPECT_EQ(capped.dropped, full.recorded - kCap);
  ASSERT_EQ(capped.samples.size(), kCap);

  // The retained windows are exactly the newest kCap, oldest first.
  const size_t off = full.samples.size() - kCap;
  for (size_t i = 0; i < kCap; ++i) {
    EXPECT_TRUE(arch_equal(capped.samples[i], full.samples[off + i]))
        << "window " << i;
  }
}

TEST(Sampler, IdleSamplerLeavesSimulatedCostUntouched) {
  const Workload& w = kWorkloads[1];
  // Baseline without any sampler.
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(w.bits), 7);
  const auto res =
      kernels::run_conv_layer(data, w.variant, sim::CoreConfig::extended());

  // Interval beyond the run length: the hook never fires mid-run, and the
  // simulated cost must be bit-identical to the detached run.
  const SampledRun idle = run_sampled(w, "fast", cycles_t{1} << 62);
  EXPECT_EQ(idle.final_cycles, res.perf.cycles);
  EXPECT_EQ(idle.recorded, 1u);  // only the trailing window
  ASSERT_EQ(idle.samples.size(), 1u);
  EXPECT_EQ(idle.samples[0].perf.cycles, res.perf.cycles);
  EXPECT_EQ(idle.samples[0].perf.instructions, res.perf.instructions);
}

TEST(Sampler, DerivedMetricsAreWellFormed) {
  const SampledRun r = run_sampled(kWorkloads[1], "superblock", 512);
  const sim::CoreConfig cfg = sim::CoreConfig::extended();
  double total_fused_frac = 0;
  for (const Sample& s : r.samples) {
    const SampleMetrics m = Sampler::derive(s, cfg);
    if (s.perf.cycles == 0) continue;
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_LE(m.ipc, 2.0);
    EXPECT_GE(m.stall_frac, 0.0);
    EXPECT_LE(m.stall_frac, 1.0);
    EXPECT_GT(m.soc_mw, 0.0);
    EXPECT_GE(m.soc_mw, m.core_mw);
    total_fused_frac += m.fused_frac;
  }
  EXPECT_GT(total_fused_frac, 0.0);
}

// A finalized sampler no longer reads its core: reconfiguring the core
// after finalize() must not change the export, and a sampler outliving
// its core (run_conv_layer's hook pair finalizes it in after_run, then
// the core dies) exports the CSV it exported while the core was alive.
TEST(Sampler, CsvAfterTheCoreIsGoneMatchesTheLiveExport) {
  const Workload& w = kWorkloads[1];
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(w.bits), 7);
  std::optional<Sampler> sampler;
  std::ostringstream live;
  kernels::run_conv_layer(
      data, w.variant, sim::CoreConfig::extended(), {},
      [&](sim::Core& core, const kernels::ConvKernel&) {
        sampler.emplace(core, Sampler::Options{.interval_cycles = 1024});
      },
      [&](sim::Core& core, const kernels::ConvKernel&) {
        sampler->finalize();
        sampler->write_csv(live);
        core.set_isa_features(true, /*xpulpnn=*/false, true);  // repriced
      });
  std::ostringstream after;
  sampler->write_csv(after);
  const std::string csv = live.str();
  EXPECT_EQ(after.str(), csv);
  EXPECT_GT(std::count(csv.begin(), csv.end(), '\n'), 2);
}

}  // namespace
}  // namespace xpulp::obs
