// Differential tests of the cluster burst scheduler (DESIGN.md §15): for
// race-free programs, SchedulerMode::kBurst must be *bit-identical* to the
// per-instruction reference scheduler — every PerfCounters field of every
// core, the shared MemStats, the arbiter's conflict/access totals, the
// final memory image, the observer event sequence, and sampled telemetry —
// across core counts, both paper conv workloads, and both dispatch modes.
// Also covers the scheduler's pick-key order, the exact instruction-budget
// trap, and the automatic demotion to reference scheduling.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "cluster/parallel_conv.hpp"
#include "diff_test_util.hpp"
#include "obs/sampler.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::cluster {
namespace {

namespace r = xasm::reg;
using kernels::ConvLayerData;
using kernels::ConvVariant;

// ---------------------------------------------------------------------------
// ClockCoreKey: one u64 compare must order picks like the reference
// scheduler (smallest clock, ties to the lowest core index).

TEST(ClockCoreKey, PackingRoundTripsAndOrdersLikeThePick) {
  const u64 k = ClockCoreKey::pack(0x123456789abcull, 37);
  EXPECT_EQ(ClockCoreKey::clock(k), 0x123456789abcull);
  EXPECT_EQ(ClockCoreKey::core(k), 37);
  // Key order is lexicographic (clock, core): same clock, lower core wins.
  EXPECT_LT(ClockCoreKey::pack(100, 3), ClockCoreKey::pack(100, 4));
  EXPECT_LT(ClockCoreKey::pack(100, 63), ClockCoreKey::pack(101, 0));
}

// ---------------------------------------------------------------------------
// Differential harness: capture everything a scheduler can influence.

struct EventHash {
  u64 h = 1469598103934665603ull;  // FNV-1a over the observer stream
  void add(u64 v) {
    h ^= v;
    h *= 1099511628211ull;
  }
};

struct RunCapture {
  std::vector<sim::PerfCounters> perf;
  mem::MemStats mem{};
  cluster::ClusterStats stats;
  std::vector<u8> memory;
  u64 event_hash = 0;
  u64 events = 0;
  ClusterBurstStats burst;
  u64 rebases = 0;  // shape-shared plans entered at another copy's pc
};

void capture_cluster(Cluster& cl, const EventHash& eh, u64 events,
                     RunCapture& out) {
  for (int c = 0; c < cl.num_cores(); ++c) {
    out.perf.push_back(cl.core(c).perf());
    out.rebases += cl.core(c).superblock_stats().rebases;
  }
  out.mem = cl.memory().stats();
  out.stats = cl.stats_since(0, 0);
  out.memory.resize(cl.memory().size());
  cl.memory().read_block(0, out.memory);
  out.event_hash = eh.h;
  out.events = events;
  out.burst = cl.burst_stats();
}

Cluster::AccessObserver make_hashing_observer(EventHash& eh, u64& events) {
  return [&eh, &events](int core, cycles_t cycle, addr_t pc, addr_t addr,
                        unsigned size, bool is_store,
                        unsigned conflict_stalls) {
    eh.add(static_cast<u64>(core));
    eh.add(cycle);
    eh.add(pc);
    eh.add(addr);
    eh.add(size);
    eh.add(is_store ? 1 : 0);
    eh.add(conflict_stalls);
    ++events;
  };
}

void expect_captures_identical(const RunCapture& ref, const RunCapture& burst,
                               const char* what) {
  ASSERT_EQ(ref.perf.size(), burst.perf.size()) << what;
  for (size_t c = 0; c < ref.perf.size(); ++c) {
    test::expect_same_counters(
        ref.perf[c], burst.perf[c],
        std::string(what) + ": PerfCounters of core " + std::to_string(c));
  }
  test::expect_same_counters(ref.mem, burst.mem,
                             std::string(what) + ": shared MemStats");
  EXPECT_EQ(ref.stats.makespan, burst.stats.makespan) << what;
  EXPECT_EQ(ref.stats.core_cycles, burst.stats.core_cycles) << what;
  EXPECT_EQ(ref.stats.bank_conflicts, burst.stats.bank_conflicts) << what;
  EXPECT_EQ(ref.stats.data_accesses, burst.stats.data_accesses) << what;
  EXPECT_EQ(ref.events, burst.events)
      << what << ": observer event counts diverged";
  EXPECT_EQ(ref.event_hash, burst.event_hash)
      << what << ": observer event sequence diverged";
  EXPECT_EQ(ref.memory == burst.memory, true)
      << what << ": final memory images diverged";
}

// ---------------------------------------------------------------------------
// Paper conv workloads: 1/2/4/8 cores x {8-bit XpulpV2, 4-bit XpulpNN HwQ},
// plus 2-bit HwQ and an 8x4 mixed-precision layer, x {fast, superblock}
// dispatch. The reference scheduler steps per
// instruction, so its result is dispatch-independent (test_dispatch_diff);
// one reference run per (bits, cores) serves both dispatch comparisons.

struct ConvCase {
  ConvCase(unsigned b, int c, unsigned w = 0)
      : bits(static_cast<u16>(b)), w_bits(static_cast<u16>(w)), cores(c) {}
  u16 bits;
  u16 w_bits;  // nonzero: mixed-precision layer (bits x w_bits)
  int cores;
};

class BurstConvDiff : public ::testing::TestWithParam<ConvCase> {};

TEST_P(BurstConvDiff, BitIdenticalAcrossSchedulers) {
  const auto [bits, w_bits, cores] = GetParam();
  auto spec = qnn::ConvSpec::paper_layer(bits);
  ConvVariant v = (bits == 8) ? ConvVariant::kXpulpV2_8b
                              : ConvVariant::kXpulpNN_HwQ;
  if (w_bits != 0) {
    spec.w_bits = w_bits;
    v = ConvVariant::kXpulpNN_Mixed;
  }
  const auto data = ConvLayerData::random(spec, 12345);
  const auto gold = data.golden();

  const auto run_one = [&](SchedulerMode mode, bool superblock,
                           RunCapture& out) {
    ClusterConfig cfg;
    cfg.num_cores = cores;
    cfg.scheduler = mode;
    cfg.core.superblock = superblock;
    EventHash eh;
    u64 events = 0;
    const auto res = run_parallel_conv(
        data, v, cfg,
        [&](Cluster& cl, const auto&) {
          cl.set_access_observer(make_hashing_observer(eh, events));
        },
        [&](Cluster& cl, const auto&) {
          capture_cluster(cl, eh, events, out);
        });
    EXPECT_EQ(res.output == gold, true) << "golden mismatch";
  };

  RunCapture ref;
  run_one(SchedulerMode::kReference, false, ref);
  ASSERT_GT(ref.events, 0u);

  for (const bool superblock : {false, true}) {
    RunCapture burst;
    run_one(SchedulerMode::kBurst, superblock, burst);
    expect_captures_identical(
        ref, burst, superblock ? "superblock dispatch" : "fast dispatch");
    // The scheduler must actually have burst — a silently demoted run
    // would pass the comparison without testing anything.
    EXPECT_EQ(burst.burst.fallback_runs, 0u);
    EXPECT_GT(burst.burst.bursts, 0u);
    EXPECT_GT(burst.burst.replayed_accesses, 0u);
    u64 total_instr = 0;
    for (const auto& p : burst.perf) total_instr += p.instructions;
    EXPECT_GT(burst.burst.burst_instructions, total_instr / 2)
        << "most instructions should retire inside bursts";
    if (superblock) {
      // The per-pixel im2col loops run as shape-shared plans rebased to
      // each copy, so the observer pcs above cover rebased plans too.
      EXPECT_GT(burst.rebases, 0u);
    }
    if (cores > 1) {
      // Multi-core paper conv runs have real bank conflicts whose stalls
      // the merge must assign after the fact.
      EXPECT_GT(burst.burst.deferred_stall_cycles, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperLayers, BurstConvDiff,
    ::testing::Values(ConvCase{8, 1}, ConvCase{8, 2}, ConvCase{8, 4},
                      ConvCase{8, 8}, ConvCase{4, 1}, ConvCase{4, 2},
                      ConvCase{4, 4}, ConvCase{4, 8}, ConvCase{2, 2},
                      ConvCase{2, 8}, ConvCase{8, 8, 4}),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      const auto& p = info.param;
      const std::string layer =
          p.w_bits != 0 ? "m" + std::to_string(p.bits) + "x" +
                              std::to_string(p.w_bits)
                        : "b" + std::to_string(p.bits);
      return layer + "_c" + std::to_string(p.cores);
    });

// ---------------------------------------------------------------------------
// Lane-log bound: a core running ahead of the frontier never drains its
// lane, so its log must be compacted at each epoch boundary instead of
// keeping every access of the run. The 2-core runs are four times longer
// per core than the 8-core ones; growth with run length would show there.

class BurstLaneLog
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(BurstLaneLog, CapacityStaysWithinEpochBound) {
  const auto [bits, cores] = GetParam();
  const auto data =
      ConvLayerData::random(qnn::ConvSpec::paper_layer(bits), 12345);
  const ConvVariant v = (bits == 8) ? ConvVariant::kXpulpV2_8b
                                    : ConvVariant::kXpulpNN_HwQ;
  ClusterConfig cfg;
  cfg.num_cores = cores;
  cfg.scheduler = SchedulerMode::kBurst;
  cfg.core.superblock = true;
  size_t capacity = 0, bound = 0;
  u64 replayed = 0;
  const auto res = run_parallel_conv(
      data, v, cfg, {}, [&](Cluster& cl, const auto&) {
        capacity = cl.burst_log_capacity();
        bound = cl.burst_log_capacity_bound();
        replayed = cl.burst_stats().replayed_accesses;
      });
  EXPECT_TRUE(res.output == data.golden());
  ASSERT_GT(capacity, 0u) << "the lanes logged nothing";
  EXPECT_LE(capacity, bound) << replayed << " accesses replayed";
}

INSTANTIATE_TEST_SUITE_P(
    PaperLayers, BurstLaneLog,
    ::testing::Combine(::testing::Values(8u, 4u, 2u), ::testing::Values(8, 2)),
    [](const auto& info) {
      return "b" + std::to_string(std::get<0>(info.param)) + "_c" +
             std::to_string(std::get<1>(info.param));
    });

TEST(BurstLaneLog, ReloadKeepsLaneBuffers) {
  const auto data = ConvLayerData::random(qnn::ConvSpec::paper_layer(4), 7);
  ClusterConfig cfg;
  cfg.num_cores = 4;
  cfg.scheduler = SchedulerMode::kBurst;
  cfg.core.superblock = true;
  const auto kernels =
      make_parallel_conv_kernels(data.spec, ConvVariant::kXpulpNN_HwQ, 4);
  const kernels::ConvMemLayout& layout = kernels.front().layout;
  std::vector<xasm::Program> programs;
  for (const auto& k : kernels) programs.push_back(k.program);
  Cluster cl(cfg);
  const auto load_and_run = [&](size_t expect_capacity_after_load) {
    kernels::load_conv_data(data, layout, cl.memory());
    cl.load(programs);
    // load() clears the logs in place: a reloaded cluster keeps the
    // buffers the previous run grew instead of growing fresh ones.
    EXPECT_EQ(cl.burst_log_capacity(), expect_capacity_after_load);
    const cycles_t makespan = cl.run().makespan;
    EXPECT_TRUE(kernels::read_conv_output(data.spec, layout, cl.memory()) ==
                data.golden());
    return makespan;
  };
  const cycles_t first = load_and_run(0);
  const size_t capacity = cl.burst_log_capacity();
  ASSERT_GT(capacity, 0u);
  EXPECT_EQ(load_and_run(capacity), first);
}

// ---------------------------------------------------------------------------
// Conflict stress: every core hammers the same bank, so nearly every
// replayed access carries an arbiter stall — the worst case for the merge's
// deferred-stall bookkeeping (cascaded conflicts, per-instruction offset
// latch, fold-on-drain).

// Code sits at 1 kB per core and data from 0x30000, so up to 64 programs
// fit the default memory.
std::vector<xasm::Program> same_bank_programs(int cores, int rounds) {
  std::vector<xasm::Program> progs;
  for (int c = 0; c < cores; ++c) {
    xasm::Assembler a(static_cast<addr_t>(c) * 0x400);
    a.li(r::s0, 0x30000);  // one shared word: a single hot bank
    a.li(r::s1, 0x30100 + c * 0x40);  // plus a private spill slot
    a.li(r::t0, rounds + 7 * c);      // staggered runtimes
    // Back-to-back same-bank loads: each core occupies the hot bank every
    // cycle, so competing cores collide and cascade no matter how the
    // loop phases drift.
    for (int i = 0; i < 48; ++i) a.lw(r::a0, r::s0, 0);
    const auto loop = a.here();
    a.lw(r::a0, r::s0, 0);
    a.lw(r::a2, r::s0, 0);
    a.lw(r::a3, r::s0, 0);
    a.sw(r::t0, r::s1, 0);
    a.lw(r::a1, r::s0, 0);
    a.addi(r::t0, r::t0, -1);
    a.bne(r::t0, r::zero, loop);
    a.sw(r::a0, r::s1, 4);
    a.ecall();
    progs.push_back(a.finish());
  }
  return progs;
}

RunCapture run_programs(const std::vector<xasm::Program>& progs,
                        ClusterConfig cfg) {
  cfg.num_cores = static_cast<int>(progs.size());
  Cluster cl(cfg);
  EventHash eh;
  u64 events = 0;
  cl.set_access_observer(make_hashing_observer(eh, events));
  cl.load(progs);
  cl.run();
  RunCapture out;
  capture_cluster(cl, eh, events, out);
  return out;
}

TEST(BurstSchedDiff, SameBankConflictStress) {
  // 3 and 5 cores give non-power-of-two bank counts (the arbiter's modulo
  // path); 64 cores use the top bit of the merge's lane masks. Horizon 1
  // leaves almost every step to reference segments, whose merges re-run
  // under a recomputed frontier until nothing pops.
  for (const int cores : {2, 3, 4, 5, 8, 64}) {
    const auto progs = same_bank_programs(cores, 600);
    ClusterConfig ref_cfg;
    const RunCapture ref = run_programs(progs, ref_cfg);
    ASSERT_GT(ref.stats.bank_conflicts, 100u) << cores << " cores";

    for (const u32 horizon : {1u, 64u, 1536u}) {
      ClusterConfig burst_cfg;
      burst_cfg.scheduler = SchedulerMode::kBurst;
      burst_cfg.burst_horizon = horizon;
      const RunCapture burst = run_programs(progs, burst_cfg);
      expect_captures_identical(ref, burst, "same-bank stress");
      EXPECT_GT(burst.burst.deferred_stall_cycles, 0u);
      EXPECT_EQ(burst.burst.fallback_runs, 0u);
      if (::testing::Test::HasFailure()) {
        FAIL() << cores << " cores, horizon " << horizon;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Instruction budget: under bursts the trap must fire at precisely the same
// total retired-instruction index as the reference scheduler, with the
// trapped state bit-identical (satellite of the burst tentpole).

u64 total_instructions(const RunCapture& c) {
  u64 t = 0;
  for (const auto& p : c.perf) t += p.instructions;
  return t;
}

TEST(BurstSchedDiff, BudgetTrapsAtExactInstructionIndex) {
  const auto progs = same_bank_programs(4, 400);
  const RunCapture full = run_programs(progs, ClusterConfig{});
  const u64 total = total_instructions(full);
  ASSERT_GT(total, 1000u);

  const auto run_budget = [&](SchedulerMode mode, u64 budget, bool& threw) {
    ClusterConfig cfg;
    cfg.num_cores = 4;
    cfg.scheduler = mode;
    cfg.burst_horizon = 96;  // several epochs inside the budget
    Cluster cl(cfg);
    cl.load(progs);
    threw = false;
    try {
      cl.run(budget);
    } catch (const SimError&) {
      threw = true;
    }
    RunCapture out;
    const EventHash eh;
    capture_cluster(cl, eh, 0, out);
    return out;
  };

  // Budgets straddling the boundary plus mid-run values that land inside
  // a burst epoch.
  for (const u64 budget : {total / 3, total / 2, total - 1, total}) {
    bool ref_threw = false, burst_threw = false;
    const RunCapture ref =
        run_budget(SchedulerMode::kReference, budget, ref_threw);
    const RunCapture burst =
        run_budget(SchedulerMode::kBurst, budget, burst_threw);
    EXPECT_EQ(ref_threw, budget < total) << "budget " << budget;
    EXPECT_EQ(burst_threw, ref_threw) << "budget " << budget;
    if (ref_threw) {
      // The historical contract: the run executes exactly budget+1
      // instructions — reaching the state the reference loop trapped
      // in — and then throws.
      EXPECT_EQ(total_instructions(ref), budget + 1);
      EXPECT_EQ(total_instructions(burst), budget + 1);
    }
    expect_captures_identical(ref, burst, "budget trap state");
    if (::testing::Test::HasFailure()) FAIL() << "budget " << budget;
  }
}

TEST(BurstSchedDiff, RunStepsPausesMidBurstExactly) {
  // run_steps(n) under burst scheduling must stop at exactly n retired
  // instructions with state bit-identical to the reference scheduler
  // paused there — the property mid-burst checkpoints build on.
  const auto progs = same_bank_programs(4, 300);

  const auto run_paused = [&](SchedulerMode mode, u64 steps) {
    ClusterConfig cfg;
    cfg.num_cores = 4;
    cfg.scheduler = mode;
    cfg.burst_horizon = 128;
    Cluster cl(cfg);
    cl.load(progs);
    cl.begin_run();
    EXPECT_EQ(cl.run_steps(steps), steps);
    cl.end_run();
    RunCapture out;
    const EventHash eh;
    capture_cluster(cl, eh, 0, out);
    return out;
  };

  for (const u64 steps : {1ull, 97ull, 1013ull, 2311ull}) {
    const RunCapture ref = run_paused(SchedulerMode::kReference, steps);
    const RunCapture burst = run_paused(SchedulerMode::kBurst, steps);
    EXPECT_EQ(total_instructions(ref), steps);
    EXPECT_EQ(total_instructions(burst), steps);
    expect_captures_identical(ref, burst, "paused state");
    if (::testing::Test::HasFailure()) FAIL() << "steps " << steps;
  }
}

// ---------------------------------------------------------------------------
// Sampled telemetry: with an obs::Sampler on every core, sample windows
// must be byte-identical between schedulers — timestamps, per-core
// PerfCounters, the shared-TCDM MemStats view, and dot-product activity.
// (SuperblockStats inside a Sample are a host-engine diagnostic and differ
// by design: the reference scheduler steps per instruction and never
// fuses.)

TEST(BurstSchedDiff, SampledCounterTracksAreSchedulerExact) {
  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(4);
  spec.in_h = spec.in_w = 8;
  spec.in_c = 16;
  spec.out_c = 16;
  const auto data = ConvLayerData::random(spec, 99);

  const auto run_sampled = [&](SchedulerMode mode, bool superblock) {
    ClusterConfig cfg;
    cfg.num_cores = 4;
    cfg.scheduler = mode;
    cfg.core.superblock = superblock;
    std::vector<std::unique_ptr<obs::Sampler>> samplers;
    std::vector<std::vector<obs::Sample>> series;
    run_parallel_conv(
        data, ConvVariant::kXpulpNN_HwQ, cfg,
        [&](Cluster& cl, const auto&) {
          for (int c = 0; c < cl.num_cores(); ++c) {
            obs::Sampler::Options sopts;
            // The interval must exceed the burst engine's sample margin
            // (cores burst only up to due - margin), or the run degrades
            // to all-reference segments and `bursts > 0` below fails.
            sopts.interval_cycles = 4096;
            sopts.track = static_cast<u8>(c);
            sopts.mem_stats = &cl.memory().stats();
            samplers.push_back(
                std::make_unique<obs::Sampler>(cl.core(c), sopts));
          }
        },
        [&](Cluster& cl, const auto&) {
          for (auto& s : samplers) s->finalize();
          for (int c = 0; c < cl.num_cores(); ++c) {
            series.push_back(samplers[static_cast<size_t>(c)]->samples());
          }
          if (mode == SchedulerMode::kBurst) {
            EXPECT_EQ(cl.burst_stats().fallback_runs, 0u);
            EXPECT_GT(cl.burst_stats().bursts, 0u);
          }
        });
    return series;
  };

  const auto ref = run_sampled(SchedulerMode::kReference, false);
  for (const bool superblock : {false, true}) {
    const auto burst = run_sampled(SchedulerMode::kBurst, superblock);
    ASSERT_EQ(burst.size(), ref.size());
    for (size_t c = 0; c < ref.size(); ++c) {
      ASSERT_EQ(burst[c].size(), ref[c].size()) << "core " << c;
      ASSERT_GT(ref[c].size(), 2u) << "core " << c << " barely sampled";
      for (size_t i = 0; i < ref[c].size(); ++i) {
        EXPECT_EQ(burst[c][i].ts_cycles, ref[c][i].ts_cycles)
            << "core " << c << " window " << i;
        const std::string at =
            "core " + std::to_string(c) + " window " + std::to_string(i);
        test::expect_same_counters(ref[c][i].perf, burst[c][i].perf,
                                   at + " perf");
        test::expect_same_counters(ref[c][i].mem, burst[c][i].mem,
                                   at + " shared mem stats");
        test::expect_same_counters(ref[c][i].dotp, burst[c][i].dotp,
                                   at + " dotp activity");
      }
    }
    if (::testing::Test::HasFailure()) {
      FAIL() << (superblock ? "superblock" : "fast") << " dispatch";
    }
  }
}

// ---------------------------------------------------------------------------
// Demotion: programs that read the cycle CSR observe their own timing, so
// deferring arbitration would change architectural state. The burst
// scheduler must fall back to reference scheduling — and say so.

TEST(BurstSchedDiff, CycleCsrProgramsDemoteToReference) {
  std::vector<xasm::Program> progs;
  for (int c = 0; c < 2; ++c) {
    xasm::Assembler a(static_cast<addr_t>(c) * 0x1000);
    a.li(r::s0, 0x30000);
    a.li(r::t0, 50);
    const auto loop = a.here();
    a.lw(r::a0, r::s0, 0);
    a.addi(r::t0, r::t0, -1);
    a.bne(r::t0, r::zero, loop);
    a.csrrs(static_cast<u8>(r::a1), 0xC00, static_cast<u8>(r::zero));
    a.sw(r::a1, r::s0, static_cast<i32>(8 + 4 * c));
    a.ecall();
    progs.push_back(a.finish());
  }

  const RunCapture ref = run_programs(progs, ClusterConfig{});
  ClusterConfig burst_cfg;
  burst_cfg.scheduler = SchedulerMode::kBurst;
  const RunCapture demoted = run_programs(progs, burst_cfg);
  expect_captures_identical(ref, demoted, "demoted run");
  EXPECT_GT(demoted.burst.fallback_runs, 0u);
  EXPECT_EQ(demoted.burst.bursts, 0u);
}

}  // namespace
}  // namespace xpulp::cluster
