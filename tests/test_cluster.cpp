// Cluster model: bank arbitration, event-driven multi-core execution, and
// the row-partitioned parallel convolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "cluster/parallel_conv.hpp"
#include "common/error.hpp"
#include "obs/profiler.hpp"
#include "sim_test_util.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::cluster {
namespace {

namespace r = xasm::reg;
using kernels::ConvLayerData;
using kernels::ConvVariant;

TEST(BankArbiter, NoConflictOnDistinctBanks) {
  BankArbiter arb(4);
  EXPECT_EQ(arb.access(0, 10, 0x00), 0u);  // bank 0
  EXPECT_EQ(arb.access(1, 10, 0x04), 0u);  // bank 1
  EXPECT_EQ(arb.access(2, 10, 0x08), 0u);  // bank 2
  EXPECT_EQ(arb.conflicts(), 0u);
}

TEST(BankArbiter, SameBankSameCycleStalls) {
  BankArbiter arb(4);
  EXPECT_EQ(arb.access(0, 10, 0x00), 0u);
  EXPECT_EQ(arb.access(1, 10, 0x10), 1u);  // 0x10 -> bank 0 again
  EXPECT_EQ(arb.conflicts(), 1u);
  // A third core in the same cycle queues behind both.
  EXPECT_EQ(arb.access(2, 10, 0x20), 2u);
  EXPECT_EQ(arb.conflicts(), 2u);
}

TEST(BankArbiter, SameCoreBackToBackIsFree) {
  BankArbiter arb(4);
  EXPECT_EQ(arb.access(0, 10, 0x00), 0u);
  EXPECT_EQ(arb.access(0, 10, 0x10), 0u);  // same core re-uses its port
  EXPECT_EQ(arb.access(0, 11, 0x00), 0u);
  EXPECT_EQ(arb.conflicts(), 0u);
}

TEST(BankArbiter, WordInterleaving) {
  BankArbiter arb(8);
  // Consecutive words land in consecutive banks.
  for (u32 w = 0; w < 8; ++w) {
    EXPECT_EQ(arb.access(0, 5, w * 4), 0u);
  }
  EXPECT_EQ(arb.conflicts(), 0u);
}

TEST(Cluster, IndependentProgramsRunToCompletion) {
  ClusterConfig cfg;
  cfg.num_cores = 4;
  Cluster cluster(cfg);
  std::vector<xasm::Program> progs;
  for (int c = 0; c < 4; ++c) {
    xasm::Assembler a(static_cast<addr_t>(c) * 0x1000);
    a.li(r::a0, c + 1);
    a.li(r::t0, 100 * (c + 1));  // different runtimes per core
    auto loop = a.here();
    a.addi(r::t0, r::t0, -1);
    a.bne(r::t0, r::zero, loop);
    a.li(r::t1, 0x30000 + c * 4);
    a.sw(r::a0, r::t1, 0);
    a.ecall();
    progs.push_back(a.finish());
  }
  cluster.load(progs);
  const auto stats = cluster.run();
  for (int c = 0; c < 4; ++c) {
    EXPECT_EQ(cluster.memory().load_u32(0x30000 + static_cast<u32>(c) * 4),
              static_cast<u32>(c + 1));
  }
  // Makespan is the slowest core; core 3 loops 4x longer than core 0.
  EXPECT_EQ(stats.makespan, stats.core_cycles[3]);
  EXPECT_GT(stats.core_cycles[3], stats.core_cycles[0] * 3);
}

TEST(Cluster, ConflictsAriseOnSharedHotBank) {
  // All cores hammer the same word: every cycle only one proceeds.
  ClusterConfig cfg;
  cfg.num_cores = 4;
  Cluster cluster(cfg);
  std::vector<xasm::Program> progs;
  for (int c = 0; c < 4; ++c) {
    xasm::Assembler a(static_cast<addr_t>(c) * 0x1000);
    a.li(r::s0, 0x30000);
    for (int i = 0; i < 64; ++i) a.lw(r::a0, r::s0, 0);
    a.ecall();
    progs.push_back(a.finish());
  }
  cluster.load(progs);
  const auto stats = cluster.run();
  EXPECT_GT(stats.bank_conflicts, 100u);
  EXPECT_GT(stats.conflict_rate(), 0.3);
}

std::vector<xasm::Program> conflict_programs(int cores) {
  std::vector<xasm::Program> progs;
  for (int c = 0; c < cores; ++c) {
    xasm::Assembler a(static_cast<addr_t>(c) * 0x1000);
    a.li(r::s0, 0x30000);
    for (int i = 0; i < 32; ++i) a.lw(r::a0, r::s0, 0);
    a.li(r::t0, 50 * (c + 1));
    auto loop = a.here();
    a.addi(r::t0, r::t0, -1);
    a.bne(r::t0, r::zero, loop);
    a.ecall();
    progs.push_back(a.finish());
  }
  return progs;
}

TEST(Cluster, SecondRunOnSameInstanceIsIdentical) {
  // Regression: load() used to keep the previous run's per-core cycle
  // counters and the arbiter's bank bookings, so a second run on the same
  // instance reported cumulative core cycles and phantom cascaded
  // conflicts. A reloaded cluster must behave exactly like a fresh one.
  ClusterConfig cfg;
  cfg.num_cores = 4;
  Cluster cluster(cfg);
  const auto progs = conflict_programs(4);

  cluster.load(progs);
  const auto first = cluster.run();
  cluster.load(progs);
  const auto second = cluster.run();

  EXPECT_EQ(second.makespan, first.makespan);
  EXPECT_EQ(second.core_cycles, first.core_cycles);
  EXPECT_EQ(second.bank_conflicts, first.bank_conflicts);
  EXPECT_EQ(second.data_accesses, first.data_accesses);

  // And identical to a run on a brand-new instance.
  Cluster fresh(cfg);
  fresh.load(progs);
  const auto baseline = fresh.run();
  EXPECT_EQ(second.makespan, baseline.makespan);
  EXPECT_EQ(second.core_cycles, baseline.core_cycles);
  EXPECT_EQ(second.bank_conflicts, baseline.bank_conflicts);
}

TEST(Cluster, AccessHookUninstalledAfterGuestFault) {
  // Regression: a guest fault escaping run() used to leave the arbiter
  // access hook installed on the shared memory, with the active-core latch
  // pointing at the faulted core — every later host-side access_cycles
  // call would keep booking banks.
  ClusterConfig cfg;
  cfg.num_cores = 2;
  Cluster cluster(cfg);

  std::vector<xasm::Program> progs;
  for (int c = 0; c < 2; ++c) {
    xasm::Assembler a(static_cast<addr_t>(c) * 0x1000);
    if (c == 1) {
      a.li(r::s0, -4);  // 0xfffffffc: far outside the SRAM
      a.lw(r::a0, r::s0, 0);
    }
    a.ecall();
    progs.push_back(a.finish());
  }
  cluster.load(progs);
  EXPECT_THROW(cluster.run(), MemoryFault);

  const u64 accesses_after = cluster.stats_since(0, 0).data_accesses;
  (void)cluster.memory().access_cycles(0x30000, 4, false);
  EXPECT_EQ(cluster.stats_since(0, 0).data_accesses, accesses_after)
      << "arbiter hook still installed after a faulting run";

  // The instance stays usable: reload with healthy programs and run.
  cluster.load(conflict_programs(2));
  const auto stats = cluster.run();
  EXPECT_GT(stats.makespan, 0u);
}

TEST(Cluster, RejectsBadConfigs) {
  ClusterConfig cfg;
  cfg.num_cores = 0;
  EXPECT_THROW(Cluster{cfg}, SimError);
  Cluster ok;
  EXPECT_THROW(ok.load({}), SimError);  // wrong program count
}

struct ParCase {
  unsigned bits;
  int cores;
};

class ParallelConv : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelConv, BitExactAndFaster) {
  const auto [bits, cores] = GetParam();
  qnn::ConvSpec spec;
  spec.in_h = spec.in_w = 8;
  spec.in_c = 16;
  spec.out_c = 8;
  spec.in_bits = spec.w_bits = spec.out_bits = bits;
  const auto data = ConvLayerData::random(spec, 0xc1u + bits);
  const auto gold = data.golden();
  const ConvVariant v = (bits == 8) ? ConvVariant::kXpulpV2_8b
                                    : ConvVariant::kXpulpNN_HwQ;

  ClusterConfig cfg;
  cfg.num_cores = cores;
  const auto res = run_parallel_conv(data, v, cfg);
  int bad = 0;
  for (int i = 0; i < gold.elems(); ++i) {
    if (gold.flat(i) != res.output.flat(i)) ++bad;
  }
  EXPECT_EQ(bad, 0);

  if (cores > 1) {
    ClusterConfig one;
    one.num_cores = 1;
    const auto single = run_parallel_conv(data, v, one);
    const double speedup = static_cast<double>(single.stats.makespan) /
                           static_cast<double>(res.stats.makespan);
    // Near-linear row partitioning, capped by the number of output rows
    // (extra cores idle once every row has an owner).
    const int effective = std::min(cores, spec.out_h());
    EXPECT_GT(speedup, 0.7 * effective);
    EXPECT_LT(res.stats.conflict_rate(), 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelConv,
    ::testing::Values(ParCase{4, 1}, ParCase{4, 2}, ParCase{4, 4},
                      ParCase{4, 8}, ParCase{2, 4}, ParCase{8, 4},
                      ParCase{2, 8}, ParCase{4, 16}),
    [](const ::testing::TestParamInfo<ParCase>& info) {
      return "b" + std::to_string(info.param.bits) + "_c" +
             std::to_string(info.param.cores);
    });

qnn::ConvSpec mixed_spec(unsigned in_bits, unsigned w_bits) {
  qnn::ConvSpec spec;
  spec.in_h = spec.in_w = 6;
  spec.in_c = 8;
  spec.out_c = 16;
  spec.in_bits = in_bits;
  spec.w_bits = w_bits;
  spec.out_bits = 8;
  return spec;
}

TEST(ParallelConv, MixedPrecisionBitExactOnBothSchedulers) {
  // Mixed layers read lane-aligned grouped weights; a flat weight image
  // runs to completion and silently returns the wrong tensor.
  for (const auto& [in_bits, w_bits] :
       {std::pair{8u, 4u}, std::pair{4u, 2u}}) {
    const auto data = ConvLayerData::random(mixed_spec(in_bits, w_bits),
                                            0x3e7u + in_bits);
    const auto gold = data.golden();
    for (const int cores : {1, 2, 8}) {
      for (const SchedulerMode mode :
           {SchedulerMode::kReference, SchedulerMode::kBurst}) {
        ClusterConfig cfg;
        cfg.num_cores = cores;
        cfg.scheduler = mode;
        const auto res =
            run_parallel_conv(data, ConvVariant::kXpulpNN_Mixed, cfg);
        EXPECT_EQ(res.output == gold, true)
            << in_bits << "x" << w_bits << ", " << cores << " cores, "
            << (mode == SchedulerMode::kBurst ? "burst" : "reference");
      }
    }
  }
}

TEST(ParallelConv, UnevenRowSplitCoversAllRows) {
  // 8 output rows over 3 cores: shares 3/3/2.
  qnn::ConvSpec spec;
  spec.in_h = spec.in_w = 8;
  spec.in_c = 16;
  spec.out_c = 4;
  spec.in_bits = spec.w_bits = spec.out_bits = 4;
  const auto data = ConvLayerData::random(spec, 9);
  ClusterConfig cfg;
  cfg.num_cores = 3;
  const auto res = run_parallel_conv(data, ConvVariant::kXpulpNN_HwQ, cfg);
  const auto gold = data.golden();
  for (int i = 0; i < gold.elems(); ++i) {
    ASSERT_EQ(res.output.flat(i), gold.flat(i)) << i;
  }
}

TEST(ParallelConv, MoreCoresThanRows) {
  // 4 output rows over 8 cores: four cores idle, still bit-exact.
  qnn::ConvSpec spec;
  spec.in_h = spec.in_w = 4;
  spec.in_c = 16;
  spec.out_c = 4;
  spec.in_bits = spec.w_bits = spec.out_bits = 4;
  const auto data = ConvLayerData::random(spec, 10);
  ClusterConfig cfg;
  cfg.num_cores = 8;
  const auto res = run_parallel_conv(data, ConvVariant::kXpulpNN_HwQ, cfg);
  const auto gold = data.golden();
  for (int i = 0; i < gold.elems(); ++i) {
    ASSERT_EQ(res.output.flat(i), gold.flat(i));
  }
}

TEST(ParallelConv, DecodeCacheSpansEachCoresProgram) {
  // Core c's program sits at c x 16 kB; its decode cache covers that
  // program, not [0, code_end) (core 7 once zero-filled 57k parcels).
  qnn::ConvSpec spec;
  spec.in_h = spec.in_w = 8;
  spec.in_c = 16;
  spec.out_c = 8;
  spec.in_bits = spec.w_bits = spec.out_bits = 4;
  const auto data = ConvLayerData::random(spec, 12);
  ClusterConfig cfg;
  cfg.num_cores = 8;
  std::vector<size_t> parcels, bound;
  std::vector<addr_t> bases;
  run_parallel_conv(
      data, ConvVariant::kXpulpNN_HwQ, cfg, {},
      [&](Cluster& cl, const std::vector<kernels::ConvKernel>& ks) {
        for (int c = 0; c < cl.num_cores(); ++c) {
          parcels.push_back(cl.core(c).decode_cache_parcels());
          bound.push_back(test::decode_cache_bound(ks[c].program));
          bases.push_back(ks[c].program.base());
        }
      });
  ASSERT_EQ(parcels.size(), 8u);
  for (size_t c = 0; c < parcels.size(); ++c) {
    EXPECT_GT(parcels[c], 0u) << "core " << c;
    EXPECT_LE(parcels[c], bound[c]) << "core " << c;
  }
  EXPECT_LT(bound[7], bases[7] / 2);
}

TEST(ParallelConv, OverlappingProgramImagesAreADiagnostic) {
  // The baseline sub-byte kernel unrolls its weight unpack per output
  // pixel, so on the paper layer one core's program outgrows the per-core
  // code slot and runs into the next core's. Loading them would put one
  // image over the other and return a wrong tensor; the runner must name
  // the two programs and their ranges instead.
  const auto data = ConvLayerData::random(qnn::ConvSpec::paper_layer(4), 11);
  for (const int cores : {2, 4}) {
    ClusterConfig cfg;
    cfg.num_cores = cores;
    std::string msg;
    try {
      const auto r = run_parallel_conv(data, ConvVariant::kXpulpV2_Sub, cfg);
      ADD_FAILURE() << cores << " cores: no diagnostic; the output "
                    << (qnn::first_mismatch(r.output, data.golden())
                            ? "differs from"
                            : "matches")
                    << " the golden model";
      continue;
    } catch (const SimError& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find("core 0 program [0x0, 0x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("core 1 program [0x4000, 0x"), std::string::npos)
        << msg;
  }
}

TEST(ParallelConv, AfterRunFiresWhenTheClusterThrows) {
  // A caller-owned profiler attached in `instrument` must be finalized by
  // `after_run` while the cores are alive, on the fault path too; else
  // its destructor reads a destroyed core.
  const auto data = ConvLayerData::random(qnn::ConvSpec::small_layer(4), 11);
  ClusterConfig cfg;
  cfg.num_cores = 2;
  std::optional<obs::Profiler> prof;
  bool after_fired = false;
  EXPECT_THROW(
      run_parallel_conv(
          data, ConvVariant::kXpulpNN_HwQ, cfg,
          [&](Cluster& cl, const std::vector<kernels::ConvKernel>& ks) {
            prof.emplace(cl.core(0), ks[0].regions);
            cl.memory().store_u32(ks[0].program.entry(), 0xffffffffu);
            cl.core(0).invalidate_decode_cache();
          },
          [&](Cluster&, const std::vector<kernels::ConvKernel>&) {
            after_fired = true;
            prof->finalize();
          }),
      SimError);
  EXPECT_TRUE(after_fired);
}

}  // namespace
}  // namespace xpulp::cluster
