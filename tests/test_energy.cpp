// obs::Profiler energy views: exactly-reconciled per-region energy
// attribution over the engine's region cells. The three-layer invariant
// (integer counter partition, bit-identical energy over summed counters,
// FP-honest region sum) must hold for both paper conv kernel families
// under every dispatch-mode configuration, and the attributed total must
// agree with the power model priced over the whole run. The cycle views
// and the energy views read the same cells, so one run must answer both.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/energy.hpp"
#include "sim/core.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::obs {
namespace {

namespace r = xasm::reg;
using kernels::ConvVariant;

struct Workload {
  unsigned bits;
  ConvVariant variant;
};

const Workload kWorkloads[] = {
    {8, ConvVariant::kXpulpV2_8b},
    {4, ConvVariant::kXpulpNN_HwQ},
};

const char* const kModes[] = {"reference", "fast", "superblock"};

/// A finalized profiler (its views outlive the core) plus the run's own
/// counters.
struct ProfiledRun {
  std::unique_ptr<Profiler> prof;
  sim::PerfCounters perf;
  sim::CoreConfig cfg;
};

ProfiledRun run_profiled(const Workload& w, const char* mode) {
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(w.bits), 7);
  ProfiledRun r;
  r.cfg = sim::CoreConfig::extended();
  r.cfg.reference_dispatch = !strcmp(mode, "reference");
  r.cfg.superblock = !strcmp(mode, "superblock");
  r.perf = kernels::run_conv_layer(
               data, w.variant, r.cfg, {},
               [&](sim::Core& core, const kernels::ConvKernel& k) {
                 r.prof = std::make_unique<Profiler>(core, k.regions);
               },
               [&](sim::Core&, const kernels::ConvKernel&) {
                 r.prof->finalize();
               })
               .perf;
  return r;
}

TEST(EnergyViews, ReconciliationHoldsAcrossModesAndWorkloads) {
  for (const Workload& w : kWorkloads) {
    cycles_t ref_cycles = 0;
    for (const char* mode : kModes) {
      const ProfiledRun r = run_profiled(w, mode);
      EXPECT_EQ(r.prof->reconciliation_violation(), "")
          << "bits " << w.bits << " mode " << mode;
      EXPECT_GT(r.prof->energy_total().energy.soc_pj(), 0.0);
      if (ref_cycles == 0) {
        ref_cycles = r.perf.cycles;
      } else {
        // Same kernel, same counters: attribution is dispatch-independent.
        EXPECT_EQ(r.perf.cycles, ref_cycles)
            << "bits " << w.bits << " mode " << mode;
      }
    }
  }
}

TEST(EnergyViews, RegionCountersPartitionTheRunExactly) {
  const ProfiledRun r = run_profiled(kWorkloads[1], "fast");
  const EnergyCell total = r.prof->energy_total();
  u64 cycles = 0, instrs = 0;
  double pj = 0;
  int nonempty = 0;
  for (const RegionEnergy& re : r.prof->region_energies()) {
    cycles += re.cell.perf.cycles;
    instrs += re.cell.perf.instructions;
    pj += re.cell.energy.soc_pj();
    if (re.cell.perf.instructions != 0) ++nonempty;
  }
  EXPECT_EQ(cycles, total.perf.cycles);
  EXPECT_EQ(instrs, total.perf.instructions);
  EXPECT_GE(nonempty, 3);  // im2col, matmul, quant at least
  EXPECT_NEAR(pj, total.energy.soc_pj(),
              1e-9 * std::max(1.0, total.energy.soc_pj()));
}

TEST(EnergyViews, TotalEnergyAgreesWithThePowerModel) {
  const ProfiledRun r = run_profiled(kWorkloads[1], "fast");
  const EnergyCell total = r.prof->energy_total();
  // estimate_power is energy/cycles rescaled, so pricing the whole run's
  // counters must agree with energy * frequency / cycles.
  const power::OperatingPoint op{};
  const power::EnergyBreakdown e =
      power::estimate_energy(total.perf, total.dotp, total.mem, r.cfg, op);
  EXPECT_DOUBLE_EQ(e.soc_pj(), total.energy.soc_pj());

  const double seconds = static_cast<double>(total.perf.cycles) / op.freq_hz;
  const double avg_mw = total.energy.soc_pj() * 1e-12 / seconds * 1e3;
  const power::SocPower p =
      power::estimate_power(total.perf, total.dotp, total.mem, r.cfg, op);
  EXPECT_NEAR(avg_mw, p.soc_mw(), 1e-9 * std::max(1.0, p.soc_mw()));
}

TEST(EnergyViews, CollapsedStacksAreWellFormedAndCoverRegions) {
  const ProfiledRun r = run_profiled(kWorkloads[1], "fast");
  const double total_soc_pj = r.prof->energy_total().energy.soc_pj();

  const std::string stacks = r.prof->energy_stacks("core0");
  ASSERT_FALSE(stacks.empty());
  std::istringstream is(stacks);
  std::string line;
  bool saw_matmul = false;
  long long total_pj = 0;
  while (std::getline(is, line)) {
    // "core0;<region>;<component> <integer pJ>"
    const size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string frames = line.substr(0, sp);
    const long long pj = std::stoll(line.substr(sp + 1));
    EXPECT_GT(pj, 0) << line;
    total_pj += pj;
    EXPECT_EQ(frames.rfind("core0;", 0), 0u) << line;
    if (frames.find(";matmul;") != std::string::npos) saw_matmul = true;
  }
  EXPECT_TRUE(saw_matmul);
  // Integer-rounded stack weights track the FP total closely.
  EXPECT_NEAR(static_cast<double>(total_pj), total_soc_pj,
              total_soc_pj * 0.01);
}

TEST(EnergyViews, RegistryExportPublishesTotalsAndRegions) {
  const ProfiledRun r = run_profiled(kWorkloads[1], "fast");
  Registry reg;
  r.prof->add_energy_to_registry(reg, "energy");
  EXPECT_TRUE(reg.contains("energy.total.soc_pj"));
  EXPECT_TRUE(reg.contains("energy.total.cycles"));
  EXPECT_TRUE(reg.contains("energy.regions.matmul.soc_pj"));
  EXPECT_TRUE(reg.contains("energy.regions.other.soc_pj"));
}

TEST(EnergyViews, CycleTablesAndEnergyCellsAgreeInOneRun) {
  for (const Workload& w : kWorkloads) {
    for (const char* mode : kModes) {
      const ProfiledRun r = run_profiled(w, mode);
      const auto stats = r.prof->region_stats();
      const auto cells = r.prof->region_energies();
      ASSERT_EQ(stats.size(), cells.size());
      for (size_t i = 0; i < stats.size(); ++i) {
        const SiteStat& s = stats[i].stat;
        const sim::PerfCounters& p = cells[i].cell.perf;
        SCOPED_TRACE(std::string(mode) + " " + stats[i].name);
        EXPECT_EQ(stats[i].name, cells[i].name);
        EXPECT_EQ(s.cycles, p.cycles);
        EXPECT_EQ(s.stalls.branch, p.branch_stall_cycles);
        EXPECT_EQ(s.stalls.load_use, p.load_use_stall_cycles);
        EXPECT_EQ(s.stalls.mem, p.mem_stall_cycles);
        EXPECT_EQ(s.stalls.mul_div, p.mul_div_stall_cycles);
        EXPECT_EQ(s.stalls.qnt, p.qnt_stall_cycles);
        // No trap in these runs: every hook retired.
        EXPECT_EQ(s.instructions, p.instructions);
      }
      EXPECT_EQ(r.prof->total().cycles, r.perf.cycles);
      EXPECT_EQ(r.prof->energy_total().perf.cycles, r.perf.cycles);
    }
  }
}

TEST(EnergyViews, AttachingMidRunPartitionsTheObservedRun) {
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(4), 7);
  sim::PerfCounters before;
  std::optional<Profiler> attached;
  const auto res = kernels::run_conv_layer(
      data, ConvVariant::kXpulpNN_HwQ, sim::CoreConfig::extended(), {},
      [&](sim::Core& core, const kernels::ConvKernel& k) {
        EXPECT_EQ(core.run_steps(5000), 5000u);
        before = core.perf();
        attached.emplace(core, k.regions);
      },
      [&](sim::Core&, const kernels::ConvKernel&) { attached->finalize(); });
  ASSERT_GT(before.cycles, 0u);
  const Profiler& prof = *attached;

  const SiteStat total = prof.total();
  EXPECT_EQ(total.cycles, res.perf.cycles - before.cycles);
  EXPECT_EQ(total.instructions, res.perf.instructions - before.instructions);
  u64 cycles = 0, stalls = 0, instrs = 0;
  for (const RegionStat& rs : prof.region_stats()) {
    cycles += rs.stat.cycles;
    stalls += rs.stat.stalls.total();
    instrs += rs.stat.instructions;
  }
  EXPECT_EQ(cycles, total.cycles);
  EXPECT_EQ(stalls, total.stalls.total());
  EXPECT_EQ(instrs, total.instructions);
  EXPECT_EQ(prof.reconciliation_violation(), "");
}

TEST(EnergyViews, TrapCountsTheHookButNotARetire) {
  mem::Memory mem(64 * 1024);
  xasm::Assembler a(0);
  RegionMap regions;
  const addr_t lo = a.current_addr();
  a.li(r::a0, 3);
  a.li(r::a1, 4);
  a.p_mac(r::a2, r::a0, r::a1);  // XpulpV2: illegal on a plain RV32IM core
  regions.add_range("body", lo, a.current_addr());
  a.ecall();
  a.finish().load(mem);

  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.xpulpv2 = cfg.xpulpnn = cfg.hwloops = false;
  sim::Core core(mem, cfg);
  core.reset(0);
  Profiler prof(core, regions);
  EXPECT_THROW(core.run(), IllegalInstruction);
  prof.finalize();

  u64 retired = 0;
  for (const RegionEnergy& re : prof.region_energies()) {
    retired += re.cell.perf.instructions;
  }
  EXPECT_EQ(retired, core.perf().instructions);
  EXPECT_EQ(prof.total().instructions, retired + 1);
  EXPECT_EQ(prof.region_stats()[0].stat.instructions,
            prof.region_energies()[0].cell.perf.instructions + 1);
  EXPECT_EQ(prof.total().cycles, core.perf().cycles);
  EXPECT_EQ(prof.reconciliation_violation(), "");
}

}  // namespace
}  // namespace xpulp::obs
