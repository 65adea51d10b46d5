// Differential snapshot tests: snapshot -> serialize -> deserialize ->
// restore into a *fresh* machine -> resume must reproduce the uninterrupted
// run bit-identically — architectural state, full memory image, halt reason
// and every PerfCounters field — on both dispatch paths, across the ISA
// tiers (RV32IM, XpulpV2, XpulpNN) and for mid-run cluster snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "cluster/cluster.hpp"
#include "cluster/parallel_conv.hpp"
#include "common/rng.hpp"
#include "diff_test_util.hpp"
#include "kernels/conv_layer.hpp"
#include "kernels/gp_workload.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "xasm/assembler.hpp"

namespace xpulp {
namespace {

namespace r = xasm::reg;
using test::expect_identical;
using test::final_state_of;
using test::FinalState;
using test::random_program;
using test::run_mode;

constexpr u64 kBudget = 2'000'000;

/// The extended core on the reference interpreter or the plain fast path.
sim::CoreConfig interp_cfg(bool reference) {
  return test::interp_config(sim::CoreConfig::extended(), reference);
}

/// Step `src` for `snap_at` instructions, checkpoint it through the full
/// binary serialize/deserialize path, restore into a brand-new core and
/// memory, and run that machine to completion.
FinalState run_with_restore(const xasm::Program& prog, sim::CoreConfig cfg,
                            addr_t entry, addr_t code_end, u64 snap_at,
                            u64 max_instr = kBudget) {
  mem::Memory mem;
  prog.load(mem);
  sim::Core core(mem, cfg);
  core.reset(entry, code_end);
  for (u64 n = 0; n < snap_at && !core.halted(); ++n) core.step();

  const ckpt::Snapshot snap =
      ckpt::deserialize(ckpt::serialize(ckpt::capture(core, mem)));

  mem::Memory fresh_mem(mem.size());
  sim::Core fresh(fresh_mem, cfg);
  ckpt::apply(snap, fresh, fresh_mem);
  for (u64 n = 0; n < max_instr && !fresh.halted(); ++n) fresh.step();
  return final_state_of(fresh, fresh_mem);
}

FinalState run_with_restore(const xasm::Program& prog, sim::CoreConfig cfg,
                            u64 snap_at, u64 max_instr = kBudget) {
  return run_with_restore(prog, std::move(cfg), prog.entry(),
                          prog.base() + prog.size_bytes(), snap_at,
                          max_instr);
}

TEST(CkptDiff, RandomProgramsRestoreBitIdentical) {
  for (u64 trial = 0; trial < 10; ++trial) {
    const xasm::Program prog = random_program(0xc4a7d1ff + trial * 331);
    for (const bool reference : {false, true}) {
      const sim::CoreConfig cfg = interp_cfg(reference);
      const FinalState base = run_mode(prog, cfg, reference);
      ASSERT_EQ(base.reason, sim::HaltReason::kEcall) << "trial " << trial;
      ASSERT_GT(base.perf.instructions, 2u);

      // A random interior snapshot point, plus points chosen to land inside
      // the structures that carry the most hidden state (hardware loops,
      // load-use forwarding): first third, middle, last instruction.
      Rng rng(trial * 2 + (reference ? 1 : 0));
      const u64 instr = base.perf.instructions;
      for (const u64 snap_at :
           {static_cast<u64>(1 + rng.uniform(0, static_cast<i32>(instr - 2))),
            instr / 3, instr / 2, instr - 1}) {
        const FinalState resumed = run_with_restore(prog, cfg, snap_at);
        expect_identical(base, resumed);
        if (::testing::Test::HasFailure()) {
          FAIL() << "diverged: trial " << trial << " snap_at " << snap_at
                 << (reference ? " reference" : " fast");
        }
      }
    }
  }
}

TEST(CkptDiff, BoundarySnapshotIndices) {
  const xasm::Program prog = random_program(0xb0a2d011);
  const sim::CoreConfig cfg = interp_cfg(false);
  const FinalState base = run_mode(prog, cfg, false);
  ASSERT_EQ(base.reason, sim::HaltReason::kEcall);

  // Snapshot before the first instruction: the restored machine replays
  // the whole program.
  expect_identical(base, run_with_restore(prog, cfg, 0));
  // Snapshot after the halt: the restored machine has nothing left to do
  // but must still report the complete final state.
  expect_identical(base, run_with_restore(prog, cfg, kBudget));
}

TEST(CkptDiff, SnapshotsAreDispatchAgnostic) {
  // A checkpoint taken mid-run on the reference interpreter and resumed on
  // the predecoded fast path (and vice versa) must still land on the
  // uninterrupted final state: the image captures modelled machine state
  // only, never host interpreter internals.
  const xasm::Program prog = random_program(0x5eedc0de);
  const FinalState base = run_mode(prog, sim::CoreConfig::extended(), false);
  ASSERT_EQ(base.reason, sim::HaltReason::kEcall);
  const u64 snap_at = base.perf.instructions / 2;

  for (const bool snap_on_reference : {false, true}) {
    const sim::CoreConfig snap_cfg = interp_cfg(snap_on_reference);
    mem::Memory mem;
    prog.load(mem);
    sim::Core core(mem, snap_cfg);
    core.reset(prog.entry(), prog.base() + prog.size_bytes());
    for (u64 n = 0; n < snap_at; ++n) core.step();
    const ckpt::Snapshot snap =
        ckpt::deserialize(ckpt::serialize(ckpt::capture(core, mem)));

    const sim::CoreConfig resume_cfg = interp_cfg(!snap_on_reference);
    mem::Memory fresh_mem(mem.size());
    sim::Core fresh(fresh_mem, resume_cfg);
    ckpt::apply(snap, fresh, fresh_mem);
    while (!fresh.halted()) fresh.step();
    expect_identical(base, final_state_of(fresh, fresh_mem));
  }
}

TEST(CkptDiff, RestoreBelowEntryProgramAtHighBase) {
  // The restored core starts with an empty decode cache at a pc in the
  // middle of a high-placed program; it must rebuild the span around that
  // pc, rebase below it for the callees under the entry, and still see
  // every self-modifying store the program makes around the span.
  const test::BelowEntryProgram p = test::below_entry_program(0x30000, 6000);
  for (const bool reference : {false, true}) {
    const sim::CoreConfig cfg = interp_cfg(reference);
    const FinalState base =
        test::run_from(p.prog, cfg, p.entry, p.code_end, kBudget);
    ASSERT_EQ(base.reason, sim::HaltReason::kEcall);
    for (unsigned i = 0; i < 5; ++i) {
      ASSERT_EQ(base.regs[10 + i], test::BelowEntryProgram::kExpected[i]);
    }
    const u64 instr = base.perf.instructions;
    for (const u64 snap_at : {u64{1}, instr / 4, instr / 2, instr - 2}) {
      expect_identical(base, run_with_restore(p.prog, cfg, p.entry,
                                              p.code_end, snap_at));
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged: snap_at " << snap_at
               << (reference ? " reference" : " fast");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Kernel workloads across the ISA tiers.

/// Pure RV32IM workload (no PULP extensions): LCG store/load/checksum loop
/// with multiplies, divides and data-dependent branches.
xasm::Program rv32im_program() {
  xasm::Assembler a(0);
  a.li(r::s0, 0x8000);
  a.li(r::t0, 0x1234567);   // LCG state
  a.li(r::t1, 180);         // iterations
  a.li(r::t2, 1103515245);  // LCG multiplier
  a.li(r::a0, 0);           // checksum
  const auto loop = a.here();
  a.mul(r::t0, r::t0, r::t2);
  a.addi(r::t0, r::t0, 1021);
  a.sw(r::t0, r::s0, 0);
  a.lw(r::t3, r::s0, 0);
  a.div(r::t4, r::t3, r::t1);
  a.add(r::a0, r::a0, r::t4);
  const auto skip = a.new_label();
  a.blt(r::t3, r::zero, skip);
  a.addi(r::a0, r::a0, 7);
  a.bind(skip);
  a.addi(r::s0, r::s0, 4);
  a.addi(r::t1, r::t1, -1);
  a.bne(r::t1, r::zero, loop);
  a.ecall();
  return a.finish();
}

TEST(CkptDiff, Rv32imTierRestores) {
  sim::CoreConfig cfg = test::tier_config(test::Tier::kRv32im);
  cfg.superblock = false;
  const xasm::Program prog = rv32im_program();
  for (const bool reference : {false, true}) {
    cfg.reference_dispatch = reference;
    const FinalState base = run_mode(prog, cfg, reference);
    ASSERT_EQ(base.reason, sim::HaltReason::kEcall);
    expect_identical(base,
                     run_with_restore(prog, cfg, base.perf.instructions / 2));
  }
}

TEST(CkptDiff, GpWorkloadXpulpV2TierRestores) {
  // The Table III GP application on the baseline RI5CY config: exercises
  // post-increment addressing state through a checkpoint.
  const auto w = kernels::make_gp_workload(48, 0x13579bdf);
  sim::CoreConfig cfg = sim::CoreConfig::ri5cy();
  cfg.superblock = false;
  const FinalState base = run_mode(w.program, cfg, false);
  ASSERT_EQ(base.reason, sim::HaltReason::kEcall);
  for (const u64 frac : {5u, 2u}) {
    const FinalState resumed =
        run_with_restore(w.program, cfg, base.perf.instructions / frac);
    expect_identical(base, resumed);
    // The workload's own checksum survives the restore.
    u32 checksum = 0;
    std::memcpy(&checksum, resumed.mem.data() + w.result_addr, 4);
    EXPECT_EQ(checksum, w.expected_checksum);
  }
}

/// Run a conv kernel to completion, optionally detouring through a
/// checkpoint at `snap_at` retired instructions.
FinalState run_conv(const kernels::ConvKernel& kernel,
                    const kernels::ConvLayerData& data, sim::CoreConfig cfg,
                    std::optional<u64> snap_at) {
  mem::Memory mem;
  kernel.program.load(mem);
  kernels::load_conv_data(data, kernel.layout, mem);
  sim::Core core(mem, cfg);
  core.reset(kernel.program.entry(),
             kernel.program.base() + kernel.program.size_bytes());
  if (!snap_at) {
    core.run(600'000'000);
    return final_state_of(core, mem);
  }
  for (u64 n = 0; n < *snap_at && !core.halted(); ++n) core.step();
  const ckpt::Snapshot snap =
      ckpt::deserialize(ckpt::serialize(ckpt::capture(core, mem)));
  mem::Memory fresh_mem(mem.size());
  sim::Core fresh(fresh_mem, cfg);
  ckpt::apply(snap, fresh, fresh_mem);
  while (!fresh.halted()) fresh.step();
  return final_state_of(fresh, fresh_mem);
}

TEST(CkptDiff, ConvKernelVariantsRestoreBitIdentical) {
  // One variant per ISA tier: plain XpulpV2 8-bit, the packed sub-byte
  // XpulpV2 kernel, and the full XpulpNN kernel with hardware quantization
  // (dot-product unit state and pv.qnt stall accounting cross the
  // checkpoint mid-layer).
  using kernels::ConvVariant;
  for (const ConvVariant v :
       {ConvVariant::kXpulpV2_8b, ConvVariant::kXpulpV2_Sub,
        ConvVariant::kXpulpNN_HwQ}) {
    qnn::ConvSpec spec =
        qnn::ConvSpec::paper_layer(v == ConvVariant::kXpulpV2_8b ? 8 : 4);
    spec.in_h = spec.in_w = 4;
    spec.out_c = 8;
    const auto data = kernels::ConvLayerData::random(spec, 0x5eed);
    const auto kernel = kernels::generate_conv_kernel(spec, v);

    for (const bool reference : {false, true}) {
      const sim::CoreConfig cfg = interp_cfg(reference);
      const FinalState base = run_conv(kernel, data, cfg, std::nullopt);
      ASSERT_EQ(base.reason, sim::HaltReason::kEcall)
          << kernels::variant_name(v);
      // Snapshot deep inside the matmul/quant phase.
      const FinalState resumed =
          run_conv(kernel, data, cfg, base.perf.instructions * 2 / 3);
      expect_identical(base, resumed);
      if (::testing::Test::HasFailure()) {
        FAIL() << kernels::variant_name(v)
               << (reference ? " reference" : " fast");
      }
    }
  }
}

TEST(CkptDiff, MidSuperblockSnapshotsLandOnExactBoundaries) {
  // With the superblock engine active, whole loop iterations retire as
  // fused bursts — a snapshot request at instruction index N must still
  // land on *exactly* N retired instructions (run_steps caps the burst
  // budget), and the resulting image must resume bit-identically into both
  // a fresh core and the live, rewound instance.
  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(8);
  spec.in_h = spec.in_w = 4;
  spec.out_c = 8;
  const auto data = kernels::ConvLayerData::random(spec, 0x5eed);
  const auto kernel =
      kernels::generate_conv_kernel(spec, kernels::ConvVariant::kXpulpV2_8b);

  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = true;

  // Uninterrupted superblock baseline; the engine must actually fuse here,
  // or the snapshot points below would never fall inside a burst.
  FinalState base;
  {
    mem::Memory mem;
    kernel.program.load(mem);
    kernels::load_conv_data(data, kernel.layout, mem);
    sim::Core core(mem, cfg);
    core.reset(kernel.program.entry(),
               kernel.program.base() + kernel.program.size_bytes());
    core.run(600'000'000);
    ASSERT_GT(core.superblock_stats().fused_instructions, 0u);
    base = final_state_of(core, mem);
    ASSERT_EQ(base.reason, sim::HaltReason::kEcall);
  }

  Rng rng(0x5bc2);
  const u64 instr = base.perf.instructions;
  for (const u64 snap_at :
       {instr / 4, instr / 2, instr * 3 / 4,
        static_cast<u64>(1 + rng.uniform(0, static_cast<i32>(instr - 2)))}) {
    mem::Memory mem;
    kernel.program.load(mem);
    kernels::load_conv_data(data, kernel.layout, mem);
    sim::Core core(mem, cfg);
    core.reset(kernel.program.entry(),
               kernel.program.base() + kernel.program.size_bytes());

    // The pause must be boundary-exact even when `snap_at` falls in the
    // middle of a hot hwloop the engine would otherwise burst through.
    ASSERT_EQ(core.run_steps(snap_at), snap_at);
    ASSERT_EQ(core.perf().instructions, snap_at);
    ASSERT_FALSE(core.halted());
    const ckpt::Snapshot snap =
        ckpt::deserialize(ckpt::serialize(ckpt::capture(core, mem)));

    // Resume into a fresh machine (superblock plans rebuild lazily).
    mem::Memory fresh_mem(mem.size());
    sim::Core fresh(fresh_mem, cfg);
    ckpt::apply(snap, fresh, fresh_mem);
    fresh.run(600'000'000);
    expect_identical(base, final_state_of(fresh, fresh_mem));

    // Finish the paused instance, then rewind the same (live, warmed-up)
    // core back to the snapshot and replay the tail.
    core.run(600'000'000);
    expect_identical(base, final_state_of(core, mem));
    ckpt::apply(snap, core, mem);
    core.run(600'000'000);
    expect_identical(base, final_state_of(core, mem));
    if (::testing::Test::HasFailure()) FAIL() << "snap_at " << snap_at;
  }
}

TEST(CkptDiff, RandomProgramSnapshotsWithSuperblockActive) {
  // Same boundary-exactness property over the random program generator:
  // run_steps + capture + restore at arbitrary indices with fusion on.
  for (u64 trial = 0; trial < 6; ++trial) {
    const xasm::Program prog = random_program(0x5b00 + trial * 613);
    sim::CoreConfig cfg = sim::CoreConfig::extended();
    cfg.superblock = true;
    const FinalState base = run_mode(prog, cfg, false);
    ASSERT_EQ(base.reason, sim::HaltReason::kEcall) << "trial " << trial;

    Rng rng(0xb0c + trial);
    const u64 instr = base.perf.instructions;
    const u64 snap_at =
        static_cast<u64>(1 + rng.uniform(0, static_cast<i32>(instr - 2)));
    mem::Memory mem;
    prog.load(mem);
    sim::Core core(mem, cfg);
    core.reset(prog.entry(), prog.base() + prog.size_bytes());
    ASSERT_EQ(core.run_steps(snap_at), snap_at);
    ASSERT_EQ(core.perf().instructions, snap_at);
    const ckpt::Snapshot snap =
        ckpt::deserialize(ckpt::serialize(ckpt::capture(core, mem)));

    mem::Memory fresh_mem(mem.size());
    sim::Core fresh(fresh_mem, cfg);
    ckpt::apply(snap, fresh, fresh_mem);
    fresh.run(kBudget);
    expect_identical(base, final_state_of(fresh, fresh_mem));
    if (::testing::Test::HasFailure()) {
      FAIL() << "diverged: trial " << trial << " snap_at " << snap_at;
    }
  }
}

TEST(CkptDiff, LoopNestBudgetsStopAtEveryBoundary) {
  // A budget that ends at any instruction boundary of a fused loop nest —
  // inside an inner loop's burst, between its iterations, on the lp.setup
  // or the branch — must leave exactly the interpreter's state there, and
  // a snapshot taken at that point must resume to the same final state.
  const xasm::Program prog = test::loop_nest_program(40);
  const auto load = [&](mem::Memory& mem, sim::Core& core) {
    prog.load(mem);
    core.reset(prog.entry(), prog.base() + prog.size_bytes());
  };

  // Reference interpreter: the state at every boundary.
  sim::CoreConfig ref_cfg = sim::CoreConfig::extended();
  ref_cfg.reference_dispatch = true;
  std::vector<sim::CoreState> ref_states;
  std::vector<mem::MemStats> ref_mem;
  FinalState base;
  {
    mem::Memory mem(0x10000);
    sim::Core core(mem, ref_cfg);
    load(mem, core);
    while (!core.halted()) {
      ref_states.push_back(core.save_state());
      ref_mem.push_back(mem.stats());
      core.step();
    }
    base = final_state_of(core, mem);
  }
  ASSERT_EQ(base.reason, sim::HaltReason::kEcall);

  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = true;
  u64 nested = 0;
  for (u64 k = 1; k < ref_states.size(); ++k) {
    mem::Memory mem(0x10000);
    sim::Core core(mem, cfg);
    load(mem, core);
    ASSERT_EQ(core.run_steps(k), k);
    test::expect_same_core_state(ref_states[k], core.save_state());
    test::expect_same_counters(ref_mem[k], mem.stats(), "mem");
    nested = std::max(nested, core.superblock_stats().nested_entries);

    const ckpt::Snapshot snap = ckpt::capture(core, mem);
    mem::Memory fresh_mem(mem.size());
    sim::Core fresh(fresh_mem, cfg);
    ckpt::apply(snap, fresh, fresh_mem);
    fresh.run(kBudget);
    expect_identical(base, final_state_of(fresh, fresh_mem));
    if (::testing::Test::HasFailure()) FAIL() << "budget " << k;
  }
  // The budgets reach into nested bursts, not only the interpreter.
  EXPECT_GT(nested, 0u);
}

// ---------------------------------------------------------------------------
// Cluster snapshots.

std::vector<xasm::Program> cluster_programs(int cores) {
  std::vector<xasm::Program> progs;
  for (int c = 0; c < cores; ++c) {
    xasm::Assembler a(static_cast<addr_t>(c) * 0x1000);
    a.li(r::s0, 0x30000);  // shared hot bank: guarantees conflicts
    for (int i = 0; i < 24; ++i) a.lw(r::a0, r::s0, 0);
    a.li(r::t0, 40 * (c + 1));  // staggered runtimes
    const auto loop = a.here();
    a.sw(r::t0, r::s0, static_cast<i32>(4 + c * 4));
    a.addi(r::t0, r::t0, -1);
    a.bne(r::t0, r::zero, loop);
    a.ecall();
    progs.push_back(a.finish());
  }
  return progs;
}

struct ClusterFinal {
  std::vector<sim::PerfCounters> perf;
  std::vector<std::array<u32, 32>> regs;
  std::vector<addr_t> pcs;
  std::vector<u8> mem;
  cluster::ClusterStats stats;
};

ClusterFinal cluster_final(cluster::Cluster& cl) {
  ClusterFinal f;
  for (int c = 0; c < cl.num_cores(); ++c) {
    const sim::Core& core = cl.core(c);
    EXPECT_EQ(core.halt_reason(), sim::HaltReason::kEcall) << "core " << c;
    f.perf.push_back(core.perf());
    std::array<u32, 32> regs{};
    for (unsigned i = 0; i < 32; ++i) regs[i] = core.reg(i);
    f.regs.push_back(regs);
    f.pcs.push_back(core.pc());
  }
  f.mem.resize(cl.memory().size());
  cl.memory().read_block(0, f.mem);
  f.stats = cl.stats_since(0, 0);
  return f;
}

void expect_cluster_identical(const ClusterFinal& a, const ClusterFinal& b) {
  ASSERT_EQ(a.perf.size(), b.perf.size());
  for (size_t c = 0; c < a.perf.size(); ++c) {
    EXPECT_EQ(a.perf[c].cycles, b.perf[c].cycles) << "core " << c;
    EXPECT_EQ(a.perf[c].instructions, b.perf[c].instructions) << "core " << c;
    EXPECT_EQ(a.perf[c].mem_stall_cycles, b.perf[c].mem_stall_cycles)
        << "core " << c << " (bank-conflict stalls)";
    EXPECT_EQ(a.regs[c], b.regs[c]) << "core " << c;
    EXPECT_EQ(a.pcs[c], b.pcs[c]) << "core " << c;
  }
  EXPECT_EQ(a.mem, b.mem);
  EXPECT_EQ(a.stats.makespan, b.stats.makespan);
  EXPECT_EQ(a.stats.core_cycles, b.stats.core_cycles);
  EXPECT_EQ(a.stats.bank_conflicts, b.stats.bank_conflicts);
  EXPECT_EQ(a.stats.data_accesses, b.stats.data_accesses);
}

/// Drive a (possibly restored) cluster to completion through run_steps —
/// under SchedulerMode::kBurst this resumes burst scheduling.
void finish_cluster(cluster::Cluster& cl) {
  constexpr u64 kChunk = 1u << 20;
  cl.begin_run();
  while (cl.run_steps(kChunk) == kChunk) {
  }
  cl.end_run();
}

TEST(CkptDiff, ClusterMidRunRestoreIntoFreshInstance) {
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 4;
  const auto progs = cluster_programs(4);

  // Uninterrupted baseline.
  cluster::Cluster base_cl(ccfg);
  base_cl.load(progs);
  base_cl.run();
  const ClusterFinal base = cluster_final(base_cl);

  // Snapshot mid-run, while bank bookings and the cross-core cycle skew
  // are live.
  cluster::Cluster paused(ccfg);
  paused.load(progs);
  paused.begin_run();
  for (int i = 0; i < 300; ++i) ASSERT_EQ(paused.run_steps(1), 1u);
  const ckpt::Snapshot snap =
      ckpt::deserialize(ckpt::serialize(ckpt::capture(paused)));
  ASSERT_TRUE(snap.is_cluster());
  paused.end_run();

  // Restore into a brand-new cluster that never loaded any program: the
  // snapshot alone must carry code, data, core and arbiter state.
  cluster::Cluster fresh(ccfg);
  ckpt::apply(snap, fresh);
  finish_cluster(fresh);
  expect_cluster_identical(base, cluster_final(fresh));
}

u64 cluster_instructions(const cluster::Cluster& cl) {
  u64 total = 0;
  for (int c = 0; c < cl.num_cores(); ++c) {
    total += cl.core(c).perf().instructions;
  }
  return total;
}

TEST(CkptDiff, ClusterMidBurstSnapshotsRestoreBitIdentical) {
  // Burst scheduling with a small horizon, so the snapshot indices below
  // land deep inside burst epochs. run_steps pauses boundary-exactly
  // (every burst lane drained and folded), the image must resume
  // bit-identically into a fresh cluster, the rewound live cluster, and
  // a reference-scheduled cluster — all landing on the uninterrupted
  // per-instruction baseline.
  cluster::ClusterConfig burst_cfg;
  burst_cfg.num_cores = 4;
  burst_cfg.scheduler = cluster::SchedulerMode::kBurst;
  burst_cfg.burst_horizon = 128;
  cluster::ClusterConfig ref_cfg = burst_cfg;
  ref_cfg.scheduler = cluster::SchedulerMode::kReference;
  const auto progs = cluster_programs(4);

  cluster::Cluster base_cl(ref_cfg);
  base_cl.load(progs);
  base_cl.run();
  const ClusterFinal base = cluster_final(base_cl);
  const u64 total = cluster_instructions(base_cl);
  ASSERT_GT(total, 600u);

  for (const u64 snap_at : {total / 5 + 1, total / 2 + 3, total - 7}) {
    cluster::Cluster paused(burst_cfg);
    paused.load(progs);
    paused.begin_run();
    ASSERT_EQ(paused.run_steps(snap_at), snap_at);
    ASSERT_EQ(cluster_instructions(paused), snap_at)
        << "burst pause overshot the requested index";
    const ckpt::Snapshot snap =
        ckpt::deserialize(ckpt::serialize(ckpt::capture(paused)));
    ASSERT_TRUE(snap.is_cluster());

    // Finish the paused instance under bursts.
    while (paused.run_steps(1u << 20) == (1u << 20)) {
    }
    paused.end_run();
    expect_cluster_identical(base, cluster_final(paused));

    // Rewind the same live, warmed-up instance and replay the tail.
    ckpt::apply(snap, paused);
    finish_cluster(paused);
    expect_cluster_identical(base, cluster_final(paused));

    // Resume into a fresh burst-scheduled cluster.
    cluster::Cluster fresh(burst_cfg);
    ckpt::apply(snap, fresh);
    finish_cluster(fresh);
    expect_cluster_identical(base, cluster_final(fresh));

    // Cross-scheduler: an image taken mid-burst carries no burst-engine
    // state, so the per-instruction scheduler must replay it too.
    cluster::Cluster ref_resume(ref_cfg);
    ckpt::apply(snap, ref_resume);
    finish_cluster(ref_resume);
    expect_cluster_identical(base, cluster_final(ref_resume));
    if (::testing::Test::HasFailure()) FAIL() << "snap_at " << snap_at;
  }
}

TEST(CkptDiff, ClusterMidBurstSnapshotsWithSuperblockConv) {
  // The full stack crossing a mid-burst checkpoint: superblock dispatch
  // inside cluster bursts on a parallel conv layer, snapshotted at an
  // index chosen to fall inside a fused hot loop.
  const qnn::ConvSpec spec = qnn::ConvSpec::small_layer(4);
  const auto data = kernels::ConvLayerData::random(spec, 0x5eed);
  const auto kernels = cluster::make_parallel_conv_kernels(
      spec, kernels::ConvVariant::kXpulpNN_HwQ, 4);
  std::vector<xasm::Program> progs;
  for (const auto& k : kernels) progs.push_back(k.program);
  const auto& layout = kernels.front().layout;

  cluster::ClusterConfig burst_cfg;
  burst_cfg.num_cores = 4;
  burst_cfg.scheduler = cluster::SchedulerMode::kBurst;
  burst_cfg.burst_horizon = 256;
  burst_cfg.core.superblock = true;
  cluster::ClusterConfig ref_cfg = burst_cfg;
  ref_cfg.scheduler = cluster::SchedulerMode::kReference;

  const auto load_cluster = [&](cluster::Cluster& cl) {
    kernels::load_conv_data(data, layout, cl.memory());
    cl.load(progs);
  };

  cluster::Cluster base_cl(ref_cfg);
  load_cluster(base_cl);
  base_cl.run();
  const ClusterFinal base = cluster_final(base_cl);
  const u64 total = cluster_instructions(base_cl);

  cluster::Cluster paused(burst_cfg);
  load_cluster(paused);
  paused.begin_run();
  const u64 snap_at = total / 2 + 5;  // deep inside the matmul hot loops
  ASSERT_EQ(paused.run_steps(snap_at), snap_at);
  ASSERT_EQ(cluster_instructions(paused), snap_at);
  const ckpt::Snapshot snap =
      ckpt::deserialize(ckpt::serialize(ckpt::capture(paused)));
  paused.end_run();

  cluster::Cluster fresh(burst_cfg);
  ckpt::apply(snap, fresh);
  finish_cluster(fresh);
  expect_cluster_identical(base, cluster_final(fresh));

  ckpt::apply(snap, paused);
  finish_cluster(paused);
  expect_cluster_identical(base, cluster_final(paused));
}

TEST(CkptDiff, ClusterMidRunRestoreIntoLiveInstance) {
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 2;
  const auto progs = cluster_programs(2);

  cluster::Cluster cl(ccfg);
  cl.load(progs);
  cl.begin_run();
  for (int i = 0; i < 120; ++i) ASSERT_EQ(cl.run_steps(1), 1u);
  const ckpt::Snapshot snap =
      ckpt::deserialize(ckpt::serialize(ckpt::capture(cl)));
  while (cl.run_steps(1) == 1) {
  }
  cl.end_run();
  const ClusterFinal base = cluster_final(cl);

  // Rewind the *same* (now halted) instance back to the snapshot and
  // replay: the replayed tail must reproduce the first completion exactly.
  ckpt::apply(snap, cl);
  finish_cluster(cl);
  expect_cluster_identical(base, cluster_final(cl));
}

}  // namespace
}  // namespace xpulp
