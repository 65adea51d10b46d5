// Superblock engine unit tests: coverage statistics, instruction-limit
// boundary exactness across fused bursts, run-loop parity (run, run_steps
// and run_burst slice one run identically), and
// differential sweeps over every dot-product mnemonic/format combination —
// the combinations the fused loop routes through host-SIMD kernels
// (byte, nibble, crumb, mixed) and the ones that stay on the scalar lane
// kernel (16-bit) must all be bit-identical to the reference interpreter.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "diff_test_util.hpp"
#include "isa/decoder.hpp"
#include "isa/encoding.hpp"
#include "isa/instruction.hpp"
#include "isa/isa_table.hpp"
#include "kernels/conv_layer.hpp"
#include "mem/memory.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "sim/core.hpp"
#include "sim/quant_unit.hpp"
#include "sim/superblock.hpp"
#include "soc/streamed_conv.hpp"
#include "xasm/assembler.hpp"

namespace xpulp {
namespace {

namespace r = xasm::reg;
using test::expect_identical;
using test::expect_same_core_state;
using test::final_state_of;
using test::FinalState;
using test::loop_nest_program;

constexpr addr_t kData = 0x8000;

/// Deterministic pseudo-random operand bytes mapped at kData (zero-filled
/// memory would make every dot product and toggle count trivially zero).
std::vector<u8> operand_data() {
  std::vector<u8> data(1024);
  Rng rng(0x0ddba11);
  for (auto& b : data) b = static_cast<u8>(rng.uniform(0, 255));
  return data;
}

/// Run `prog` over operand_data().
FinalState run_prog(const xasm::Program& prog, bool reference,
                    bool superblock,
                    sim::SuperblockStats* stats_out = nullptr,
                    u64 max_instr = 2'000'000,
                    sim::DotpActivity* activity_out = nullptr) {
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.reference_dispatch = reference;
  cfg.superblock = superblock;
  mem::Memory mem;
  prog.load(mem);
  mem.write_block(kData, operand_data());
  sim::Core core(mem, cfg);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  core.run(max_instr);
  if (stats_out) *stats_out = core.superblock_stats();
  if (activity_out) *activity_out = core.dotp_unit().activity();
  return final_state_of(core, mem);
}

/// A hot hardware loop mixing a post-increment load with ALU ops: small
/// enough to compile, hot enough (31 iterations) to dominate the run.
xasm::Program hot_hwloop_program() {
  xasm::Assembler a(0);
  a.li(r::s0, kData);
  a.li(r::a0, 0);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 31, end);
  a.p_lw_post(r::t0, r::s0, 4);
  a.addi(r::a0, r::a0, 3);
  a.add(r::a1, r::a0, r::t0);
  a.bind(end);
  a.ecall();
  return a.finish();
}

TEST(Superblock, StatsCountFusedExecution) {
  const xasm::Program prog = hot_hwloop_program();
  sim::SuperblockStats stats;
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(sb.reason, sim::HaltReason::kEcall);

  EXPECT_GT(stats.blocks_compiled, 0u);
  EXPECT_GT(stats.entries, 0u);
  EXPECT_GT(stats.fused_iterations, 0u);
  EXPECT_GT(stats.fused_instructions, 0u);
  EXPECT_LE(stats.fused_instructions, sb.perf.instructions);
  EXPECT_EQ(stats.smc_bails, 0u);
  EXPECT_EQ(stats.trap_bails, 0u);

  // And the fused run is bit-identical to both interpreter modes, which
  // fuse nothing.
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  expect_identical(ref, sb);
  expect_identical(fast, sb);
  EXPECT_EQ(ref.sb.fused_instructions, 0u);
  EXPECT_EQ(fast.sb.fused_instructions, 0u);
}

TEST(Superblock, InstructionLimitSweepIsBoundaryExact) {
  // Every instruction-limit value must stop the fused engine on exactly
  // the same boundary (state, counters, halt reason) as the reference
  // interpreter — including limits that land mid-burst, where the engine
  // must either cap the burst budget or reject entry.
  const xasm::Program prog = hot_hwloop_program();
  const FinalState full = run_prog(prog, true, false);
  ASSERT_EQ(full.reason, sim::HaltReason::kEcall);
  const u64 total = full.perf.instructions;

  for (u64 limit = 1; limit <= total + 1; ++limit) {
    const FinalState ref = run_prog(prog, true, false, nullptr, limit);
    const FinalState sb = run_prog(prog, false, true, nullptr, limit);
    expect_identical(ref, sb);
    if (limit <= total) {
      EXPECT_EQ(sb.perf.instructions, std::min(limit, total));
    }
    if (::testing::Test::HasFailure()) FAIL() << "limit " << limit;
  }
}

TEST(Superblock, BudgetEndingOnTheEcallReportsEcall) {
  // run(n) whose n-th instruction is the ecall completed the program, so
  // it reports kEcall with the completed run's state; one instruction
  // less reports kInstrLimit, and run(0) retires nothing — on every
  // dispatch mode alike.
  const xasm::Program prog = hot_hwloop_program();
  const FinalState full = run_prog(prog, true, false);
  ASSERT_EQ(full.reason, sim::HaltReason::kEcall);
  const u64 total = full.perf.instructions;
  for (const auto& [reference, superblock] :
       {std::pair{true, false}, std::pair{false, false},
        std::pair{false, true}}) {
    const FinalState whole =
        run_prog(prog, reference, superblock, nullptr, total);
    expect_identical(full, whole);
    EXPECT_EQ(whole.sb.fused_instructions > 0, superblock);
    const FinalState short_of = run_prog(prog, reference, superblock, nullptr,
                                         total - 1);
    EXPECT_EQ(short_of.reason, sim::HaltReason::kInstrLimit);
    EXPECT_EQ(short_of.perf.instructions, total - 1);
    const FinalState none = run_prog(prog, reference, superblock, nullptr, 0);
    EXPECT_EQ(none.reason, sim::HaltReason::kInstrLimit);
    EXPECT_EQ(none.perf.instructions, 0u);
    if (::testing::Test::HasFailure()) {
      FAIL() << (reference ? "reference" : superblock ? "superblock" : "fast");
    }
  }
}

// ---------------------------------------------------------------------------
// Run-loop parity: run(), run_steps() and run_burst() share one fast loop,
// so slicing a superblock run into chunks of instructions or cycle
// horizons lands on the same machine state, counters and sample series as
// one uninterrupted run().

struct ConvCase {
  kernels::ConvKernel kernel;
  kernels::ConvLayerData data;
};

/// A 4-bit XpulpNN conv layer: small enough to run a few dozen times, hot
/// enough that its MatMul loops fuse.
const ConvCase& hot_conv() {
  static const ConvCase c = [] {
    qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(4);
    spec.in_h = spec.in_w = 4;
    spec.out_c = 8;
    return ConvCase{
        kernels::generate_conv_kernel(spec,
                                      kernels::ConvVariant::kXpulpNN_HwQ),
        kernels::ConvLayerData::random(spec, 0x5eed)};
  }();
  return c;
}

/// How a run is sliced: one run(), run_steps(slice) until halt, or
/// run_burst to successive horizons `slice` cycles past the current clock.
struct Slicing {
  enum Kind { kRun, kSteps, kBursts } kind;
  u64 slice = 0;
};

constexpr Slicing kSlicings[] = {
    {Slicing::kSteps, 1},     {Slicing::kSteps, 7},
    {Slicing::kSteps, 4096},  {Slicing::kBursts, 1},
    {Slicing::kBursts, 97},   {Slicing::kBursts, 1536},
};

std::string slicing_name(const Slicing& s) {
  return (s.kind == Slicing::kRun     ? std::string("run")
          : s.kind == Slicing::kSteps ? "run_steps " + std::to_string(s.slice)
                                      : "run_burst " + std::to_string(s.slice));
}

struct SlicedRun {
  FinalState state;
  sim::CoreState core;
  std::vector<obs::Sample> samples;
  u64 fused_instructions = 0;
  bool slices_exact = true;  // every slice stopped where its bound says
};

/// Run hot_conv() to its ecall with the superblock engine on. A nonzero
/// `sample_interval` attaches a sampler; a nonzero `trace_for` attaches a
/// trace hook that detaches itself after that many instructions.
SlicedRun run_sliced(Slicing how, cycles_t sample_interval = 0,
                     u64 trace_for = 0) {
  constexpr u64 kBudget = 600'000'000;
  const ConvCase& c = hot_conv();
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = true;
  mem::Memory mem;
  c.kernel.program.load(mem);
  kernels::load_conv_data(c.data, c.kernel.layout, mem);
  sim::Core core(mem, cfg);
  core.reset(c.kernel.program.entry(),
             c.kernel.program.base() + c.kernel.program.size_bytes());
  std::unique_ptr<obs::Sampler> sampler;
  if (sample_interval != 0) {
    obs::Sampler::Options opts;
    opts.interval_cycles = sample_interval;
    sampler = std::make_unique<obs::Sampler>(core, opts);
  }
  if (trace_for != 0) {
    core.set_trace([seen = u64{0}, trace_for](addr_t, const isa::Instr&) mutable {
      return ++seen < trace_for;
    });
  }

  SlicedRun r;
  switch (how.kind) {
    case Slicing::kRun:
      r.slices_exact = core.run(kBudget) == sim::HaltReason::kEcall;
      break;
    case Slicing::kSteps:
      while (!core.halted()) {
        const u64 before = core.perf().instructions;
        const u64 n = core.run_steps(how.slice);
        r.slices_exact &= core.perf().instructions - before == n &&
                          (n == how.slice || core.halted());
      }
      break;
    case Slicing::kBursts:
      while (!core.halted()) {
        const cycles_t horizon = core.perf().cycles + how.slice;
        core.run_burst(horizon, kBudget);
        r.slices_exact &= core.perf().cycles >= horizon || core.halted();
      }
      break;
  }
  if (sampler) {
    sampler->finalize();
    r.samples = sampler->samples();
  }
  r.state = final_state_of(core, mem);
  r.core = core.save_state();
  r.fused_instructions = core.superblock_stats().fused_instructions;
  return r;
}

void expect_same_run(const SlicedRun& a, const SlicedRun& b) {
  EXPECT_TRUE(b.slices_exact);
  expect_identical(a.state, b.state);
  expect_same_core_state(a.core, b.core);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (size_t k = 0; k < a.samples.size(); ++k) {
    EXPECT_EQ(a.samples[k].ts_cycles, b.samples[k].ts_cycles) << "window " << k;
    test::expect_same_counters(a.samples[k].perf, b.samples[k].perf, "perf");
    test::expect_same_counters(a.samples[k].mem, b.samples[k].mem, "mem");
    test::expect_same_counters(a.samples[k].dotp, b.samples[k].dotp, "dotp");
    if (::testing::Test::HasFailure()) FAIL() << "window " << k;
  }
}

TEST(RunLoopParity, SlicedRunsMatchOneRun) {
  const SlicedRun whole = run_sliced({Slicing::kRun});
  ASSERT_EQ(whole.state.reason, sim::HaltReason::kEcall);
  ASSERT_GT(whole.fused_instructions, 0u);
  for (const Slicing& s : kSlicings) {
    const SlicedRun sliced = run_sliced(s);
    expect_same_run(whole, sliced);
    // Slices long enough to hold an iteration still fuse.
    if (s.slice >= 97) {
      EXPECT_GT(sliced.fused_instructions, 0u);
    }
    if (::testing::Test::HasFailure()) FAIL() << slicing_name(s);
  }
}

TEST(RunLoopParity, SlicedRunsFireTheSameSamples) {
  constexpr cycles_t kInterval = 211;
  const SlicedRun whole = run_sliced({Slicing::kRun}, kInterval);
  ASSERT_GT(whole.samples.size(), 10u);
  ASSERT_GT(whole.fused_instructions, 0u);
  for (const Slicing& s : kSlicings) {
    expect_same_run(whole, run_sliced(s, kInterval));
    if (::testing::Test::HasFailure()) FAIL() << slicing_name(s);
  }
}

TEST(RunLoopParity, TraceHookDetachingMidRunHandsOverToTheFastLoop) {
  // Traced instructions never fuse; once the hook detaches, the rest of
  // the run fuses as usual — whichever entry point is stepping.
  const SlicedRun untraced = run_sliced({Slicing::kRun});
  const u64 trace_for = untraced.state.perf.instructions / 3;
  const SlicedRun whole = run_sliced({Slicing::kRun}, 0, trace_for);
  expect_same_run(untraced, whole);
  EXPECT_GT(whole.fused_instructions, 0u);
  EXPECT_LT(whole.fused_instructions, untraced.fused_instructions);
  for (const Slicing& s : kSlicings) {
    expect_same_run(whole, run_sliced(s, 0, trace_for));
    if (::testing::Test::HasFailure()) FAIL() << slicing_name(s);
  }
}

TEST(Superblock, DotVariantSweepBitIdentical) {
  // Hot hwloop around [2 post-inc loads + 1 dot]: every mnemonic x format
  // combination, diffed fused-vs-reference. This walks every fused dot
  // path: the host-SIMD byte, nibble and crumb kernels, the
  // scalar-replicated expansions, and the generic lane kernel (16-bit).
  using isa::SimdFmt;
  struct OpCase {
    const char* name;
    void (xasm::Assembler::*emit)(SimdFmt, u8, u8, u8);
  };
  const OpCase ops[] = {
      {"dotup", &xasm::Assembler::pv_dotup},
      {"dotusp", &xasm::Assembler::pv_dotusp},
      {"dotsp", &xasm::Assembler::pv_dotsp},
      {"sdotup", &xasm::Assembler::pv_sdotup},
      {"sdotusp", &xasm::Assembler::pv_sdotusp},
      {"sdotsp", &xasm::Assembler::pv_sdotsp},
  };
  const SimdFmt fmts[] = {SimdFmt::kB, SimdFmt::kBSc, SimdFmt::kH,
                          SimdFmt::kHSc, SimdFmt::kN, SimdFmt::kNSc,
                          SimdFmt::kC, SimdFmt::kCSc};

  for (const OpCase& op : ops) {
    for (const SimdFmt fmt : fmts) {
      xasm::Assembler a(0);
      a.li(r::s0, kData);
      a.li(r::a0, 0x1234);  // live accumulator for the sdot variants
      const xasm::Assembler::Label end = a.new_label();
      a.lp_setupi(0, 24, end);
      a.p_lw_post(r::t0, r::s0, 4);
      a.p_lw_post(r::t1, r::s0, 4);
      (a.*(op.emit))(fmt, r::a0, r::t0, r::t1);
      a.bind(end);
      a.ecall();
      const xasm::Program prog = a.finish();

      sim::SuperblockStats stats;
      const FinalState ref = run_prog(prog, true, false);
      const FinalState sb = run_prog(prog, false, true, &stats);
      ASSERT_EQ(ref.reason, sim::HaltReason::kEcall) << op.name;
      EXPECT_GT(stats.fused_iterations, 0u) << op.name;
      expect_identical(ref, sb);
      if (::testing::Test::HasFailure()) {
        FAIL() << op.name << " fmt " << static_cast<int>(fmt);
      }
    }
  }
}

TEST(Superblock, ConvInnerShapeBitIdentical) {
  // The 2x2-blocked MatMul inner body the conv generator emits (4 post-inc
  // word loads, one base each, + 4 accumulate-dots in the 2x2 operand
  // pattern): the shape the engine runs in whole kConvInner runs. Every uniform width and mixed selector, with every
  // signedness, must reach them and stay bit-identical to the reference
  // interpreter — registers, memory, counters and the dot unit's
  // switching activity.
  using isa::SimdFmt;
  using UniformDot = void (xasm::Assembler::*)(SimdFmt, u8, u8, u8);
  using MixedDot = void (xasm::Assembler::*)(u8, u8, u8);
  struct ShapeCase {
    std::string name;
    int sel;  // mpc selector of a mixed body, -1 for a uniform one
    SimdFmt fmt;
    UniformDot uniform;
    MixedDot mixed;
  };
  const std::pair<const char*, UniformDot> uniform_ops[] = {
      {"sdotusp", &xasm::Assembler::pv_sdotusp},
      {"sdotsp", &xasm::Assembler::pv_sdotsp},
      {"sdotup", &xasm::Assembler::pv_sdotup},
  };
  const std::pair<const char*, MixedDot> mixed_ops[] = {
      {"mlsdotusp", &xasm::Assembler::pv_mlsdotusp},
      {"mlsdotsp", &xasm::Assembler::pv_mlsdotsp},
      {"mlsdotup", &xasm::Assembler::pv_mlsdotup},
  };
  std::vector<ShapeCase> cases;
  for (const auto& [name, emit] : uniform_ops) {
    for (const auto& [suffix, fmt] : {std::pair{".b", SimdFmt::kB},
                                      {".n", SimdFmt::kN},
                                      {".c", SimdFmt::kC}}) {
      cases.push_back({std::string(name) + suffix, -1, fmt, emit, nullptr});
    }
  }
  for (const auto& [name, emit] : mixed_ops) {
    for (int sel = 0; sel < 3; ++sel) {
      cases.push_back({std::string(name) + " sel " + std::to_string(sel),
                       sel, SimdFmt::kNone, nullptr, emit});
    }
  }

  // Weights come from kData + 0x100: random words, so a mixed body's
  // weight words carry nonzero bits above the (32/WA)*WB the ISA reads,
  // which the macro-op must ignore exactly like the interpreter.
  const std::vector<u8> data = operand_data();
  bool upper_bits = false;
  for (size_t k = 0x100 + 2; k < 0x100 + 24 * 8; k += 4) {
    upper_bits = upper_bits || data[k] != 0 || data[k + 1] != 0;
  }
  ASSERT_TRUE(upper_bits);

  for (const ShapeCase& c : cases) {
    xasm::Assembler a(0);
    if (c.sel >= 0) a.csrrwi(r::zero, isa::kMpcCsr, static_cast<u32>(c.sel));
    a.li(r::s0, kData);
    a.li(r::s2, kData + 4);
    a.li(r::s1, kData + 0x100);
    a.li(r::s3, kData + 0x104);
    for (u8 acc : {r::a4, r::a5, r::a6, r::a7}) a.li(acc, 0x1234);
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setupi(0, 24, end);
    a.p_lw_post(r::t0, r::s1, 8);  // weight channel 0
    a.p_lw_post(r::t1, r::s3, 8);  // weight channel 1
    a.p_lw_post(r::t2, r::s0, 8);  // activation pixel 0
    a.p_lw_post(r::t3, r::s2, 8);  // activation pixel 1
    auto dot = [&](u8 rd, u8 x, u8 w) {
      if (c.sel >= 0) {
        (a.*(c.mixed))(rd, x, w);
      } else {
        (a.*(c.uniform))(c.fmt, rd, x, w);
      }
    };
    dot(r::a4, r::t2, r::t0);
    dot(r::a5, r::t3, r::t0);
    dot(r::a6, r::t2, r::t1);
    dot(r::a7, r::t3, r::t1);
    a.bind(end);
    a.ecall();
    const xasm::Program prog = a.finish();

    sim::SuperblockStats stats;
    sim::DotpActivity ref_act, sb_act;
    const FinalState ref =
        run_prog(prog, true, false, nullptr, 2'000'000, &ref_act);
    const FinalState sb =
        run_prog(prog, false, true, &stats, 2'000'000, &sb_act);
    ASSERT_EQ(ref.reason, sim::HaltReason::kEcall) << c.name;
    // Every fused iteration retires in one whole run.
    EXPECT_GT(stats.macro_iterations, 0u) << c.name;
    EXPECT_EQ(stats.macro_iterations, stats.fused_iterations) << c.name;
    EXPECT_EQ(stats.whole_runs, 1u) << c.name;
    expect_identical(ref, sb);
    EXPECT_EQ(ref_act.operand_toggles, sb_act.operand_toggles) << c.name;
    EXPECT_EQ(ref_act.ops, sb_act.ops) << c.name;
    if (::testing::Test::HasFailure()) FAIL() << c.name;
  }
}

// ---------------------------------------------------------------------------
// Whole MatMul runs: a kConvInner hardware-loop run retires in one host
// loop after one check per load stream. Every edge of that check, and every
// bound landing inside a run, must leave the fast interpreter's state.

/// How a 2x2 MatMul body differs from the one the conv generator emits.
enum class MatMulBody {
  kGenerated,      // distinct bases a0..a3, operands t0..t3, accs a4..a7
  kNoAccumulate,   // pv.dotusp: each dot overwrites its destination
  kBaseIsLoadRd,   // p.lw t2, 4(t2!)
  kSharedLoadRd,   // two loads into t0
  kDotWritesBase,  // the last dot accumulates into a3, a load base
  kLoadRdUnused,   // x1 loaded into s2, the dots read t3
  kSharedBase,     // w1 loaded through a0, w0's base
};

/// A hot 2x2 MatMul hardware loop of `trips` nibble iterations: weights
/// from kData, activations from `act`.
xasm::Program matmul_program(MatMulBody body, addr_t act, u32 trips = 40) {
  using isa::SimdFmt;
  xasm::Assembler a(0);
  a.li(r::a0, kData);
  a.li(r::a1, kData + 0x80);
  a.li(r::a2, static_cast<i32>(act));
  a.li(r::a3, static_cast<i32>(act + 0x80));
  for (u8 acc : {r::a4, r::a5, r::a6, r::a7}) a.li(acc, 0x55);
  a.li(r::s3, static_cast<i32>(trips));
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setup(0, r::s3, end);
  a.p_lw_post(body == MatMulBody::kSharedLoadRd ? r::t1 : r::t0, r::a0, 4);
  a.p_lw_post(r::t1, body == MatMulBody::kSharedBase ? r::a0 : r::a1, 4);
  if (body == MatMulBody::kBaseIsLoadRd) {
    a.p_lw_post(r::t2, r::t2, 4);
  } else {
    a.p_lw_post(r::t2, r::a2, 4);
  }
  a.p_lw_post(body == MatMulBody::kLoadRdUnused ? r::s2 : r::t3, r::a3, 4);
  const auto dot = body == MatMulBody::kNoAccumulate
                       ? &xasm::Assembler::pv_dotusp
                       : &xasm::Assembler::pv_sdotusp;
  (a.*dot)(SimdFmt::kN, r::a4, r::t2, r::t0);
  (a.*dot)(SimdFmt::kN, r::a5, r::t3, r::t0);
  (a.*dot)(SimdFmt::kN, r::a6, r::t2, r::t1);
  (a.*dot)(SimdFmt::kN,
           body == MatMulBody::kDotWritesBase ? r::a3 : r::a7, r::t3, r::t1);
  a.bind(end);
  a.ecall();
  return a.finish();
}

struct MatMulRun {
  FinalState state;
  std::vector<obs::Sample> samples;
};

/// Run `prog` over operand_data() on the fast interpreter or the
/// superblock engine, sliced like run_sliced and optionally sampled; a
/// guest fault ends the run with its message in state.fault.
MatMulRun run_matmul(const xasm::Program& prog, bool superblock,
                     Slicing how = {Slicing::kRun},
                     cycles_t sample_interval = 0) {
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = superblock;
  mem::Memory mem;
  prog.load(mem);
  mem.write_block(kData, operand_data());
  sim::Core core(mem, cfg);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  std::unique_ptr<obs::Sampler> sampler;
  if (sample_interval != 0) {
    obs::Sampler::Options opts;
    opts.interval_cycles = sample_interval;
    sampler = std::make_unique<obs::Sampler>(core, opts);
  }
  std::string fault;
  try {
    while (!core.halted()) {
      if (how.kind == Slicing::kRun) {
        core.run(2'000'000);
      } else if (how.kind == Slicing::kSteps) {
        core.run_steps(how.slice);
      } else {
        core.run_burst(core.perf().cycles + how.slice, 2'000'000);
      }
    }
  } catch (const SimError& e) {
    fault = e.what();
  }
  MatMulRun r;
  if (sampler) {
    sampler->finalize();
    r.samples = sampler->samples();
  }
  r.state = final_state_of(core, mem);
  r.state.fault = std::move(fault);
  return r;
}

void expect_same_matmul_run(const MatMulRun& fast, const MatMulRun& sb) {
  expect_identical(fast.state, sb.state);
  ASSERT_EQ(fast.samples.size(), sb.samples.size());
  for (size_t k = 0; k < fast.samples.size(); ++k) {
    EXPECT_EQ(fast.samples[k].ts_cycles, sb.samples[k].ts_cycles) << k;
    test::expect_same_counters(fast.samples[k].perf, sb.samples[k].perf);
    test::expect_same_counters(fast.samples[k].mem, sb.samples[k].mem);
    test::expect_same_counters(fast.samples[k].dotp, sb.samples[k].dotp);
  }
}

TEST(WholeMatMulRuns, RetireTheHotLoopInOneRun) {
  for (const MatMulBody body :
       {MatMulBody::kGenerated, MatMulBody::kNoAccumulate}) {
    const xasm::Program prog = matmul_program(body, kData + 0x100);
    const MatMulRun fast = run_matmul(prog, false);
    const MatMulRun sb = run_matmul(prog, true);
    ASSERT_EQ(fast.state.reason, sim::HaltReason::kEcall);
    expect_same_matmul_run(fast, sb);
    // The body heats up interpreted, compiles, and its remaining
    // iterations retire in one whole run.
    EXPECT_EQ(sb.state.sb.whole_runs, 1u);
    EXPECT_EQ(sb.state.sb.macro_iterations, sb.state.sb.fused_iterations);
    EXPECT_EQ(sb.state.sb.macro_iterations, 40u - 16u);
    if (::testing::Test::HasFailure()) FAIL() << static_cast<int>(body);
  }
}

TEST(WholeMatMulRuns, StreamLeavingMemoryFaultsAtItsIteration) {
  // The x1 stream (act + 0x80) leaves memory at iteration 30 of 40: the
  // run cannot be proven in bounds, so the op loop retires iterations up
  // to the fault and repairs it exactly.
  const addr_t act = mem::Memory::kDefaultSize - 0x80 - 30 * 4;
  const xasm::Program prog = matmul_program(MatMulBody::kGenerated, act);
  const MatMulRun fast = run_matmul(prog, false);
  const MatMulRun sb = run_matmul(prog, true);
  ASSERT_NE(fast.state.fault.find("memory fault"), std::string::npos)
      << fast.state.fault;
  expect_same_matmul_run(fast, sb);
  EXPECT_EQ(sb.state.sb.trap_bails, 1u);
  EXPECT_EQ(sb.state.sb.macro_iterations, 0u);
  EXPECT_GT(sb.state.sb.fused_iterations, 0u);
}

TEST(WholeMatMulRuns, MisalignedStreamTakesTheOpLoop) {
  const xasm::Program prog =
      matmul_program(MatMulBody::kGenerated, kData + 0x102);
  const MatMulRun fast = run_matmul(prog, false);
  const MatMulRun sb = run_matmul(prog, true);
  ASSERT_EQ(fast.state.reason, sim::HaltReason::kEcall);
  EXPECT_GT(fast.state.perf.mem_stall_cycles, 0u);
  expect_same_matmul_run(fast, sb);
  EXPECT_EQ(sb.state.sb.macro_iterations, 0u);
  EXPECT_GT(sb.state.sb.fused_iterations, 0u);
}

TEST(WholeMatMulRuns, AliasedRegistersAreNotMatched) {
  for (const MatMulBody body :
       {MatMulBody::kBaseIsLoadRd, MatMulBody::kSharedLoadRd,
        MatMulBody::kDotWritesBase, MatMulBody::kLoadRdUnused,
        MatMulBody::kSharedBase}) {
    const xasm::Program prog = matmul_program(body, kData + 0x100);
    const MatMulRun fast = run_matmul(prog, false);
    const MatMulRun sb = run_matmul(prog, true);
    ASSERT_EQ(fast.state.reason, sim::HaltReason::kEcall);
    expect_same_matmul_run(fast, sb);
    EXPECT_EQ(sb.state.sb.whole_runs, 0u);
    EXPECT_GT(sb.state.sb.fused_iterations, 0u);
    if (::testing::Test::HasFailure()) FAIL() << static_cast<int>(body);
  }
}

TEST(WholeMatMulRuns, BudgetsDeadlinesAndHorizonsLandMidRun) {
  // Instruction budgets (run_steps, as checkpointing slices a run), burst
  // horizons and sampling deadlines that fall inside a run cap it short
  // of the bound; the iterations that could reach it take the op loop.
  const xasm::Program prog =
      matmul_program(MatMulBody::kGenerated, kData + 0x100, 200);
  constexpr Slicing kCuts[] = {
      {Slicing::kRun},       {Slicing::kSteps, 3},  {Slicing::kSteps, 13},
      {Slicing::kSteps, 97}, {Slicing::kBursts, 5}, {Slicing::kBursts, 61},
  };
  for (const cycles_t interval : {cycles_t{0}, cycles_t{37}, cycles_t{211}}) {
    for (const Slicing& how : kCuts) {
      const MatMulRun fast = run_matmul(prog, false, how, interval);
      const MatMulRun sb = run_matmul(prog, true, how, interval);
      ASSERT_EQ(fast.state.reason, sim::HaltReason::kEcall);
      expect_same_matmul_run(fast, sb);
      if (how.slice == 0 || how.slice >= 61) {
        EXPECT_GT(sb.state.sb.whole_runs, 0u);
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << slicing_name(how) << ", sampled every " << interval;
      }
    }
  }
}

TEST(Superblock, NoDotHasSignedActivationsWithUnsignedWeights) {
  // The kConvInner macro-op has no signed x unsigned conv_block: no table
  // entry may decode to that signedness, and a body that carries it (as a
  // future mnemonic would) must fall to the generic op loop.
  int dots = 0;
  for (const isa::IsaTableEntry& e : isa::isa_table()) {
    for (isa::Instr in : isa::canonical_samples(e)) {
      isa::finalize_decode(in);
      if (!isa::is_dotp(in.op)) continue;
      ++dots;
      EXPECT_FALSE(in.has(isa::iflag::kDotSignedA) &&
                   !in.has(isa::iflag::kDotSignedB))
          << isa::mnemonic_name(e.op) << isa::simd_fmt_suffix(e.fmt);
    }
  }
  EXPECT_GT(dots, 0);

  // A hand-built 2x2 body: four post-increment word loads through a0..a3,
  // then four accumulating byte dots over (t2, t3) x (t0, t1) into a4..a7.
  const auto body = [](u16 sign_flags) {
    sim::SuperblockPlan p;
    const u8 bases[] = {r::a0, r::a1, r::a2, r::a3};
    for (const u8 rd : {r::t0, r::t1, r::t2, r::t3}) {
      sim::SbOp ld;
      ld.kind = sim::SbKind::kMem;
      ld.rd = rd;
      ld.rs1 = bases[p.ops.size()];
      ld.aux = 4;
      ld.flags = isa::iflag::kMemPostInc;
      p.ops.push_back(ld);
    }
    const u8 acts[] = {r::t2, r::t3, r::t2, r::t3};
    const u8 wts[] = {r::t0, r::t0, r::t1, r::t1};
    const u8 accs[] = {r::a4, r::a5, r::a6, r::a7};
    for (size_t k = 0; k < 4; ++k) {
      sim::SbOp dot;
      dot.kind = sim::SbKind::kDotp;
      dot.fmt = isa::SimdFmt::kB;
      dot.rd = accs[k];
      dot.rs1 = acts[k];
      dot.rs2 = wts[k];
      dot.flags = isa::iflag::kDotAccum | sign_flags;
      p.ops.push_back(dot);
    }
    return p;
  };
  using isa::iflag::kDotSignedA;
  using isa::iflag::kDotSignedB;
  EXPECT_TRUE(sim::matches_conv_inner(body(0)));
  EXPECT_TRUE(sim::matches_conv_inner(body(kDotSignedB)));
  EXPECT_TRUE(sim::matches_conv_inner(body(kDotSignedA | kDotSignedB)));
  EXPECT_FALSE(sim::matches_conv_inner(body(kDotSignedA)));
}

TEST(Superblock, MixedDotSweepBitIdentical) {
  // Every mixed mnemonic under every legal mpc selector, in the hot-loop
  // shape the engine fuses. The fused body bakes the selector at compile
  // time (SbOp::imm), so this exercises the baked path for all 18
  // combinations against the reference interpreter.
  struct OpCase {
    const char* name;
    void (xasm::Assembler::*emit)(u8, u8, u8);
  };
  const OpCase ops[] = {
      {"mldotup", &xasm::Assembler::pv_mldotup},
      {"mldotusp", &xasm::Assembler::pv_mldotusp},
      {"mldotsp", &xasm::Assembler::pv_mldotsp},
      {"mlsdotup", &xasm::Assembler::pv_mlsdotup},
      {"mlsdotusp", &xasm::Assembler::pv_mlsdotusp},
      {"mlsdotsp", &xasm::Assembler::pv_mlsdotsp},
  };
  for (const OpCase& op : ops) {
    for (u32 sel = 0; sel < 3; ++sel) {
      xasm::Assembler a(0);
      a.csrrwi(r::zero, isa::kMpcCsr, sel);
      a.li(r::s0, kData);
      a.li(r::a0, 0x1234);
      const xasm::Assembler::Label end = a.new_label();
      a.lp_setupi(0, 24, end);
      a.p_lw_post(r::t0, r::s0, 4);
      a.p_lw_post(r::t1, r::s0, 4);
      (a.*(op.emit))(r::a0, r::t0, r::t1);
      a.bind(end);
      a.ecall();
      const xasm::Program prog = a.finish();

      sim::SuperblockStats stats;
      const FinalState ref = run_prog(prog, true, false);
      const FinalState fast = run_prog(prog, false, false);
      const FinalState sb = run_prog(prog, false, true, &stats);
      ASSERT_EQ(ref.reason, sim::HaltReason::kEcall) << op.name;
      EXPECT_GT(stats.fused_iterations, 0u) << op.name << " sel " << sel;
      expect_identical(ref, fast);
      expect_identical(ref, sb);
      if (::testing::Test::HasFailure()) {
        FAIL() << op.name << " sel " << sel;
      }
    }
  }
}

/// The mpc-flip regression program: an outer loop re-enters the same hot
/// mixed hwloop with a different selector each pass, so a plan compiled
/// with one baked selector would misfuse on the next pass unless the CSR
/// write evicts it.
xasm::Program mpc_flip_program() {
  xasm::Assembler a(0);
  a.csrrwi(r::zero, isa::kMpcCsr, 0);
  a.li(r::s5, 3);  // one pass per selector
  a.li(r::s6, 0);  // next selector value
  a.li(r::a0, 0x55);
  const xasm::Assembler::Label outer = a.here();
  a.li(r::s0, kData);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 24, end);
  a.p_lw_post(r::t0, r::s0, 4);
  a.p_lw_post(r::t1, r::s0, 4);
  a.pv_mlsdotusp(r::a0, r::t0, r::t1);
  a.bind(end);
  a.addi(r::s6, r::s6, 1);               // 1, 2, 3 (3 never reaches a dot:
  a.csrrw(r::zero, isa::kMpcCsr, r::s6);  // the loop exits first)
  a.addi(r::s5, r::s5, -1);
  a.bne(r::s5, r::zero, outer);
  a.ecall();
  return a.finish();
}

TEST(Superblock, MpcFlipMidHotLoopEvictsAndStaysExact) {
  const xasm::Program prog = mpc_flip_program();
  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);

  // The selector flip between passes must evict the baked plan (never
  // silently reuse it) and the engine recompiles for the next selector.
  EXPECT_GE(stats.mpc_evictions, 2u);
  EXPECT_GE(stats.blocks_compiled, 2u);
  EXPECT_GT(stats.fused_iterations, 0u);

  // All three dispatch modes agree bit-for-bit on the final state.
  expect_identical(ref, fast);
  expect_identical(ref, sb);
}

TEST(Superblock, CsrWriteInsideHotLoopNeverFuses) {
  // A loop body containing the mpc write itself is ineligible for fusion
  // (ExecClass::kCsr never fuses) — the engine must fall back to the
  // interpreter, not bake a selector that changes mid-burst.
  xasm::Assembler a(0);
  a.li(r::s0, kData);
  a.li(r::a0, 0);
  a.li(r::s6, 0);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 24, end);
  a.andi(r::s6, r::s6, 1);                // alternate selectors 0/1
  a.csrrw(r::zero, isa::kMpcCsr, r::s6);
  a.p_lw_post(r::t0, r::s0, 4);
  a.pv_mlsdotusp(r::a0, r::t0, r::t0);
  a.addi(r::s6, r::s6, 1);
  a.bind(end);
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.fused_iterations, 0u);
  expect_identical(ref, sb);
}

// ---- plan cache: heat-gated promotion and the start-pc index ----

TEST(SuperblockPlanCache, OneShotHwloopsCompileNoPlans) {
  // Many hardware loops with distinct bodies (each loads its own offset),
  // each entered once for a few trips: heat is counted per body shape, so
  // none gets hot and none compiles, and the result is still bit-identical.
  xasm::Assembler a(0);
  a.li(r::s0, kData);
  a.li(r::a0, 0);
  for (int k = 0; k < 200; ++k) {
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setupi(0, 6, end);
    a.lbu(r::t0, r::s0, k);
    a.add(r::a0, r::a0, r::t0);
    a.bind(end);
  }
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.blocks_compiled, 0u);
  EXPECT_EQ(stats.entries, 0u);
  expect_identical(ref, fast);
  expect_identical(ref, sb);
}

/// An outer branch loop entering the same 24-trip hardware loop `passes`
/// times. With `patch`, every pass ends by storing the loop's first
/// instruction word back over itself: a self-modifying store that changes
/// no behaviour but evicts the compiled plan.
xasm::Program reentry_program(int passes, bool patch) {
  const auto build = [&](addr_t target_guess, addr_t* target_out) {
    xasm::Assembler a(0);
    a.li(r::s5, passes);
    a.li(r::a0, 0);
    a.li(r::t2, static_cast<i32>(target_guess));
    const xasm::Assembler::Label outer = a.here();
    a.li(r::s0, kData);
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setupi(0, 24, end);
    *target_out = a.current_addr();
    a.p_lw_post(r::t0, r::s0, 4);
    a.add(r::a0, r::a0, r::t0);
    a.bind(end);
    if (patch) {
      a.lw(r::t1, r::t2, 0);
      a.sw(r::t1, r::t2, 0);
    }
    a.addi(r::s5, r::s5, -1);
    a.bne(r::s5, r::zero, outer);
    a.ecall();
    return a.finish();
  };
  // Two-pass assembly: guess and target both fit the 12-bit li form, so
  // the layout is identical across passes.
  addr_t target = 0;
  build(64, &target);
  addr_t check = 0;
  const xasm::Program prog = build(target, &check);
  EXPECT_EQ(check, target);
  return prog;
}

TEST(SuperblockPlanCache, ReenteredHwloopReusesItsPlan) {
  // The first pass promotes the loop on backedge heat and compiles it;
  // every later pass finds the plan through the index at lp.setup and
  // fuses all 24 iterations.
  const xasm::Program prog = reentry_program(5, false);
  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.blocks_compiled, 1u);
  EXPECT_EQ(stats.entries, 5u);
  EXPECT_EQ(stats.fused_iterations, (24u - 16u) + 4u * 24u);
  expect_identical(ref, fast);
  expect_identical(ref, sb);
}

TEST(SuperblockPlanCache, SmcInvalidatedPlanRecompilesOnNextHotEntry) {
  // The self-modifying store after each pass drops the plan from the
  // index; the next pass interprets until the loop is hot again and
  // recompiles it, rather than finding a stale plan.
  const xasm::Program prog = reentry_program(3, true);
  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.blocks_compiled, 3u);
  EXPECT_EQ(stats.invalidations, 3u);
  EXPECT_EQ(stats.fused_iterations, 3u * (24u - 16u));
  expect_identical(ref, fast);
  expect_identical(ref, sb);
}

TEST(SuperblockPlanCache, MpcEvictedPlanRecompilesOnNextHotEntry) {
  // Each pass of the mpc-flip program ends with a selector write that
  // evicts the plan baked with the old selector; every pass recompiles
  // once the loop is hot again.
  const xasm::Program prog = mpc_flip_program();
  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.blocks_compiled, 3u);
  EXPECT_EQ(stats.mpc_evictions, 3u);
  EXPECT_EQ(stats.fused_iterations, 3u * (24u - 16u));
  expect_identical(ref, fast);
  expect_identical(ref, sb);
}

TEST(SuperblockPlanCache, PublishesMpcEvictions) {
  sim::SuperblockStats stats;
  run_prog(mpc_flip_program(), false, true, &stats);
  ASSERT_GT(stats.mpc_evictions, 0u);
  obs::Registry reg;
  obs::add_superblock_stats(reg, "sb", stats);
  EXPECT_NE(reg.csv().find("sb.mpc_evictions," +
                           std::to_string(stats.mpc_evictions) + "\n"),
            std::string::npos);
}


// ---- shape-shared plans: one hardware-loop plan per body shape ----

/// Run `prog` over operand_data() and keep the boundary CoreState too.
std::pair<FinalState, sim::CoreState> run_with_state(
    const xasm::Program& prog, bool reference, bool superblock,
    sim::SuperblockStats* stats_out = nullptr, u64 max_instr = 2'000'000) {
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.reference_dispatch = reference;
  cfg.superblock = superblock;
  mem::Memory mem;
  prog.load(mem);
  mem.write_block(kData, operand_data());
  sim::Core core(mem, cfg);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  core.run(max_instr);
  if (stats_out) *stats_out = core.superblock_stats();
  return {final_state_of(core, mem), core.save_state()};
}

/// The im2col copy loop, `p.lw t1,4(s0!); p.sw t1,4(s1!)`, at a pc of its
/// own with `trips` iterations (the conv generator's per-pixel shape).
void copy_loop(xasm::Assembler& a, u32 trips) {
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, trips, end);
  a.p_lw_post(r::t1, r::s0, 4);
  a.p_sw_post(r::t1, r::s1, 4);
  a.bind(end);
}

/// `copies` copies of the copy loop with trip counts cycling 2..13, each
/// re-seeding its source pointer, all storing into one output run.
xasm::Program shared_body_program(int copies) {
  xasm::Assembler a(0);
  a.li(r::s1, kData + 0x400);
  for (int k = 0; k < copies; ++k) {
    a.li(r::s0, static_cast<i32>(kData + 4 * (k % 7)));
    copy_loop(a, 2 + static_cast<u32>(k % 12));
    a.addi(r::a0, r::a0, 1);
  }
  a.ecall();
  return a.finish();
}

TEST(SuperblockShapePlans, OnePlanEnteredAtManyPcsBitIdentical) {
  // Heat adds up over the copies of one body, so the shape compiles once
  // and every later copy enters that plan rebased to its own pc, whatever
  // its trip count.
  const xasm::Program prog = shared_body_program(40);
  sim::SuperblockStats stats;
  const auto [ref, ref_state] = run_with_state(prog, true, false);
  const auto [fast, fast_state] = run_with_state(prog, false, false);
  const auto [sb, sb_state] = run_with_state(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.blocks_compiled, 1u);
  EXPECT_GE(stats.rebases, 30u);
  EXPECT_GE(stats.entries, stats.rebases);
  EXPECT_EQ(stats.trap_bails + stats.smc_bails, 0u);
  expect_identical(ref, fast);
  expect_identical(ref, sb);
  expect_same_core_state(ref_state, sb_state);
}

TEST(SuperblockShapePlans, InstructionLimitsInsideRebasedBurstsAreExact) {
  const xasm::Program prog = shared_body_program(24);
  const FinalState full = run_prog(prog, true, false);
  ASSERT_EQ(full.reason, sim::HaltReason::kEcall);
  for (u64 limit = 1; limit <= full.perf.instructions; limit += 5) {
    const auto [ref, ref_state] =
        run_with_state(prog, true, false, nullptr, limit);
    const auto [sb, sb_state] =
        run_with_state(prog, false, true, nullptr, limit);
    expect_identical(ref, sb);
    expect_same_core_state(ref_state, sb_state);
    if (::testing::Test::HasFailure()) FAIL() << "limit " << limit;
  }
}

/// Ten copies of the copy loop (the plan compiles on the second and roams
/// to the rest), then two stores: the same word back over the first word
/// of the copy the plan sits on (evicting it), and a different word over
/// the first word of copy `B`, which then runs; copies C and D follow.
xasm::Program smc_shared_body_program() {
  const auto build = [](addr_t patch_guess, addr_t donor_guess,
                        addr_t last_guess, addr_t* patch_out,
                        addr_t* donor_out, addr_t* last_out) {
    xasm::Assembler a(0);
    a.li(r::s1, kData + 0x400);
    for (int k = 0; k < 10; ++k) {
      a.li(r::s0, kData);
      if (k == 9) *last_out = a.current_addr() + 4;  // after lp.setupi
      copy_loop(a, 10);
    }
    a.lw(r::t5, r::zero, static_cast<i32>(last_guess));
    a.sw(r::t5, r::zero, static_cast<i32>(last_guess));
    a.lw(r::t5, r::zero, static_cast<i32>(donor_guess));
    a.sw(r::t5, r::zero, static_cast<i32>(patch_guess));
    for (int k = 0; k < 3; ++k) {
      a.li(r::s0, kData + 64);
      if (k == 0) *patch_out = a.current_addr() + 4;
      copy_loop(a, 10);
    }
    a.ecall();
    *donor_out = a.current_addr();
    a.p_lw_post(r::t2, r::s0, 4);  // never executed: the patch word
    return a.finish();
  };
  // Two-pass assembly: every address fits the 12-bit immediate, so the
  // layout is the same on both passes.
  addr_t patch = 0, donor = 0, last = 0;
  build(0, 0, 0, &patch, &donor, &last);
  addr_t p2 = 0, d2 = 0, l2 = 0;
  const xasm::Program prog = build(patch, donor, last, &p2, &d2, &l2);
  EXPECT_EQ(p2, patch);
  EXPECT_EQ(d2, donor);
  EXPECT_EQ(l2, last);
  return prog;
}

TEST(SuperblockShapePlans, StoreIntoOneCopyOfASharedBody) {
  // Copy B's patched body loads into t2 and stores the stale t1: a plan
  // that roamed onto it would store the loaded words instead. The store
  // over the plan's own copy evicts it, so copy C runs interpreted and
  // copy D recompiles the shape.
  const xasm::Program prog = smc_shared_body_program();
  sim::SuperblockStats stats;
  const auto [ref, ref_state] = run_with_state(prog, true, false);
  const auto [fast, fast_state] = run_with_state(prog, false, false);
  const auto [sb, sb_state] = run_with_state(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.blocks_compiled, 2u);
  EXPECT_EQ(stats.rebases, 8u);
  expect_identical(ref, fast);
  expect_identical(ref, sb);
  expect_same_core_state(ref_state, sb_state);
}

/// Six warm-up copies (the copy shape compiles and roams), then a copy of
/// 12 words from `src` to `dst`, then a run of 16 `addi a0, a0, 1`.
/// With `patch_pass`, an outer loop runs the addi run, then the copy, twice,
/// and the copy's source is 12 `addi a1, a1, 3` words after the ecall, so
/// the copy patches code the first pass decoded.
xasm::Program edge_copy_program(addr_t dst, addr_t src, bool patch_pass,
                                addr_t* run_out, addr_t* donor_out) {
  xasm::Assembler a(0);
  for (int k = 0; k < 6; ++k) {
    a.li(r::s0, static_cast<i32>(kData));
    a.li(r::s1, static_cast<i32>(kData + 0x400));
    copy_loop(a, 12);
  }
  a.li(r::s5, patch_pass ? 2 : 1);
  const xasm::Assembler::Label outer = a.here();
  *run_out = a.current_addr();
  for (int k = 0; k < 16; ++k) a.addi(r::a0, r::a0, 1);
  a.li(r::s0, static_cast<i32>(src));
  a.li(r::s1, static_cast<i32>(dst));
  copy_loop(a, 12);
  a.addi(r::s5, r::s5, -1);
  a.bne(r::s5, r::zero, outer);
  a.ecall();
  *donor_out = a.current_addr();
  for (int k = 0; k < 12; ++k) a.addi(r::a1, r::a1, 3);
  return a.finish();
}

TEST(SuperblockShapePlans, CopyRunsStopAtCodeAndMemoryEdges) {
  // The copy body retires whole runs only when no access can fault and no
  // store can reach code: a copy that patches code the program already
  // ran, and one whose source runs off the end of memory, take the op
  // loop there and stay bit-exact.
  addr_t run = 0, donor = 0, run2 = 0, donor2 = 0;
  edge_copy_program(0, 0, true, &run, &donor);
  const xasm::Program patching =
      edge_copy_program(run, donor, true, &run2, &donor2);
  ASSERT_EQ(run2, run);
  ASSERT_EQ(donor2, donor);
  sim::SuperblockStats stats;
  const auto [ref, ref_state] = run_with_state(patching, true, false);
  const auto [sb, sb_state] = run_with_state(patching, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(ref.regs[r::a0], 16u + 4u);  // the second pass ran the patch
  EXPECT_EQ(ref.regs[r::a1], 12u * 3u);
  EXPECT_GT(stats.rebases, 0u);
  expect_identical(ref, sb);
  expect_same_core_state(ref_state, sb_state);

  // Off the end of memory: the last copy's source faults mid-run.
  constexpr u32 kMem = 0x10000;
  const xasm::Program off_end =
      edge_copy_program(kData + 0x800, kMem - 5 * 4, false, &run, &donor);
  sim::CoreState states[2];
  for (int mode = 0; mode < 2; ++mode) {
    sim::CoreConfig cfg = sim::CoreConfig::extended();
    cfg.reference_dispatch = mode == 0;
    cfg.superblock = mode == 1;
    mem::Memory mem(kMem);
    off_end.load(mem);
    sim::Core core(mem, cfg);
    core.reset(off_end.entry(), off_end.base() + off_end.size_bytes());
    EXPECT_THROW(core.run(2'000'000), MemoryFault);
    states[mode] = core.save_state();
    if (mode == 1) {
      EXPECT_GT(core.superblock_stats().rebases, 0u);
      EXPECT_EQ(core.superblock_stats().trap_bails, 1u);
    }
  }
  expect_same_core_state(states[0], states[1]);
}

TEST(SuperblockShapePlans, AuipcBodyIsPinnedToItsPc) {
  // auipc's value is baked into its plan, so a body holding one is keyed
  // by its pc: each copy heats and compiles on its own, none roams, and
  // every copy stores its own pc.
  xasm::Assembler a(0);
  a.li(r::s1, kData + 0x400);
  for (int k = 0; k < 4; ++k) {
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setupi(0, 20, end);
    a.auipc(r::t2, 0);
    a.p_sw_post(r::t2, r::s1, 4);
    a.bind(end);
  }
  a.ecall();
  const xasm::Program prog = a.finish();
  sim::SuperblockStats stats;
  const auto [ref, ref_state] = run_with_state(prog, true, false);
  const auto [sb, sb_state] = run_with_state(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(stats.blocks_compiled, 4u);
  EXPECT_EQ(stats.rebases, 0u);
  EXPECT_EQ(stats.fused_iterations, 4u * (20u - 16u));
  expect_identical(ref, sb);
  expect_same_core_state(ref_state, sb_state);
}

TEST(SuperblockShapePlans, FaultInsideRoamedBodyNamesRebasedPcAndRegion) {
  // A load of the last input pixel faults (through an access hook) inside
  // one output pixel's im2col copy loop, long after the loop's shape
  // compiled elsewhere: the fused run repairs to the rebased pc, so the
  // layer's fault report is the interpreter's, im2col region included.
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::paper_layer(4), 7);
  const qnn::ConvSpec& spec = data.spec;
  std::string reports[2];
  sim::SuperblockStats stats;
  for (int mode = 0; mode < 2; ++mode) {
    sim::CoreConfig cfg = sim::CoreConfig::extended();
    cfg.reference_dispatch = mode == 0;
    cfg.superblock = mode == 1;
    try {
      kernels::run_conv_layer(
          data, kernels::ConvVariant::kXpulpNN_HwQ, cfg, {},
          [&](sim::Core& core, const kernels::ConvKernel& k) {
            const addr_t victim =
                k.layout.input + static_cast<addr_t>(spec.in_h * spec.in_w -
                                                     1) *
                                     static_cast<addr_t>(spec.in_c) *
                                     spec.in_bits / 8;
            core.memory().set_access_hook(
                [victim](addr_t addr, unsigned size, bool store) -> unsigned {
                  if (addr == victim && !store) {
                    throw MemoryFault(addr, size, store);
                  }
                  return 0;
                });
          },
          [&](sim::Core& core, const kernels::ConvKernel&) {
            if (mode == 1) stats = core.superblock_stats();
          });
      ADD_FAILURE() << "no fault";
    } catch (const SimError& e) {
      reports[mode] = e.what();
    }
  }
  EXPECT_NE(reports[0].find("in region im2col"), std::string::npos)
      << reports[0];
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(stats.trap_bails, 1u);
  EXPECT_GT(stats.rebases, 100u);
}

TEST(SuperblockShapePlans, StreamedPaperLayerRunsAlmostAllFused) {
  // The 4-bit paper layer streamed in eight 8-channel tiles: every tile
  // is a fresh program whose per-pixel im2col loops share a handful of
  // shapes, so nearly every instruction retires fused from few plans.
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::paper_layer(4), 7);
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = true;
  u64 instructions = 0, fused = 0, compiled = 0;
  const auto res = soc::run_conv_streamed(
      data, kernels::ConvVariant::kXpulpNN_HwQ, cfg, 8, true, 4, nullptr, {},
      [&](sim::Core& core, const kernels::ConvKernel&) {
        instructions = core.perf().instructions;  // runs on across tiles
        fused += core.superblock_stats().fused_instructions;
        compiled += core.superblock_stats().blocks_compiled;
      });
  EXPECT_EQ(res.output, data.golden());
  EXPECT_EQ(res.tiles, 8);
  ASSERT_GT(instructions, 0u);
  EXPECT_GE(static_cast<double>(fused) / static_cast<double>(instructions),
            0.97);
  EXPECT_LE(compiled, 32u);
}

// ---- loop-nest plans: backward-branch loops around hardware loops ----

TEST(SuperblockLoopNest, FusesAsOnePlanBitIdentically) {
  // The channel-pair shape: once the branch loop is hot it compiles with
  // both inner loops (one with a dynamic count of 0..3) inside, and later
  // visits run their inner iterations as nested bursts.
  const xasm::Program prog = loop_nest_program(40);
  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  expect_identical(ref, fast);
  expect_identical(ref, sb);
  EXPECT_EQ(stats.compile_rejects, 0u);
  EXPECT_GT(stats.nested_entries, 0u);
  EXPECT_EQ(stats.smc_bails, 0u);
  // Most of what runs after the first 16 backedges fuses; a zero count
  // sends the rest of its iteration back to the interpreter.
  EXPECT_GT(stats.fused_instructions * 2, sb.perf.instructions);
  EXPECT_EQ(stats.entry_rejects, 0u);
}

TEST(SuperblockLoopNest, StoreIntoOuterBodyWhileInnerLoopRuns) {
  // The first inner body stores the outer loop's first instruction word
  // back over itself: the store hits the live outer plan from inside a
  // nested burst, which must stop right after the store, and the outer
  // plan must be evicted rather than run on.
  // 61 trips: the plan compiles, and recompiles after each eviction, 16
  // backedges later at a count of 1, so the store runs nested.
  const xasm::Program prog = loop_nest_program(61, /*smc=*/true);
  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState fast = run_prog(prog, false, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  expect_identical(ref, fast);
  expect_identical(ref, sb);
  EXPECT_GT(stats.nested_entries, 0u);
  EXPECT_GT(stats.smc_bails, 0u);
  EXPECT_GT(stats.invalidations, 0u);
}

TEST(SuperblockLoopNest, StoreInLastInnerIterationPatchesTheNextOuterOp) {
  // A one-trip inner loop ends with a store that rewrites the outer op
  // right after the loop (a different immediate every pass). The store
  // retires in the loop's final iteration, so the nested burst completes
  // normally — the outer plan must still stop there and let the patched
  // op run from fresh decode, not run its stale copy.
  namespace n = test::nest_reg;
  isa::Instr addi;
  addi.op = isa::Mnemonic::kAddi;
  addi.rd = r::a0;
  addi.rs1 = r::a0;
  xasm::Assembler a(0);
  test::li32(a, r::s6, isa::encode(addi));
  a.li(n::kTrips, 40);
  const xasm::Assembler::Label top = a.here();
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setupi(0, 1, end);
  a.addi(r::s7, r::s7, 1);
  a.slli(r::t4, r::s7, 20);     // the immediate field
  a.add(r::t5, r::s6, r::t4);   // addi a0, a0, <pass>
  a.auipc(n::kCodePtr, 0);
  a.sw(r::t5, n::kCodePtr, 8);  // over the op after the loop
  a.bind(end);
  a.addi(r::a0, r::a0, 0);      // patched every pass
  a.addi(n::kTrips, n::kTrips, -1);
  a.bne(n::kTrips, r::zero, top);
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::SuperblockStats stats;
  const FinalState ref = run_prog(prog, true, false);
  const FinalState sb = run_prog(prog, false, true, &stats);
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  EXPECT_EQ(ref.regs[r::a0], 40u * 41u / 2);
  expect_identical(ref, run_prog(prog, false, false));
  expect_identical(ref, sb);
  EXPECT_GT(stats.nested_entries, 0u);
  EXPECT_GT(stats.smc_bails, 0u);
}

TEST(SuperblockLoopNest, SampledSeriesMatchTheReference) {
  // Sampling deadlines land inside nested bursts, between them and on the
  // pre-branch boundary; every window must match the reference run's.
  const xasm::Program prog = loop_nest_program(40);
  for (const cycles_t interval : {5u, 17u, 64u}) {
    std::vector<obs::Sample> series[2];
    sim::SuperblockStats stats;
    for (int mode = 0; mode < 2; ++mode) {
      sim::CoreConfig cfg = sim::CoreConfig::extended();
      cfg.reference_dispatch = mode == 0;
      cfg.superblock = mode == 1;
      mem::Memory mem;
      prog.load(mem);
      sim::Core core(mem, cfg);
      core.reset(prog.entry(), prog.base() + prog.size_bytes());
      obs::Sampler::Options opts;
      opts.interval_cycles = interval;
      obs::Sampler sampler(core, opts);
      ASSERT_EQ(core.run(2'000'000), sim::HaltReason::kEcall);
      sampler.finalize();
      series[mode] = sampler.samples();
      if (mode == 1) stats = core.superblock_stats();
    }
    ASSERT_EQ(series[0].size(), series[1].size()) << interval;
    for (size_t k = 0; k < series[0].size(); ++k) {
      const obs::Sample& a = series[0][k];
      const obs::Sample& b = series[1][k];
      EXPECT_EQ(a.ts_cycles, b.ts_cycles) << interval << " window " << k;
      test::expect_same_counters(a.perf, b.perf, "perf");
      test::expect_same_counters(a.mem, b.mem, "mem");
      test::expect_same_counters(a.dotp, b.dotp, "dotp");
      if (::testing::Test::HasFailure()) {
        FAIL() << "interval " << interval << " window " << k;
      }
    }
    EXPECT_GT(stats.nested_entries, 0u) << interval;
    EXPECT_GT(stats.sample_flushes, 0u) << interval;
  }
}

TEST(SuperblockLoopNest, FaultInsideInnerLoopRepairsExactly) {
  // The inner loop's post-increment pointer walks off the end of memory
  // in a late outer iteration, mid inner loop: the fused run must trap at
  // the same instruction with the same state as the interpreter.
  constexpr u32 kMem = 0x10000;
  xasm::Assembler a(0);
  a.li(r::s0, static_cast<i32>(kMem - 16 * 30 + 8));
  a.li(test::nest_reg::kTrips, 40);
  const xasm::Assembler::Label top = a.here();
  a.li(test::nest_reg::kCount, 4);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setup(0, test::nest_reg::kCount, end);
  a.p_lw_post(r::t0, r::s0, 4);
  a.add(r::a5, r::a5, r::t0);
  a.bind(end);
  a.addi(test::nest_reg::kTrips, test::nest_reg::kTrips, -1);
  a.bne(test::nest_reg::kTrips, r::zero, top);
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::CoreState states[2];
  mem::MemStats mem_stats[2];
  sim::SuperblockStats stats;
  for (int mode = 0; mode < 2; ++mode) {
    sim::CoreConfig cfg = sim::CoreConfig::extended();
    cfg.reference_dispatch = mode == 0;
    cfg.superblock = mode == 1;
    mem::Memory mem(kMem);
    prog.load(mem);
    sim::Core core(mem, cfg);
    core.reset(prog.entry(), prog.base() + prog.size_bytes());
    EXPECT_THROW(core.run(2'000'000), MemoryFault);
    states[mode] = core.save_state();
    mem_stats[mode] = mem.stats();
    if (mode == 1) stats = core.superblock_stats();
  }
  expect_same_core_state(states[0], states[1]);
  test::expect_same_counters(mem_stats[0], mem_stats[1], "mem");
  EXPECT_GT(stats.nested_entries, 0u);
  EXPECT_EQ(stats.trap_bails, 1u);
}

// ---------------------------------------------------------------------------
// One dispatch per op: bit-field, clip and pv.qnt ops resolve their
// operands at compile time, and whole-run loop bodies nested in a branch
// plan run in place. Each must leave the interpreters' state, counters and
// access streams.

u64 kind_ops(const FinalState& s, sim::SbKind k) {
  return s.sb_kinds[static_cast<size_t>(k)];
}

TEST(FusedOps, BitFieldOpsAtEveryLegalPosAndWidth) {
  // Every position and width the encodings allow (p.extract(u), p.insert,
  // p.bclr and p.bset), the fixed p.exth*/p.extb* fields and every
  // p.clip/p.clipu bound. Each result feeds a checksum, in hot loop
  // bodies of at most 60 such ops, fused against the reference.
  using M = isa::Mnemonic;
  std::vector<isa::Instr> ops;
  const auto add = [&ops](M op, i32 imm, u8 imm2) {
    isa::Instr in;
    in.op = op;
    in.rd = r::t1;
    in.rs1 = r::t0;
    in.imm = imm;
    in.imm2 = imm2;
    // Only the fields the encoding space holds: a field past bit 31 is
    // reserved for every bit-field op.
    try {
      isa::decode(isa::encode(in), 0);
    } catch (const IllegalInstruction&) {
      return;
    }
    ops.push_back(in);
  };
  for (const M op : {M::kPExtract, M::kPExtractu, M::kPInsert, M::kPBclr,
                     M::kPBset}) {
    for (u32 pos = 0; pos < 32; ++pos) {
      for (u32 width = 1; width <= 32; ++width) {
        add(op, static_cast<i32>(pos), static_cast<u8>(width - 1));
      }
    }
  }
  for (const M op : {M::kPExths, M::kPExthz, M::kPExtbs, M::kPExtbz}) {
    add(op, 0, 0);
  }
  for (const M op : {M::kPClip, M::kPClipu}) {
    for (i32 bits = 0; bits < 32; ++bits) add(op, bits, 0);
  }

  std::vector<u64> kinds(static_cast<size_t>(sim::SbKind::kCount), 0);
  constexpr size_t kPerBody = 60;
  for (size_t first = 0; first < ops.size(); first += kPerBody) {
    xasm::Assembler a(0);
    a.li(r::s1, kData);
    a.li(r::t1, 0x5a5a0f0f);
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setupi(0, 24, end);
    a.p_lw_post(r::t0, r::s1, 4);
    for (size_t k = first; k < std::min(first + kPerBody, ops.size()); ++k) {
      a.emit(ops[k]);
      a.add(r::a0, r::a0, r::t1);
    }
    a.bind(end);
    a.ecall();
    const xasm::Program prog = a.finish();
    const FinalState ref = run_prog(prog, true, false);
    const FinalState sb = run_prog(prog, false, true);
    ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
    expect_identical(ref, sb);
    EXPECT_GT(sb.sb.fused_instructions, 0u);
    EXPECT_EQ(kind_ops(sb, sim::SbKind::kHandler), 0u);
    for (size_t k = 0; k < kinds.size(); ++k) kinds[k] += sb.sb_kinds[k];
    if (::testing::Test::HasFailure()) FAIL() << "ops from " << first;
  }
  for (const sim::SbKind k :
       {sim::SbKind::kExtract, sim::SbKind::kExtractu, sim::SbKind::kInsert,
        sim::SbKind::kAndImm, sim::SbKind::kOrImm, sim::SbKind::kClip,
        sim::SbKind::kClipu}) {
    EXPECT_GT(kinds[static_cast<size_t>(k)], 0u) << static_cast<int>(k);
  }
}

/// Where a pv.qnt loop's threshold trees sit.
enum class QntTrees { kAligned, kMisaligned, kLeavingMemory };

/// A hot loop quantizing a loaded activation pair (the load feeds pv.qnt:
/// a load-use hazard) and packing the codes as the conv kernels do. Its
/// trees stay at random operand data, sit one byte off, or walk up by 8
/// bytes an iteration until act1's root leaves memory at iteration 21.
xasm::Program qnt_program(unsigned q, QntTrees trees) {
  const u32 stride = sim::QuantUnit::tree_stride_bytes(q);
  const addr_t tree =
      trees == QntTrees::kAligned      ? kData + 0x200
      : trees == QntTrees::kMisaligned ? kData + 0x201
                                       : mem::Memory::kDefaultSize - stride -
                                             2 - 20 * 8;
  xasm::Assembler a(0);
  a.li(r::s0, static_cast<i32>(tree));
  a.li(r::s1, kData);
  a.li(r::s2, kData + 0x300);
  a.li(r::s3, 40);
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setup(0, r::s3, end);
  a.p_lw_post(r::t0, r::s1, 4);
  a.pv_qnt(q, r::t1, r::t0, r::s0);
  a.p_extractu(r::t2, r::t1, q, 16);
  a.p_insert(r::t1, r::t2, q, q);
  a.p_sb_post(r::t1, r::s2, 1);
  a.addi(r::s0, r::s0, trees == QntTrees::kLeavingMemory ? 8 : 0);
  a.bind(end);
  a.ecall();
  return a.finish();
}

/// What a run's memory does beside the plain SRAM model.
enum class MemMode { kPlain, kContention, kHook, kSink };

struct HookedRun {
  FinalState state;
  /// Every access the hook saw (kHook, kSink) or the burst sink took
  /// (kSink), with the coordinates the cluster's burst phase logs.
  std::vector<sim::BurstAccess> log;
};

/// Run `prog` over operand_data() on the fast interpreter or the
/// superblock engine. kHook installs an access hook that logs every access
/// and stalls every other 8-byte granule; kSink one that only logs, plus a
/// burst sink into the same log, as the cluster's burst phase does.
HookedRun run_hooked(const xasm::Program& prog, bool superblock,
                     MemMode mode) {
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = superblock;
  mem::Memory mem;
  prog.load(mem);
  mem.write_block(kData, operand_data());
  sim::Core core(mem, cfg);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  HookedRun r;
  if (mode == MemMode::kContention) mem.set_contention_period(3);
  if (mode == MemMode::kHook || mode == MemMode::kSink) {
    mem.set_access_hook([&](addr_t a, unsigned size, bool store) -> unsigned {
      const cycles_t start = core.access_start();
      r.log.push_back({start, core.access_pc(), a,
                       static_cast<u16>(core.access_cycle() - start),
                       static_cast<u8>(size), static_cast<u8>(store)});
      return mode == MemMode::kHook ? (a >> 3) & 1 : 0;
    });
  }
  if (mode == MemMode::kSink) core.set_burst_sink(&r.log);
  std::string fault;
  try {
    core.run(2'000'000);
  } catch (const SimError& e) {
    fault = e.what();
  }
  mem.set_access_hook({});
  r.state = final_state_of(core, mem);
  r.state.fault = std::move(fault);
  return r;
}

void expect_same_log(const std::vector<sim::BurstAccess>& a,
                     const std::vector<sim::BurstAccess>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].start, b[k].start) << k;
    EXPECT_EQ(a[k].pc, b[k].pc) << k;
    EXPECT_EQ(a[k].addr, b[k].addr) << k;
    EXPECT_EQ(a[k].cycle_delta, b[k].cycle_delta) << k;
    EXPECT_EQ(a[k].size, b[k].size) << k;
    EXPECT_EQ(a[k].is_store, b[k].is_store) << k;
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(FusedOps, QntTreesAndMemoryModesMatchTheInterpreter) {
  for (const unsigned q : {2u, 4u}) {
    for (const QntTrees trees : {QntTrees::kAligned, QntTrees::kMisaligned,
                                 QntTrees::kLeavingMemory}) {
      const xasm::Program prog = qnt_program(q, trees);
      for (const MemMode mode : {MemMode::kPlain, MemMode::kContention,
                                 MemMode::kHook, MemMode::kSink}) {
        const HookedRun fast = run_hooked(prog, false, mode);
        const HookedRun sb = run_hooked(prog, true, mode);
        if (trees == QntTrees::kLeavingMemory) {
          EXPECT_NE(fast.state.fault.find("memory fault"), std::string::npos)
              << fast.state.fault;
          EXPECT_EQ(sb.state.sb.trap_bails, 1u);
        } else {
          EXPECT_EQ(fast.state.reason, sim::HaltReason::kEcall);
        }
        if (trees == QntTrees::kMisaligned) {
          EXPECT_GT(fast.state.mem_stats.misaligned_accesses, 0u);
        }
        expect_identical(fast.state, sb.state);
        expect_same_log(fast.log, sb.log);
        EXPECT_GT(kind_ops(sb.state, sim::SbKind::kQnt), 0u);
        EXPECT_GT(sb.state.sb.fused_instructions, 0u);
        if (::testing::Test::HasFailure()) {
          FAIL() << "q " << q << ", trees " << static_cast<int>(trees)
                 << ", memory mode " << static_cast<int>(mode);
        }
      }
    }
  }
}

/// The shape of the conv kernels' channel-pair loop: a backward-branch
/// loop of 40 trips around a hardware loop of `trips` iterations, a 2x2
/// MatMul body or a word copy, then a store of one result. Once the
/// branch loop compiles, every inner run retires in place.
xasm::Program nest_program(bool copy, u32 trips = 20) {
  using isa::SimdFmt;
  xasm::Assembler a(0);
  a.li(r::s4, 40);
  a.li(r::s1, kData + 0x600);
  a.li(r::s3, static_cast<i32>(trips));
  const xasm::Assembler::Label top = a.here();
  a.li(r::a0, kData);
  a.li(r::a1, copy ? kData + 0x400 : kData + 0x80);
  if (!copy) {
    a.li(r::a2, kData + 0x100);
    a.li(r::a3, kData + 0x180);
    for (u8 acc : {r::a4, r::a5, r::a6, r::a7}) a.mv(acc, r::zero);
  }
  const xasm::Assembler::Label end = a.new_label();
  a.lp_setup(0, r::s3, end);
  if (copy) {
    a.p_lw_post(r::t0, r::a0, 4);
    a.p_sw_post(r::t0, r::a1, 4);
  } else {
    a.p_lw_post(r::t0, r::a0, 4);
    a.p_lw_post(r::t1, r::a1, 4);
    a.p_lw_post(r::t2, r::a2, 4);
    a.p_lw_post(r::t3, r::a3, 4);
    a.pv_sdotusp(SimdFmt::kN, r::a4, r::t2, r::t0);
    a.pv_sdotusp(SimdFmt::kN, r::a5, r::t3, r::t0);
    a.pv_sdotusp(SimdFmt::kN, r::a6, r::t2, r::t1);
    a.pv_sdotusp(SimdFmt::kN, r::a7, r::t3, r::t1);
  }
  a.bind(end);
  a.srai(r::t4, copy ? r::t0 : r::a4, 3);
  a.p_sb_post(r::t4, r::s1, 1);
  a.addi(r::s4, r::s4, -1);
  a.bne(r::s4, r::zero, top);
  a.ecall();
  return a.finish();
}

TEST(FusedOps, InPlaceRunsMeetBudgetsDeadlinesAndHorizons) {
  constexpr Slicing kCuts[] = {
      {Slicing::kRun},        {Slicing::kSteps, 5},  {Slicing::kSteps, 17},
      {Slicing::kSteps, 131}, {Slicing::kBursts, 7}, {Slicing::kBursts, 89},
  };
  for (const bool copy : {false, true}) {
    const xasm::Program prog = nest_program(copy);
    for (const cycles_t interval : {cycles_t{0}, cycles_t{43}, cycles_t{307}}) {
      for (const Slicing& how : kCuts) {
        const MatMulRun fast = run_matmul(prog, false, how, interval);
        const MatMulRun sb = run_matmul(prog, true, how, interval);
        ASSERT_EQ(fast.state.reason, sim::HaltReason::kEcall);
        expect_same_matmul_run(fast, sb);
        if (how.kind != Slicing::kSteps || how.slice >= 17) {
          EXPECT_GT(sb.state.sb.fused_instructions, 0u);
        }
        if (how.kind == Slicing::kRun && interval == 0) {
          // Inner runs entered from the compiled branch loop.
          EXPECT_GT(sb.state.sb.nested_entries, 0u);
          EXPECT_GT(sb.state.sb.whole_runs, sb.state.sb.nested_entries / 2);
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << (copy ? "copy" : "matmul") << ", " << slicing_name(how)
                 << ", sampled every " << interval;
        }
      }
    }
  }
}

}  // namespace
}  // namespace xpulp
