// Differential test between the interpreter dispatch modes: the legacy
// switch-on-mnemonic reference path, the predecoded handler-table fast
// path and the superblock engine (fused hot-loop bursts on top of the fast
// path) must produce bit-identical architectural state, memory images,
// halt reasons and *every* PerfCounters field — the faster paths are
// optimizations of the host interpreter, never of the modelled RI5CY
// timing.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "diff_test_util.hpp"
#include "isa/encoding.hpp"
#include "kernels/conv_layer.hpp"
#include "mem/memory.hpp"
#include "obs/profiler.hpp"
#include "sim/core.hpp"
#include "sim_test_util.hpp"
#include "xasm/assembler.hpp"

namespace xpulp {
namespace {

using test::expect_identical;
using test::FinalState;
using test::ProgramGen;
using test::run_mode;
using test::run_three_way;
using test::Tier;

/// Run `prog` from `entry` on all three dispatch paths, require
/// bit-identical final states and a fused superblock leg, and return the
/// reference leg.
FinalState expect_modes_agree(const xasm::Program& prog, addr_t entry,
                              addr_t code_end) {
  const test::ThreeWay w =
      run_three_way(prog, sim::CoreConfig::extended(), entry, code_end);
  EXPECT_GT(w.sb.sb.fused_instructions, 0u) << "superblock leg never fused";
  return w.ref;
}

/// Programs per tier of the three-way fuzz below, and how each one ends:
/// every fourth in ebreak, every fourth in a loop that walks off the end
/// of memory.
constexpr u64 kFuzzPrograms = 16;

ProgramGen::End fuzz_end(u64 trial) {
  return trial % 4 == 1   ? ProgramGen::End::kEbreak
         : trial % 4 == 3 ? ProgramGen::End::kOffMemory
                          : ProgramGen::End::kEcall;
}

u64 fuzz_seed(Tier t) { return 0xd15b07c4 + static_cast<u64>(t) * 977; }

TEST(DispatchDiff, RandomProgramsBitIdentical) {
  // Every tier: programs drawn from the ISA table, on the reference, plain
  // fast and superblock paths. The superblock leg fuses on every program
  // (each starts with a hot loop), except on the ungated no-PM core, whose
  // per-instruction operand broadcast keeps the engine cold.
  // Ops each fused-loop kind compiled, over every tier.
  std::vector<u64> kinds(static_cast<size_t>(sim::SbKind::kCount), 0);
  for (const Tier tier : test::kTiers) {
    ProgramGen gen(fuzz_seed(tier), tier);
    const bool fuses = gen.config().clock_gating;
    sim::SuperblockStats total;
    for (u64 trial = 0; trial < kFuzzPrograms; ++trial) {
      const ProgramGen::End end = fuzz_end(trial);
      const test::ThreeWay w = run_three_way(gen.next(0, end), gen.config());
      if (end == ProgramGen::End::kOffMemory) {
        EXPECT_NE(w.ref.fault.find("memory fault"), std::string::npos)
            << w.ref.fault;
      } else {
        EXPECT_EQ(w.ref.reason, end == ProgramGen::End::kEbreak
                                    ? sim::HaltReason::kEbreak
                                    : sim::HaltReason::kEcall)
            << w.ref.fault;
      }
      if (fuses) {
        EXPECT_GT(w.sb.sb.fused_instructions, 0u);
      } else {
        EXPECT_EQ(w.sb.sb.fused_instructions, 0u);
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << gen.config().name << " diverged at program " << trial;
      }
      for_each_counter([](const char*, u64& a, u64 b) { a += b; }, total,
                       w.sb.sb);
      for (size_t k = 0; k < kinds.size(); ++k) kinds[k] += w.sb.sb_kinds[k];
    }
    if (!fuses) continue;
    // The engine's paths beyond plain bursts: hardware loops nested in
    // branch plans, the MatMul macro-op, bursts ending in a fault.
    if (gen.config().hwloops) {
      EXPECT_GT(total.nested_entries, 0u) << gen.config().name;
    }
    if (gen.config().xpulpv2) {
      EXPECT_GT(total.macro_iterations, 0u) << gen.config().name;
    }
    EXPECT_GT(total.trap_bails, 0u) << gen.config().name;
  }
  // Every op kind is reached; the terminal branch of a branch plan is not
  // one of its ops.
  for (size_t k = 0; k < kinds.size(); ++k) {
    if (static_cast<sim::SbKind>(k) == sim::SbKind::kBranch) continue;
    EXPECT_GT(kinds[k], 0u) << "SbKind " << k;
  }
}

TEST(DispatchDiff, GeneratorDrawsEveryStraightLineEntry) {
  // The fuzz programs of each tier draw every table entry legal on that
  // tier as straight-line code, and nothing the tier lacks.
  for (const Tier tier : test::kTiers) {
    ProgramGen gen(fuzz_seed(tier), tier);
    for (u64 trial = 0; trial < kFuzzPrograms; ++trial) {
      gen.next(0, fuzz_end(trial));
    }
    const std::vector<size_t> eligible =
        test::straight_line_entries(gen.config());
    std::vector<bool> want(isa::isa_table().size(), false);
    for (const size_t i : eligible) want[i] = true;
    for (size_t i = 0; i < want.size(); ++i) {
      const isa::IsaTableEntry& e = isa::isa_table()[i];
      EXPECT_EQ(gen.drawn()[i], want[i])
          << gen.config().name << ": " << isa::mnemonic_name(e.op)
          << isa::simd_fmt_suffix(e.fmt);
    }
  }
}

TEST(DispatchDiff, Ri5cyConfigBitIdentical) {
  // XpulpNN programs on the baseline cores: the feature guard of the fast
  // paths and the reference require() chains must reject the same
  // instruction with the same state.
  for (const Tier core : {Tier::kXpulpV2, Tier::kRv32im}) {
    ProgramGen gen(0xace0 + static_cast<u64>(core), Tier::kXpulpNN);
    u64 traps = 0;
    for (u64 trial = 0; trial < 10; ++trial) {
      const test::ThreeWay w =
          run_three_way(gen.next(), test::tier_config(core));
      traps += w.ref.fault.find("illegal instruction") != std::string::npos;
      if (::testing::Test::HasFailure()) FAIL() << "trial " << trial;
    }
    EXPECT_EQ(traps, 10u);
  }
}

TEST(DispatchDiff, InstructionLimitSemanticsMatch) {
  // Hitting the instruction limit must report the same counters and halt
  // reason in both modes, including the corner where the limiting step
  // also executed an ecall.
  xasm::Assembler a(0);
  for (int i = 0; i < 50; ++i) a.addi(5, 5, 1);
  a.ecall();
  const xasm::Program prog = a.finish();
  for (u64 limit : {1ull, 7ull, 50ull, 51ull, 52ull}) {
    const auto ref = run_mode(prog, sim::CoreConfig::extended(), true, limit);
    const auto fast =
        run_mode(prog, sim::CoreConfig::extended(), false, limit);
    expect_identical(ref, fast);
  }
}

TEST(DispatchDiff, ConvKernelVariantsBitIdentical) {
  // The paper's conv layer (reduced spatially to keep the test fast) under
  // every kernel variant: registers aside, the cycle-level counters feed
  // every figure reproduction, so they must not move with dispatch mode.
  using kernels::ConvVariant;
  for (ConvVariant v :
       {ConvVariant::kXpulpV2_8b, ConvVariant::kXpulpV2_Sub,
        ConvVariant::kXpulpV2_SubShf, ConvVariant::kXpulpNN_SwQ,
        ConvVariant::kXpulpNN_HwQ}) {
    qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(
        v == ConvVariant::kXpulpV2_8b ? 8 : 4);
    spec.in_h = spec.in_w = 4;
    spec.out_c = 8;
    const auto data = kernels::ConvLayerData::random(spec, 0x5eed);

    sim::CoreConfig ref_cfg = sim::CoreConfig::extended();
    ref_cfg.reference_dispatch = true;
    sim::CoreConfig fast_cfg = sim::CoreConfig::extended();
    fast_cfg.superblock = false;
    sim::CoreConfig sb_cfg = sim::CoreConfig::extended();
    sb_cfg.superblock = true;

    // Untraced runs; only the superblock leg fuses.
    u64 fused = 0;
    const auto fused_of = [&](sim::Core& core, const kernels::ConvKernel&) {
      fused = core.superblock_stats().fused_instructions;
    };
    const auto ref = kernels::run_conv_layer(data, v, ref_cfg);
    const auto fast = kernels::run_conv_layer(data, v, fast_cfg, {}, {},
                                              fused_of);
    EXPECT_EQ(fused, 0u) << kernels::variant_name(v);
    const auto sb = kernels::run_conv_layer(data, v, sb_cfg, {}, {},
                                            fused_of);
    EXPECT_GT(fused, 0u) << kernels::variant_name(v);

    // Attributed runs: a profiler attached through the runner's hook sees
    // the same quant cycles under every dispatch mode.
    const auto quant_cycles = [&](const sim::CoreConfig& cfg) {
      std::optional<obs::Profiler> prof;
      kernels::run_conv_layer(
          data, v, cfg, {},
          [&](sim::Core& core, const kernels::ConvKernel& k) {
            prof.emplace(core, k.regions);
          },
          [&](sim::Core&, const kernels::ConvKernel&) { prof->finalize(); });
      return prof->region_cycles("quant");
    };
    const u64 ref_quant = quant_cycles(ref_cfg);
    EXPECT_EQ(ref_quant, quant_cycles(fast_cfg)) << kernels::variant_name(v);
    EXPECT_EQ(ref_quant, quant_cycles(sb_cfg)) << kernels::variant_name(v);

    for (const auto* r : {&fast, &sb}) {
      const std::string name = kernels::variant_name(v);
      test::expect_same_counters(ref.perf, r->perf, name + " perf");
      test::expect_same_counters(ref.mem_stats, r->mem_stats, name + " mem");
      test::expect_same_counters(ref.activity, r->activity, name + " dotp");
      EXPECT_EQ(ref.output.data(), r->output.data())
          << kernels::variant_name(v);
    }
  }
}

TEST(DispatchDiff, SelfModifyingCodePicksUpPatch) {
  // A store over an already-executed (and therefore decode-cached)
  // instruction must invalidate the cached decode: the patched instruction
  // executes on the next pass. Regression test for decode-cache coherence.
  auto build = [](addr_t target_guess) {
    // `addi a0, a0, 100` — the word the program patches over the target.
    isa::Instr patch;
    patch.op = isa::Mnemonic::kAddi;
    patch.rd = 10;
    patch.rs1 = 10;
    patch.imm = 100;
    const u32 patch_word = isa::encode(patch);

    xasm::Assembler a(0);
    a.li(xasm::reg::a0, 0);
    a.li(xasm::reg::t2, 0);
    a.li(xasm::reg::t0, static_cast<i32>(target_guess));
    a.li(xasm::reg::t1, static_cast<i32>(patch_word));
    xasm::Assembler::Label target = a.here();
    a.addi(xasm::reg::a0, xasm::reg::a0, 1);  // patched to +100 at run time
    const xasm::Assembler::Label do_patch = a.new_label();
    a.beq(xasm::reg::t2, 0, do_patch);
    a.ecall();
    a.bind(do_patch);
    // A hot loop before the patch, so the superblock leg fuses too.
    const xasm::Assembler::Label hot_end = a.new_label();
    a.lp_setupi(0, 20, hot_end);
    a.addi(xasm::reg::a1, xasm::reg::a1, 1);
    a.bind(hot_end);
    a.addi(xasm::reg::t2, 0, 1);
    a.sw(xasm::reg::t1, xasm::reg::t0, 0);  // overwrite the target instr
    a.j(target);
    return a.finish();
  };

  // Two-pass assembly: measure the target address with a placeholder
  // value, then rebuild with the real one (both values fit 12 bits, so the
  // li expansion — and therefore the code layout — is stable).
  const addr_t target_addr = [&] {
    isa::Instr patch;
    patch.op = isa::Mnemonic::kAddi;
    patch.rd = 10;
    patch.rs1 = 10;
    patch.imm = 100;
    // li of the patch word takes lui+addi; replicate to find the offset.
    xasm::Assembler a2(0);
    a2.li(xasm::reg::a0, 0);
    a2.li(xasm::reg::t2, 0);
    a2.li(xasm::reg::t0, 64);
    a2.li(xasm::reg::t1, static_cast<i32>(isa::encode(patch)));
    return static_cast<addr_t>(a2.finish().size_bytes());
  }();

  const xasm::Program prog = build(target_addr);
  const FinalState ref = expect_modes_agree(prog, prog.entry(),
                                            prog.base() + prog.size_bytes());
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  // First pass adds 1, patched second pass adds 100 (and the other modes
  // agree with the reference).
  EXPECT_EQ(ref.regs[10], 101u)
      << "dispatch executed stale decode after self-modifying store";
}

TEST(DispatchDiff, SelfModifyingStoreIntoHotLoopBody) {
  // The harder SMC shape for the superblock engine: a hardware loop whose
  // body stores over *its own* instructions every iteration. The store must
  // invalidate both the decode cache and the live superblock plan, and the
  // patched instruction must take effect on the very next iteration — in
  // all three dispatch modes, bit-identically.
  isa::Instr patch;
  patch.op = isa::Mnemonic::kAddi;
  patch.rd = 10;
  patch.rs1 = 10;
  patch.imm = 100;
  const u32 patch_word = isa::encode(patch);

  auto build = [&](addr_t target_guess, addr_t* target_out) {
    xasm::Assembler a(0);
    a.li(xasm::reg::a0, 0);
    a.li(xasm::reg::t0, static_cast<i32>(target_guess));
    a.li(xasm::reg::t1, static_cast<i32>(patch_word));
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setupi(0, 30, end);
    *target_out = a.current_addr();
    a.addi(xasm::reg::a0, xasm::reg::a0, 1);  // patched to +100, iter 1
    a.sw(xasm::reg::t1, xasm::reg::t0, 0);    // store over the addi above
    a.bind(end);
    a.ecall();
    return a.finish();
  };

  // Two-pass assembly: both the guess and the real target fit 12 bits, so
  // the li expansion (and with it the layout) is identical across passes.
  addr_t target_addr = 0;
  build(64, &target_addr);
  addr_t check = 0;
  const xasm::Program prog = build(target_addr, &check);
  ASSERT_EQ(check, target_addr);

  // Iteration 1 adds 1 and patches; iterations 2..30 add 100 each.
  constexpr u32 kExpected = 1 + 29 * 100;
  const FinalState ref = expect_modes_agree(prog, prog.entry(),
                                            prog.base() + prog.size_bytes());
  ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
  ASSERT_EQ(ref.regs[10], kExpected);

  // The superblock engine must actually have been hit by the store: the
  // hot hwloop compiles, and the self-modifying store evicts the plan.
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = true;
  mem::Memory mem;
  prog.load(mem);
  sim::Core core(mem, cfg);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  ASSERT_EQ(core.run(2'000'000), sim::HaltReason::kEcall);
  EXPECT_EQ(core.reg(10), kExpected);
  EXPECT_GT(core.superblock_stats().blocks_compiled, 0u);
  EXPECT_GT(core.superblock_stats().invalidations, 0u);
}

TEST(DispatchDiff, DecodeCacheGrowthCoversWidePrograms) {
  // A program whose code straddles far beyond the initial 4096-entry cache
  // (geometric growth path) and is entered without a pre-sized cache.
  xasm::Assembler a(0);
  const xasm::Assembler::Label far = a.new_label();
  a.li(xasm::reg::a0, 7);
  a.j(far);
  for (int i = 0; i < 8000; ++i) a.addi(5, 5, 1);  // 32 KB of filler
  a.bind(far);
  a.addi(xasm::reg::a0, xasm::reg::a0, 35);
  a.ecall();
  const xasm::Program prog = a.finish();

  mem::Memory mem;
  prog.load(mem);
  sim::Core core(mem);
  core.reset(prog.entry());  // no code_end: exercise growth, not pre-size
  ASSERT_EQ(core.run(1000), sim::HaltReason::kEcall);
  EXPECT_EQ(core.reg(10), 42u);
}

TEST(DispatchDiff, RandomProgramsAtHighCodeBase) {
  // The decode cache spans the program, not [0, code_end): random programs
  // placed high in the TCDM, above their data, pre-sized and grow-only.
  ProgramGen gen(0x41b5, Tier::kXpulpNN);
  for (u64 trial = 0; trial < 6; ++trial) {
    const addr_t base = 0x30000 + static_cast<addr_t>(trial) * 0x2a04;
    const xasm::Program prog = gen.next(base);
    for (const addr_t code_end : {base + prog.size_bytes(), addr_t{0}}) {
      const FinalState ref = expect_modes_agree(prog, prog.entry(), code_end);
      ASSERT_EQ(ref.reason, sim::HaltReason::kEcall) << "trial " << trial;
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at trial " << trial << " code_end " << code_end;
      }
    }
  }
}

TEST(DispatchDiff, CodeBelowEntryAndStoresAroundTheSpan) {
  // Entry above its callees (the call down rebases the cache), and
  // self-modifying stores below, across, inside and past the span the core
  // was reset over. The low base clamps the first rebase at address 0; the
  // filler makes the far call need more than one minimum rebase step.
  for (const auto& [base, filler] :
       {std::pair<addr_t, int>{0x100, 0}, std::pair<addr_t, int>{0x30000, 6000}}) {
    const test::BelowEntryProgram p = test::below_entry_program(base, filler);
    ASSERT_GT(p.entry, p.prog.base());
    for (const addr_t code_end : {p.code_end, addr_t{0}}) {
      const FinalState ref = expect_modes_agree(p.prog, p.entry, code_end);
      ASSERT_EQ(ref.reason, sim::HaltReason::kEcall);
      for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(ref.regs[10 + i], test::BelowEntryProgram::kExpected[i])
            << "a" << i << ", base " << base << ", code_end " << code_end;
      }
    }
  }
}

TEST(DispatchDiff, DecodeCacheSpansTheProgramNotItsAddress) {
  // A short program at a high base holds a cache the size of its own code,
  // both pre-sized and grown from an unsized reset.
  xasm::Assembler a(0x3c000);
  for (int i = 0; i < 100; ++i) a.addi(5, 5, 1);
  a.ecall();
  const xasm::Program prog = a.finish();
  mem::Memory mem;
  prog.load(mem);
  sim::Core core(mem);
  core.reset(prog.entry(), prog.base() + prog.size_bytes());
  ASSERT_EQ(core.run(1000), sim::HaltReason::kEcall);
  EXPECT_EQ(core.decode_cache_parcels(), prog.size_bytes() / 2);
  core.reset(prog.entry());
  ASSERT_EQ(core.run(1000), sim::HaltReason::kEcall);
  EXPECT_EQ(core.decode_cache_parcels(), 4096u);
}

}  // namespace
}  // namespace xpulp
