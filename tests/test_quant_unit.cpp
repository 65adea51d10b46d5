// Quantization unit (pv.qnt): functional agreement with the staircase
// reference, the 9-/5-cycle latency contract, the fixed second-tree offset,
// and memory-stall behaviour on misaligned trees.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "qnn/thresholds.hpp"
#include "sim_test_util.hpp"
#include "sim/quant_unit.hpp"

namespace xpulp {
namespace {

namespace r = xasm::reg;
using test::run_program;

void write_tree(mem::Memory& mem, addr_t base, const qnn::Thresholds& t) {
  const auto& e = t.eytzinger();
  for (size_t i = 0; i < e.size(); ++i) {
    mem.store_u16(base + static_cast<u32>(i) * 2, static_cast<u16>(e[i]));
  }
}

class QuantProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(QuantProperty, HardwareWalkEqualsLinearStaircase) {
  const unsigned q = GetParam();
  Rng rng(99 + q);
  mem::Memory mem(4096);
  for (int trial = 0; trial < 200; ++trial) {
    const auto th = qnn::Thresholds::random(rng, q, -3000, 3000);
    write_tree(mem, 256, th);
    const i16 x = static_cast<i16>(rng.uniform(-32768, 32767));
    EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 256, x, q), th.quantize(x))
        << "q=" << q << " x=" << x;
  }
}

TEST_P(QuantProperty, ExactlyOnThresholdCountsAsAbove) {
  const unsigned q = GetParam();
  Rng rng(7);
  mem::Memory mem(4096);
  const auto th = qnn::Thresholds::random(rng, q, -100, 100);
  write_tree(mem, 0, th);
  for (const i16 t : th.sorted()) {
    // x == threshold: the staircase counts it (x >= t).
    EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 0, t, q), th.quantize(t));
    EXPECT_EQ(th.quantize(t), th.quantize(t - 1) + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(NibbleAndCrumb, QuantProperty,
                         ::testing::Values(4u, 2u));

TEST(QuantUnit, DuplicateThresholdsStillRankCorrectly) {
  // Saturated/duplicated thresholds appear when trained thresholds clamp;
  // the BST walk must still return the rank.
  mem::Memory mem(256);
  const qnn::Thresholds th(2, {5, 5, 5});
  write_tree(mem, 0, th);
  EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 0, 4, 2), 0u);
  EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 0, 5, 2), 3u);
  EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 0, 6, 2), 3u);
}

TEST(QuantUnit, LatencyContract) {
  mem::Memory mem(4096);
  Rng rng(3);
  write_tree(mem, 0, qnn::Thresholds::random(rng, 4, -50, 50));
  write_tree(mem, 32, qnn::Thresholds::random(rng, 4, -50, 50));
  sim::QuantUnit unit;
  const auto res4 = unit.execute(mem, 0x00100010u, 0, 4);
  EXPECT_EQ(res4.cycles, 9u);  // paper: 9 cycles for two 4-bit activations
  EXPECT_EQ(res4.mem_loads, 8u);

  write_tree(mem, 64, qnn::Thresholds::random(rng, 2, -50, 50));
  write_tree(mem, 72, qnn::Thresholds::random(rng, 2, -50, 50));
  const auto res2 = unit.execute(mem, 0x00100010u, 64, 2);
  EXPECT_EQ(res2.cycles, 5u);  // 5 cycles for two 2-bit activations
  EXPECT_EQ(res2.mem_loads, 4u);
}

TEST(QuantUnit, MisalignedTreeAddsMemoryStalls) {
  mem::Memory mem(4096);
  Rng rng(5);
  write_tree(mem, 1, qnn::Thresholds::random(rng, 2, -50, 50));
  write_tree(mem, 9, qnn::Thresholds::random(rng, 2, -50, 50));
  sim::QuantUnit unit;
  const auto res = unit.execute(mem, 0, 1, 2);
  // The architectural latency stays at the paper's fixed 1+2Q figure;
  // misaligned threshold fetches surface as memory stalls, not as a longer
  // unit occupancy (they are charged to mem_stall_cycles by the core).
  EXPECT_EQ(res.cycles, 5u);
  EXPECT_GT(res.mem_stalls, 0u);  // every halfword fetch splits
  EXPECT_EQ(res.mem_stalls, res.mem_loads);
}

TEST(QuantUnit, SecondActivationUsesFixedOffsetTree) {
  mem::Memory mem(4096);
  // Tree 0: thresholds {10, 20, 30}; tree 1 at +8 bytes: {-5, 0, 5}.
  const qnn::Thresholds t0(2, {10, 20, 30});
  const qnn::Thresholds t1(2, {-5, 0, 5});
  write_tree(mem, 128, t0);
  write_tree(mem, 128 + sim::QuantUnit::tree_stride_bytes(2), t1);
  sim::QuantUnit unit;
  // act0 = 25 -> rank 2 in t0; act1 = 1 -> rank 2 in t1.
  const u32 rs1 = (static_cast<u32>(static_cast<u16>(1)) << 16) | 25u;
  const auto res = unit.execute(mem, rs1, 128, 2);
  EXPECT_EQ(res.rd & 0x3u, 2u);
  EXPECT_EQ((res.rd >> 16) & 0x3u, 2u);
}

TEST(QuantUnit, NegativeActivationsQuantize) {
  mem::Memory mem(4096);
  const qnn::Thresholds t(4, {-70, -60, -50, -40, -30, -20, -10, 0, 10, 20,
                              30, 40, 50, 60, 70});
  write_tree(mem, 0, t);
  EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 0, -100, 4), 0u);
  EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 0, -55, 4), 2u);
  EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 0, 0, 4), 8u);
  EXPECT_EQ(sim::QuantUnit::quantize_one(mem, 0, 100, 4), 15u);
}

TEST(QuantUnit, PvQntInstructionEndToEnd) {
  // Full pipeline: core executes pv.qnt.n against trees in guest memory.
  Rng rng(11);
  const auto th0 = qnn::Thresholds::random(rng, 4, -500, 500);
  const auto th1 = qnn::Thresholds::random(rng, 4, -500, 500);
  const i16 act0 = -123, act1 = 456;
  auto res = run_program(
      [&](xasm::Assembler& a) {
        a.li(r::a0, static_cast<i32>((static_cast<u32>(static_cast<u16>(act1))
                                      << 16) |
                                     static_cast<u16>(act0)));
        a.li(r::a1, 0x2000);
        a.pv_qnt(4, r::a2, r::a0, r::a1);
      },
      sim::CoreConfig::extended(),
      [&](mem::Memory& mem, sim::Core&) {
        write_tree(mem, 0x2000, th0);
        write_tree(mem, 0x2000 + 32, th1);
      });
  EXPECT_EQ(res.regs[r::a2] & 0xfu, th0.quantize(act0));
  EXPECT_EQ((res.regs[r::a2] >> 16) & 0xfu, th1.quantize(act1));
  EXPECT_EQ(res.perf.qnt_ops, 1u);
  EXPECT_EQ(res.perf.qnt_stall_cycles, 8u);  // 9-cycle instruction
}

TEST(QuantUnit, PvQntIllegalOnBaselineCore) {
  EXPECT_THROW(run_program(
                   [](xasm::Assembler& a) {
                     a.pv_qnt(4, r::a2, r::a0, r::a1);
                   },
                   sim::CoreConfig::ri5cy()),
               IllegalInstruction);
}

// ---- single-walk execute vs the two-walk routine it replaced ----

/// The pre-single-walk QuantUnit::quantize_one and execute, kept verbatim
/// as the oracle: execute walked both trees through quantize_one for the
/// result, then walked them again in its timing loop.
u32 quantize_one_walk(const mem::Memory& mem, addr_t tree, i16 x,
                      unsigned q_bits) {
  u32 idx = 0;
  u32 code = 0;
  for (unsigned level = 0; level < q_bits; ++level) {
    const i16 t = static_cast<i16>(mem.load_u16(tree + idx * 2));
    const u32 b = (x >= t) ? 1u : 0u;
    code = (code << 1) | b;
    idx = 2 * idx + 1 + b;
  }
  return code;
}

sim::QuantResult execute_two_walks(mem::Memory& mem, u32 rs1, addr_t rs2,
                                   unsigned q_bits) {
  const i16 act0 = static_cast<i16>(rs1 & 0xffffu);
  const i16 act1 = static_cast<i16>(rs1 >> 16);
  const addr_t tree0 = rs2;
  const addr_t tree1 = rs2 + sim::QuantUnit::tree_stride_bytes(q_bits);

  sim::QuantResult res{};
  // Functional result.
  const u32 q0 = quantize_one_walk(mem, tree0, act0, q_bits);
  const u32 q1 = quantize_one_walk(mem, tree1, act1, q_bits);
  res.rd = (q1 << 16) | q0;

  res.cycles = 1 + 2 * q_bits;
  res.mem_loads = 2 * q_bits;

  u32 idx0 = 0, idx1 = 0;
  for (unsigned level = 0; level < q_bits; ++level) {
    res.mem_stalls += mem.access_cycles(tree0 + idx0 * 2, 2, /*is_store=*/false);
    res.mem_stalls += mem.access_cycles(tree1 + idx1 * 2, 2, /*is_store=*/false);
    const u32 b0 = (act0 >= static_cast<i16>(mem.load_u16(tree0 + idx0 * 2))) ? 1u : 0u;
    const u32 b1 = (act1 >= static_cast<i16>(mem.load_u16(tree1 + idx1 * 2))) ? 1u : 0u;
    idx0 = 2 * idx0 + 1 + b0;
    idx1 = 2 * idx1 + 1 + b1;
  }
  return res;
}

/// Every field of a QuantResult plus the memory's full MemStats, or the
/// fault text when the call trapped.
struct QntOutcome {
  sim::QuantResult res{};
  mem::MemStats stats;
  std::string fault;
};

template <typename Fn>
QntOutcome run_qnt(mem::Memory& mem, Fn&& fn) {
  QntOutcome o;
  try {
    o.res = fn(mem);
  } catch (const MemoryFault& f) {
    o.fault = f.what();
  }
  o.stats = mem.stats();
  return o;
}

void expect_same(const QntOutcome& a, const QntOutcome& b,
                 const std::string& who) {
  EXPECT_EQ(a.fault, b.fault) << who;
  EXPECT_EQ(a.res.rd, b.res.rd) << who;
  EXPECT_EQ(a.res.cycles, b.res.cycles) << who;
  EXPECT_EQ(a.res.mem_stalls, b.res.mem_stalls) << who;
  EXPECT_EQ(a.res.mem_loads, b.res.mem_loads) << who;
  for_each_counter(
      [&](const char* name, u64 x, u64 y) { EXPECT_EQ(x, y) << who << name; },
      a.stats, b.stats);
}

TEST_P(QuantProperty, SingleWalkMatchesTwoWalkOracle) {
  const unsigned q = GetParam();
  const u32 stride = sim::QuantUnit::tree_stride_bytes(q);
  Rng rng(0x9a7 + q);
  sim::QuantUnit unit;
  for (int trial = 0; trial < 300; ++trial) {
    // Aligned and misaligned tree bases; an injected contention period
    // every few trials makes the stall count depend on access order.
    mem::Memory mem(4096);
    const addr_t base = static_cast<addr_t>(rng.uniform(0, 1000)) * 2 +
                        static_cast<addr_t>(trial % 3 == 0 ? 1 : 0);
    write_tree(mem, base, qnn::Thresholds::random(rng, q, -3000, 3000));
    write_tree(mem, base + stride,
               qnn::Thresholds::random(rng, q, -3000, 3000));
    if (trial % 4 == 1) {
      mem.set_contention_period(static_cast<u32>(rng.uniform(2, 5)));
    }
    const u32 rs1 = static_cast<u32>(rng.uniform(0, 0xffff)) << 16 |
                    static_cast<u32>(rng.uniform(0, 0xffff));
    mem::Memory twin = mem;
    const std::string who = "trial " + std::to_string(trial) + " base " +
                            std::to_string(base) + ": ";
    expect_same(run_qnt(twin, [&](mem::Memory& m) {
                  return execute_two_walks(m, rs1, base, q);
                }),
                run_qnt(mem, [&](mem::Memory& m) {
                  return unit.execute(m, rs1, base, q);
                }),
                who);
  }
}

TEST_P(QuantProperty, TreeLeavingMemoryTrapsBeforeAnyCharge) {
  // Tree 0 fits; tree 1 straddles the end of memory, so some of its paths
  // read past it. Both routines must trap on the same address with
  // MemStats untouched, and agree on every path that stays inside.
  const unsigned q = GetParam();
  const u32 stride = sim::QuantUnit::tree_stride_bytes(q);
  Rng rng(0x7ab + q);
  sim::QuantUnit unit;
  int traps = 0;
  for (int trial = 0; trial < 200; ++trial) {
    mem::Memory mem(1024);
    const addr_t base = 1024 - stride - stride / 2 +
                        static_cast<addr_t>(trial % 2);
    write_tree(mem, base, qnn::Thresholds::random(rng, q, -300, 300));
    for (addr_t a = base + stride; a + 1 < 1024; a += 2) {
      mem.store_u16(a, static_cast<u16>(rng.uniform(-300, 300)));
    }
    const u32 rs1 = static_cast<u32>(rng.uniform(0, 0xffff)) << 16 |
                    static_cast<u32>(rng.uniform(0, 0xffff));
    mem::Memory twin = mem;
    const QntOutcome oracle = run_qnt(twin, [&](mem::Memory& m) {
      return execute_two_walks(m, rs1, base, q);
    });
    const QntOutcome got = run_qnt(
        mem, [&](mem::Memory& m) { return unit.execute(m, rs1, base, q); });
    expect_same(oracle, got, "trial " + std::to_string(trial) + ": ");
    if (!got.fault.empty()) {
      ++traps;
      EXPECT_EQ(got.stats.loads, 0u);
      EXPECT_EQ(got.stats.misaligned_accesses, 0u);
    }
  }
  EXPECT_GT(traps, 0) << "no path left memory";
  EXPECT_LT(traps, 200) << "every path left memory";
}

TEST(QuantUnit, TreeStride) {
  EXPECT_EQ(sim::QuantUnit::tree_stride_bytes(4), 32u);
  EXPECT_EQ(sim::QuantUnit::tree_stride_bytes(2), 8u);
}

// Shared program for the stall-attribution regressions: pv.qnt.n against
// *misaligned* trees (base 0x2001), so every halfword threshold fetch
// splits and costs one memory stall.
test::RunResult run_misaligned_qnt(sim::CoreConfig cfg,
                                   bool traced = false) {
  Rng rng(21);
  const auto th0 = qnn::Thresholds::random(rng, 4, -500, 500);
  const auto th1 = qnn::Thresholds::random(rng, 4, -500, 500);
  return run_program(
      [&](xasm::Assembler& a) {
        a.li(r::a0, (456 << 16) | 123);
        a.li(r::a1, 0x2001);
        a.pv_qnt(4, r::a2, r::a0, r::a1);
      },
      std::move(cfg),
      [&](mem::Memory& mem, sim::Core& core) {
        write_tree(mem, 0x2001, th0);
        write_tree(mem, 0x2001 + 32, th1);
        if (traced) {
          core.set_trace([](addr_t, const isa::Instr&) { return true; });
        }
      });
}

TEST(QuantUnit, MisalignedTreeStallAttribution) {
  // Regression: threshold-fetch memory stalls used to be folded into
  // qnt_stall_cycles, inflating the unit's latency past the paper's fixed
  // 9-cycle figure. The unit occupancy must stay 1+2Q regardless of tree
  // alignment; the split-fetch penalty belongs to mem_stall_cycles.
  const auto res = run_misaligned_qnt(sim::CoreConfig::extended());
  EXPECT_EQ(res.perf.qnt_ops, 1u);
  EXPECT_EQ(res.perf.qnt_stall_cycles, 8u);  // 9-cycle instruction, exactly
  // Q=4 levels, 2 halfword fetches per level, every one misaligned.
  EXPECT_EQ(res.perf.mem_stall_cycles, 8u);
  EXPECT_EQ(res.mem.stats().misaligned_accesses, 8u);
}

TEST(QuantUnit, MisalignedQntIdenticalAcrossDispatchPaths) {
  // The attribution must agree between the predecoded fast path, the
  // traced fast path and the legacy reference dispatch.
  sim::CoreConfig fast_cfg = sim::CoreConfig::extended();
  fast_cfg.superblock = false;
  const auto fast = run_misaligned_qnt(fast_cfg);
  const auto traced = run_misaligned_qnt(fast_cfg, /*traced=*/true);
  sim::CoreConfig ref_cfg = sim::CoreConfig::extended();
  ref_cfg.reference_dispatch = true;
  const auto ref = run_misaligned_qnt(ref_cfg);

  for (const auto* r : {&traced, &ref}) {
    EXPECT_EQ(r->regs[r::a2], fast.regs[r::a2]);
    EXPECT_EQ(r->perf.cycles, fast.perf.cycles);
    EXPECT_EQ(r->perf.instructions, fast.perf.instructions);
    EXPECT_EQ(r->perf.qnt_stall_cycles, fast.perf.qnt_stall_cycles);
    EXPECT_EQ(r->perf.mem_stall_cycles, fast.perf.mem_stall_cycles);
  }
}

TEST(QuantUnit, QntAsFinalInstructionKeepsInvariants) {
  // pv.qnt immediately before the halting ecall: cycle accounting must
  // still reconcile (every cycle is base or exactly one stall cause).
  for (const bool misaligned : {false, true}) {
    Rng rng(33);
    const auto th = qnn::Thresholds::random(rng, 2, -50, 50);
    const addr_t base = misaligned ? 0x2001 : 0x2000;
    const auto res = run_program(
        [&](xasm::Assembler& a) {
          a.li(r::a0, 17);
          a.li(r::a1, static_cast<i32>(base));
          a.pv_qnt(2, r::a2, r::a0, r::a1);
        },
        sim::CoreConfig::extended(),
        [&](mem::Memory& mem, sim::Core&) { write_tree(mem, base, th); });
    EXPECT_EQ(sim::perf_invariant_violation(res.perf), "")
        << "misaligned=" << misaligned;
    EXPECT_EQ(res.perf.qnt_stall_cycles, 4u);  // 5-cycle crumb walk
  }
}

}  // namespace
}  // namespace xpulp
