// Broad property sweep: the kernel generators must stay bit-exact across a
// grid of layer geometries, bitwidths, kernel sizes, strides and seeds --
// the combinations a real network zoo would throw at the library -- and
// their MatMul bodies must reach the superblock engine's macro-op.
#include <gtest/gtest.h>

#include "kernels/conv_layer.hpp"
#include "sim/core.hpp"
#include "sim/superblock.hpp"

namespace xpulp::kernels {
namespace {

struct SweepCase {
  unsigned bits;
  int h, w, cin, cout, k, pad, stride;
  u64 seed;
};

qnn::ConvSpec to_spec(const SweepCase& c) {
  qnn::ConvSpec s;
  s.in_h = c.h;
  s.in_w = c.w;
  s.in_c = c.cin;
  s.out_c = c.cout;
  s.k_h = s.k_w = c.k;
  s.pad = c.pad;
  s.stride = c.stride;
  s.in_bits = s.w_bits = s.out_bits = c.bits;
  return s;
}

/// Run `data` with superblocks on, golden-check the output and return the
/// kConvInner macro-op iterations read through the after_run hook: the
/// generated MatMul body must reach the macro-op, not just the generic
/// fused loop (a generator change that breaks the matched shape would
/// still be bit-exact, only slow). No op of its fused bodies may fall back
/// to the interpreter's handler.
u64 superblock_macro_iterations(const ConvLayerData& data, ConvVariant v) {
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = true;
  u64 macro = 0;
  const auto res = run_conv_layer(
      data, v, cfg, {}, {}, [&](sim::Core& core, const ConvKernel&) {
        macro = core.superblock_stats().macro_iterations;
        EXPECT_EQ(core.superblock_ops_compiled(sim::SbKind::kHandler), 0u);
      });
  EXPECT_EQ(res.output, data.golden());
  return macro;
}

class KernelSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(KernelSweep, ExtendedKernelBitExact) {
  const auto spec = to_spec(GetParam());
  const auto data = ConvLayerData::random(spec, GetParam().seed);
  const ConvVariant v = (spec.out_bits == 8) ? ConvVariant::kXpulpV2_8b
                                             : ConvVariant::kXpulpNN_HwQ;
  const auto res = run_conv_layer(data, v, sim::CoreConfig::extended());
  const auto gold = data.golden();
  for (int i = 0; i < gold.elems(); ++i) {
    ASSERT_EQ(res.output.flat(i), gold.flat(i))
        << "bits=" << spec.out_bits << " elem=" << i;
  }
  EXPECT_GT(superblock_macro_iterations(data, v), 0u);
}

std::vector<SweepCase> grid() {
  std::vector<SweepCase> v;
  u64 seed = 1;
  // 3x3 pad-1 stacks at several sizes and channel counts.
  for (const unsigned bits : {8u, 4u, 2u}) {
    const int cin_unit = 32 / static_cast<int>(bits) * 2;  // word-aligned
    for (const int hw : {4, 6, 10}) {
      for (const int cout : {4, 8}) {
        v.push_back({bits, hw, hw, cin_unit, cout, 3, 1, 1, seed++});
      }
    }
    // 5x5 kernels, no padding.
    v.push_back({bits, 8, 8, cin_unit, 4, 5, 0, 1, seed++});
    // 1x1 pointwise.
    v.push_back({bits, 6, 6, cin_unit * 2, 8, 1, 0, 1, seed++});
    // stride 2 downsampling.
    v.push_back({bits, 8, 8, cin_unit, 4, 3, 1, 2, seed++});
    // rectangular feature map.
    v.push_back({bits, 4, 8, cin_unit, 4, 3, 1, 1, seed++});
  }
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KernelSweep, ::testing::ValuesIn(grid()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      const auto& c = info.param;
      return "b" + std::to_string(c.bits) + "_h" + std::to_string(c.h) + "w" +
             std::to_string(c.w) + "_ci" + std::to_string(c.cin) + "co" +
             std::to_string(c.cout) + "_k" + std::to_string(c.k) + "p" +
             std::to_string(c.pad) + "s" + std::to_string(c.stride);
    });

// ---- mixed-precision grid: the virtual-SIMD kernel across the three mpc
// operand pairs, same geometry sweep philosophy. ----

struct MixedSweepCase {
  unsigned in_bits, w_bits, out_bits;
  int h, w, cin, cout, k, pad, stride;
  u64 seed;
};

qnn::ConvSpec to_mixed_spec(const MixedSweepCase& c) {
  qnn::ConvSpec s;
  s.in_h = c.h;
  s.in_w = c.w;
  s.in_c = c.cin;
  s.out_c = c.cout;
  s.k_h = s.k_w = c.k;
  s.pad = c.pad;
  s.stride = c.stride;
  s.in_bits = c.in_bits;
  s.w_bits = c.w_bits;
  s.out_bits = c.out_bits;
  return s;
}

class MixedKernelSweep : public ::testing::TestWithParam<MixedSweepCase> {};

TEST_P(MixedKernelSweep, MixedKernelBitExact) {
  const auto spec = to_mixed_spec(GetParam());
  const auto data = ConvLayerData::random(spec, GetParam().seed);
  const auto res = run_conv_layer(data, ConvVariant::kXpulpNN_Mixed,
                                  sim::CoreConfig::extended());
  const auto gold = data.golden();
  for (int i = 0; i < gold.elems(); ++i) {
    ASSERT_EQ(res.output.flat(i), gold.flat(i))
        << "a" << spec.in_bits << "w" << spec.w_bits << "o" << spec.out_bits
        << " elem=" << i;
  }
  EXPECT_GT(superblock_macro_iterations(data, ConvVariant::kXpulpNN_Mixed),
            0u);
}

std::vector<MixedSweepCase> mixed_grid() {
  std::vector<MixedSweepCase> v;
  u64 seed = 1000;
  // 8-bit outputs dodge the int16 pre-activation ceiling, so the full
  // geometry sweep runs there for every operand pair.
  for (const auto& [a, w] : {std::pair{8u, 4u}, {8u, 2u}, {4u, 2u}}) {
    const int cin = a == 8 ? 8 : 16;  // word-aligned channel block
    for (const int hw : {4, 6, 10}) {
      v.push_back({a, w, 8, hw, hw, cin, 8, 3, 1, 1, seed++});
    }
    v.push_back({a, w, 8, 8, 8, cin, 4, 5, 0, 1, seed++});  // 5x5 no pad
    v.push_back({a, w, 8, 6, 6, cin * 2, 8, 1, 0, 1, seed++});  // pointwise
    v.push_back({a, w, 8, 8, 8, cin, 4, 3, 1, 2, seed++});  // stride 2
    v.push_back({a, w, 8, 4, 8, cin, 4, 3, 1, 1, seed++});  // rectangular
  }
  // Sub-byte outputs: 4x2 products are small enough for 3x3 stacks; the
  // 8-bit-activation pairs stay on pointwise layers to fit int16.
  v.push_back({4, 2, 4, 6, 6, 8, 8, 3, 1, 1, seed++});
  v.push_back({4, 2, 2, 6, 6, 8, 8, 3, 1, 1, seed++});
  v.push_back({8, 4, 4, 4, 4, 16, 8, 1, 0, 1, seed++});
  v.push_back({8, 2, 2, 4, 4, 16, 8, 1, 0, 1, seed++});
  return v;
}

INSTANTIATE_TEST_SUITE_P(
    MixedGrid, MixedKernelSweep, ::testing::ValuesIn(mixed_grid()),
    [](const ::testing::TestParamInfo<MixedSweepCase>& info) {
      const auto& c = info.param;
      return "a" + std::to_string(c.in_bits) + "w" + std::to_string(c.w_bits) +
             "o" + std::to_string(c.out_bits) + "_h" + std::to_string(c.h) +
             "w" + std::to_string(c.w) + "_ci" + std::to_string(c.cin) +
             "co" + std::to_string(c.cout) + "_k" + std::to_string(c.k) +
             "p" + std::to_string(c.pad) + "s" + std::to_string(c.stride);
    });

// ---- whole runs: every paper layer's MatMul iterations retire in whole
// kConvInner runs; under a sampler only the iterations that could reach a
// deadline take the generic op loop. ----

struct PaperRunCase {
  unsigned in_bits, w_bits;
  ConvVariant variant;
};

class PaperMatMulRuns : public ::testing::TestWithParam<PaperRunCase> {};

/// Backedges a hardware loop's body takes interpreted before it compiles
/// (the engine's heat threshold).
constexpr u64 kHeatIterations = 16;

TEST_P(PaperMatMulRuns, RetireInWholeRuns) {
  const PaperRunCase& c = GetParam();
  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(c.in_bits);
  spec.w_bits = c.w_bits;
  spec.out_bits = c.in_bits == c.w_bits ? c.in_bits : 8;
  const auto data = ConvLayerData::random(spec, 31);
  // 2x2 blocking: one iteration per two pixels, two filters and one
  // activation word.
  const u64 lanes = 32 / c.in_bits;
  const u64 iterations =
      static_cast<u64>(spec.out_h() * spec.out_w() / 2) * (spec.out_c / 2) *
      ((static_cast<u64>(spec.filter_elems()) + lanes - 1) / lanes);
  for (const cycles_t interval : {cycles_t{0}, cycles_t{997}}) {
    sim::CoreConfig cfg = sim::CoreConfig::extended();
    cfg.superblock = true;
    sim::SuperblockStats sb;
    u64 samples = 0;
    const auto res = run_conv_layer(
        data, c.variant, cfg, {},
        [&](sim::Core& core, const ConvKernel&) {
          if (interval != 0) core.set_sampler([&] { ++samples; }, interval);
        },
        [&](sim::Core& core, const ConvKernel&) {
          sb = core.superblock_stats();
        });
    EXPECT_EQ(res.output, data.golden());
    EXPECT_GT(sb.whole_runs, 0u);
    if (interval == 0) {
      // All but the iterations interpreted while the body heated up.
      EXPECT_EQ(sb.macro_iterations, iterations - kHeatIterations);
    } else {
      // Each deadline leaves at most the iterations that could reach it
      // (c_iter 8 plus at most 8 dynamic cycles: two) to the op loop, and
      // the one the interpreter runs up to the next backedge.
      ASSERT_GT(samples, 0u);
      EXPECT_GE(sb.macro_iterations, iterations - kHeatIterations - 3 * samples);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperMatMulRuns,
    ::testing::Values(PaperRunCase{8, 8, ConvVariant::kXpulpV2_8b},
                      PaperRunCase{4, 4, ConvVariant::kXpulpNN_HwQ},
                      PaperRunCase{2, 2, ConvVariant::kXpulpNN_HwQ},
                      PaperRunCase{8, 4, ConvVariant::kXpulpNN_Mixed},
                      PaperRunCase{8, 2, ConvVariant::kXpulpNN_Mixed},
                      PaperRunCase{4, 2, ConvVariant::kXpulpNN_Mixed}),
    [](const ::testing::TestParamInfo<PaperRunCase>& info) {
      return "a" + std::to_string(info.param.in_bits) + "w" +
             std::to_string(info.param.w_bits);
    });

// ---- failure injection: the checking machinery must actually detect
// corruption (a test of the tests). ----

TEST(FailureInjection, CorruptedThresholdsChangeTheOutput) {
  const qnn::ConvSpec s = qnn::ConvSpec::small_layer(4);
  const auto data = ConvLayerData::random(s, 77);
  const auto gold = data.golden();

  // Run with a corrupted threshold image: flip the root node of channel 3.
  const auto flip = [](sim::Core& core, const ConvKernel& k) {
    const addr_t a = k.layout.thresholds + 3 * 32 + 1;  // high byte
    core.memory().store_u8(a, core.memory().load_u8(a) ^ 0x40);
  };
  const qnn::Tensor t = run_conv_layer(data, ConvVariant::kXpulpNN_HwQ,
                                       sim::CoreConfig::extended(), {}, flip)
                            .output;
  int diffs = 0;
  for (int i = 0; i < gold.elems(); ++i) {
    if (t.flat(i) != gold.flat(i)) ++diffs;
  }
  EXPECT_GT(diffs, 0);  // corruption is visible...
  for (int oy = 0; oy < s.out_h(); ++oy) {
    for (int ox = 0; ox < s.out_w(); ++ox) {
      for (int oc = 0; oc < s.out_c; ++oc) {
        if (oc != 3) {
          // ...and confined to the corrupted channel.
          ASSERT_EQ(t.at(oy, ox, oc), gold.at(oy, ox, oc));
        }
      }
    }
  }
}

TEST(FailureInjection, MemoryContentionChangesTimingNotResults) {
  const qnn::ConvSpec s = qnn::ConvSpec::small_layer(4);
  const auto data = ConvLayerData::random(s, 78);
  const auto gold = data.golden();

  const auto res = run_conv_layer(
      data, ConvVariant::kXpulpNN_HwQ, sim::CoreConfig::extended(), {},
      [](sim::Core& core, const ConvKernel&) {
        core.memory().set_contention_period(3);  // heavy interconnect pressure
      });
  EXPECT_GT(res.perf.mem_stall_cycles, 1000u);
  const auto m = qnn::first_mismatch(res.output, gold);
  EXPECT_FALSE(m) << m->to_string();
}

TEST(FailureInjection, TruncatedProgramFaults) {
  // Loading only half the kernel must end in an illegal instruction or a
  // memory fault, not silent garbage.
  qnn::ConvSpec s;
  s.in_h = s.in_w = 4;
  s.in_c = 16;
  s.out_c = 4;
  s.in_bits = s.w_bits = s.out_bits = 4;
  ConvKernel kernel = generate_conv_kernel(s, ConvVariant::kXpulpNN_HwQ);
  mem::Memory mem;
  const auto words = kernel.program.words();
  for (u32 i = 0; i < kernel.program.size_words() / 2; ++i) {
    mem.store_u32(i * 4, words[i]);
  }
  sim::Core core(mem);
  core.reset(0);
  EXPECT_THROW(core.run(), SimError);
}

}  // namespace
}  // namespace xpulp::kernels
