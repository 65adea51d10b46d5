// Sequential network runner: multi-layer on-device execution with
// per-layer golden checks, across bitwidths, variants, and cores.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/network.hpp"

namespace xpulp::kernels {
namespace {

qnn::Tensor random_input(qnn::Shape s, unsigned bits, u64 seed) {
  Rng rng(seed);
  qnn::Tensor t(s);
  for (int i = 0; i < t.elems(); ++i) {
    t.flat(i) = static_cast<i32>(rng.unsigned_bits(bits));
  }
  return t;
}

TEST(Network, ShapePropagation) {
  Network net({16, 16, 8}, 4, 1);
  net.conv(16).maxpool().conv(32).maxpool().linear(10);
  EXPECT_EQ(net.output_shape(), (qnn::Shape{1, 1, 10}));
  EXPECT_EQ(net.layer_count(), 5);
}

class NetworkBits : public ::testing::TestWithParam<unsigned> {};

TEST_P(NetworkBits, FiveLayerStackBitExact) {
  const unsigned bits = GetParam();
  Network net({8, 8, 16}, bits, 42);
  net.conv(16).maxpool().conv(32).maxpool().linear(12);
  const auto in = random_input({8, 8, 16}, bits, 7);
  const ConvVariant v =
      (bits == 8) ? ConvVariant::kXpulpV2_8b : ConvVariant::kXpulpNN_HwQ;
  const auto res = net.run(in, sim::CoreConfig::extended(), v);
  EXPECT_TRUE(res.all_matched);
  ASSERT_EQ(res.layers.size(), 5u);
  for (const auto& l : res.layers) {
    EXPECT_FALSE(l.mismatch) << l.name << " " << l.mismatch->to_string();
    EXPECT_GT(l.cycles, 0u);
  }
  EXPECT_EQ(res.output.shape(), (qnn::Shape{1, 1, 12}));
  EXPECT_EQ(res.total_macs,
            static_cast<u64>(8 * 8 * 16 * 9 * 16) +        // conv0
                static_cast<u64>(4 * 4 * 32 * 9 * 16) +    // conv2
                static_cast<u64>(2 * 2 * 32 * 12));        // linear
}

INSTANTIATE_TEST_SUITE_P(Widths, NetworkBits, ::testing::Values(8u, 4u, 2u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "b" + std::to_string(info.param);
                         });

TEST(Network, AvgPoolVariant) {
  Network net({4, 4, 16}, 4, 3);
  net.avgpool().conv(8, 1, 0);
  const auto in = random_input({4, 4, 16}, 4, 9);
  const auto res = net.run(in, sim::CoreConfig::extended());
  EXPECT_TRUE(res.all_matched);
  EXPECT_EQ(res.output.shape(), (qnn::Shape{2, 2, 8}));
}

TEST(Network, RunsOnBaselineWithSubByteVariant) {
  Network net({6, 6, 16}, 4, 5);
  net.conv(8);
  const auto in = random_input({6, 6, 16}, 4, 5);
  const auto res =
      net.run(in, sim::CoreConfig::ri5cy(), ConvVariant::kXpulpV2_Sub);
  EXPECT_TRUE(res.all_matched);
}

TEST(Network, SameNetworkFasterOnExtendedCore) {
  Network net({8, 8, 16}, 2, 11);
  net.conv(16).maxpool().conv(16);
  const auto in = random_input({8, 8, 16}, 2, 11);
  const auto ext = net.run(in, sim::CoreConfig::extended(),
                           ConvVariant::kXpulpNN_HwQ);
  const auto base = net.run(in, sim::CoreConfig::ri5cy(),
                            ConvVariant::kXpulpV2_Sub);
  EXPECT_TRUE(ext.all_matched);
  EXPECT_TRUE(base.all_matched);
  // Outputs agree across ISAs...
  EXPECT_EQ(ext.output, base.output);
  // ...and the extension pays off end to end, not just per layer.
  EXPECT_GT(static_cast<double>(base.total_cycles),
            4.0 * static_cast<double>(ext.total_cycles));
}

TEST(Network, DeterministicAcrossRuns) {
  Network net({6, 6, 16}, 4, 21);
  net.conv(8).maxpool();
  const auto in = random_input({6, 6, 16}, 4, 2);
  const auto a = net.run(in, sim::CoreConfig::extended());
  const auto b = net.run(in, sim::CoreConfig::extended());
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

TEST(Network, RejectsBadBits) {
  EXPECT_THROW(Network({4, 4, 8}, 3, 1), SimError);
}

// ---- per-layer mixed precision ----

TEST(Network, MixedPrecisionStackBitExact) {
  // 8-bit activations with 4- and 2-bit weights throughout: every conv and
  // linear layer dispatches to the virtual-SIMD mixed kernel.
  Network net({8, 8, 8}, 8, 31);
  net.conv(16, 3, 1, {/*w_bits=*/4, /*out_bits=*/8})
      .maxpool()
      .conv(8, 3, 1, {/*w_bits=*/2, /*out_bits=*/8})
      .linear(12, {/*w_bits=*/4, /*out_bits=*/8});
  EXPECT_EQ(net.activation_bits(), 8u);
  const auto in = random_input({8, 8, 8}, 8, 13);
  const auto res = net.run(in, sim::CoreConfig::extended());
  EXPECT_TRUE(res.all_matched);
  ASSERT_EQ(res.layers.size(), 4u);
  for (const auto& l : res.layers) {
    EXPECT_FALSE(l.mismatch) << l.name << " " << l.mismatch->to_string();
  }
  EXPECT_EQ(res.output.shape(), (qnn::Shape{1, 1, 12}));
}

TEST(Network, MixedSubByteOutputLayer) {
  // 4-bit activations x 2-bit weights with a 4-bit staircase output: the
  // whole mpc pair grid including a sub-byte requantization path.
  Network net({6, 6, 8}, 4, 33);
  net.conv(8, 3, 1, {/*w_bits=*/2, /*out_bits=*/4})
      .conv(8, 3, 1, {/*w_bits=*/2, /*out_bits=*/4});
  const auto in = random_input({6, 6, 8}, 4, 17);
  const auto res = net.run(in, sim::CoreConfig::extended());
  EXPECT_TRUE(res.all_matched);
  for (const auto& l : res.layers) {
    EXPECT_FALSE(l.mismatch) << l.name << " " << l.mismatch->to_string();
  }
}

TEST(Network, PrecisionFlowsToFollowingLayers) {
  // A layer that narrows its outputs changes the input width (and hence
  // the legal weight widths) of everything after it.
  Network net({8, 8, 8}, 8, 35);
  net.conv(8, 3, 1, {/*w_bits=*/4, /*out_bits=*/4});
  EXPECT_EQ(net.activation_bits(), 4u);  // mixed_sel_for(8,4), out 4
  net.conv(8, 3, 1, {/*w_bits=*/2, /*out_bits=*/4});  // 4x2 pair: legal
  EXPECT_EQ(net.activation_bits(), 4u);
  // 4-bit activations x 8-bit weights is not an mpc pair.
  EXPECT_THROW(net.linear(10, {/*w_bits=*/8, /*out_bits=*/8}), SimError);
}

TEST(Network, OverRangePreActivationThrowsNamingLayer) {
  // 8-bit activations and weights into a 4-bit output overflow the 16-bit
  // pre-activation range of the quantization unit. The runner must refuse
  // the layer, naming it, instead of golden-checking a clamped staircase.
  Network net({4, 4, 32}, 8, 3);
  net.conv(8, 3, 1, {/*w_bits=*/8, /*out_bits=*/4});
  qnn::Tensor in({4, 4, 32});
  for (i32& v : in.data()) v = 255;
  try {
    (void)net.run(in, sim::CoreConfig::extended());
    FAIL() << "over-range layer ran";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("(oy, ox, oc) = ("), std::string::npos) << msg;
    EXPECT_NE(msg.find("pre-activation"), std::string::npos) << msg;
  }
}

// ---- packed filters of 2048 bytes or more: the filter stride exceeds the
// 12-bit immediate of the matmul's pair setup ----

/// Reference, fast and superblock dispatch.
std::vector<std::pair<const char*, sim::CoreConfig>> dispatch_modes() {
  std::vector<std::pair<const char*, sim::CoreConfig>> modes;
  for (const char* name : {"reference", "fast", "superblock"}) {
    sim::CoreConfig cfg = sim::CoreConfig::extended();
    cfg.reference_dispatch = name[0] == 'r';
    cfg.superblock = name[0] == 's';
    modes.emplace_back(name, cfg);
  }
  return modes;
}

TEST(LargeFilter, LinearLayerBitExactOnEveryDispatch) {
  // 8-bit linear layer, 2048 inputs: 2048-byte filters.
  const auto data =
      ConvLayerData::random(qnn::ConvSpec::linear(2048, 4, 8), 91);
  Network net({1, 1, 2048}, 8, 92);
  net.linear(4);
  const auto in = random_input({1, 1, 2048}, 8, 93);
  for (const auto& [mode, cfg] : dispatch_modes()) {
    const auto res = run_conv_layer(data, ConvVariant::kXpulpV2_8b, cfg);
    EXPECT_EQ(res.output, data.golden()) << mode;
    const auto nres = net.run(in, cfg, ConvVariant::kXpulpV2_8b);
    EXPECT_TRUE(nres.all_matched) << mode;
  }
}

TEST(LargeFilter, Conv3x3BitExactOnEveryDispatch) {
  // 8-bit 3x3 conv over 256 channels: 2304-byte filters.
  qnn::ConvSpec s;
  s.in_h = s.in_w = 4;
  s.in_c = 256;
  s.out_c = 4;
  const auto data = ConvLayerData::random(s, 94);
  Network net({4, 4, 256}, 8, 95);
  net.conv(4);
  const auto in = random_input({4, 4, 256}, 8, 96);
  for (const auto& [mode, cfg] : dispatch_modes()) {
    const auto res = run_conv_layer(data, ConvVariant::kXpulpV2_8b, cfg);
    EXPECT_EQ(res.output, data.golden()) << mode;
    const auto nres = net.run(in, cfg, ConvVariant::kXpulpV2_8b);
    EXPECT_TRUE(nres.all_matched) << mode;
  }
}

}  // namespace
}  // namespace xpulp::kernels
