// Fully-connected layer kernels vs the golden model: a linear layer is the
// conv pipeline run on a qnn::ConvSpec::linear spec.
#include <gtest/gtest.h>

#include "kernels/conv_layer.hpp"

namespace xpulp::kernels {
namespace {

struct LinCase {
  int in_f, out_f;
  unsigned bits;
  ConvVariant v;
  bool ext;
};

class Linear : public ::testing::TestWithParam<LinCase> {};

TEST_P(Linear, BitExact) {
  const auto [in_f, out_f, bits, v, ext] = GetParam();
  const auto data = ConvLayerData::random(
      qnn::ConvSpec::linear(in_f, out_f, bits), 0x11 + bits);
  const auto cfg =
      ext ? sim::CoreConfig::extended() : sim::CoreConfig::ri5cy();
  const auto res = run_conv_layer(data, v, cfg);
  ASSERT_EQ(res.output.shape(), (qnn::Shape{1, 1, out_f}));
  const auto m = qnn::first_mismatch(res.output, data.golden());
  ASSERT_FALSE(m) << m->to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Linear,
    ::testing::Values(
        LinCase{64, 10, 4, ConvVariant::kXpulpNN_HwQ, true},
        LinCase{64, 10, 4, ConvVariant::kXpulpNN_SwQ, true},
        LinCase{64, 10, 4, ConvVariant::kXpulpV2_Sub, false},
        LinCase{128, 16, 2, ConvVariant::kXpulpNN_HwQ, true},
        LinCase{128, 16, 2, ConvVariant::kXpulpV2_Sub, false},
        LinCase{32, 8, 8, ConvVariant::kXpulpV2_8b, true},
        LinCase{32, 8, 8, ConvVariant::kXpulpV2_8b, false},
        LinCase{256, 32, 4, ConvVariant::kXpulpNN_HwQ, true}),
    [](const ::testing::TestParamInfo<LinCase>& info) {
      return "i" + std::to_string(info.param.in_f) + "_o" +
             std::to_string(info.param.out_f) + "_b" +
             std::to_string(info.param.bits) + "_v" +
             std::to_string(static_cast<int>(info.param.v)) +
             (info.param.ext ? "_ext" : "_base");
    });

TEST(Linear, MatchesLinearRef) {
  // The linear golden path and the conv golden path agree on a 1x1 layer.
  const auto data = ConvLayerData::random(qnn::ConvSpec::linear(64, 8, 4), 3);
  EXPECT_EQ(qnn::linear_ref(data.input, data.weights, data.thresholds),
            data.golden());
}

TEST(Linear, SubByteSpeedupHoldsForFcLayers) {
  const auto data =
      ConvLayerData::random(qnn::ConvSpec::linear(512, 32, 2), 5);
  const auto ext = run_conv_layer(data, ConvVariant::kXpulpNN_HwQ,
                                  sim::CoreConfig::extended());
  const auto base = run_conv_layer(data, ConvVariant::kXpulpV2_Sub,
                                   sim::CoreConfig::ri5cy());
  EXPECT_GT(static_cast<double>(base.perf.cycles) /
                static_cast<double>(ext.perf.cycles),
            4.0);
}

}  // namespace
}  // namespace xpulp::kernels
