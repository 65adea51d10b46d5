// Golden reference layers: internal consistency (im2col x filter ==
// accumulators), pooling/ReLU semantics, and the layer-data generator's
// invariants.
#include <gtest/gtest.h>

#include "kernels/conv_layer.hpp"
#include "qnn/ref_layers.hpp"

namespace xpulp::qnn {
namespace {

ConvSpec small_spec(unsigned bits) {
  ConvSpec s;
  s.in_h = s.in_w = 6;
  s.in_c = 8;
  s.out_c = 4;
  s.in_bits = s.w_bits = s.out_bits = bits;
  return s;
}

TEST(RefLayers, Im2colMatchesAccumulate) {
  const ConvSpec s = small_spec(4);
  auto data = kernels::ConvLayerData::random(s, 1);
  const Tensor acc = conv_accumulators(data.input, data.weights, s);
  for (int oy : {0, 2, 5}) {
    for (int ox : {0, 3, 5}) {
      const auto col = im2col_ref(data.input, s, oy, ox);
      ASSERT_EQ(static_cast<int>(col.size()), s.filter_elems());
      for (int oc = 0; oc < s.out_c; ++oc) {
        i32 dot = 0;
        for (int i = 0; i < s.filter_elems(); ++i) {
          dot += col[static_cast<size_t>(i)] * data.weights.flat(oc, i);
        }
        EXPECT_EQ(dot, acc.at(oy, ox, oc));
      }
    }
  }
}

TEST(RefLayers, Im2colZeroPadsBorders) {
  const ConvSpec s = small_spec(4);
  Tensor in({s.in_h, s.in_w, s.in_c});
  for (int i = 0; i < in.elems(); ++i) in.flat(i) = 7;
  const auto corner = im2col_ref(in, s, 0, 0);
  // Top-left 3x3 window: first row and first column of the window are pad.
  for (int c = 0; c < s.in_c; ++c) {
    EXPECT_EQ(corner[static_cast<size_t>(c)], 0);                    // (ky=0,kx=0)
    EXPECT_EQ(corner[static_cast<size_t>(3 * s.in_c + c)], 0);       // (1,0)
    EXPECT_EQ(corner[static_cast<size_t>(4 * s.in_c + c)], 7);       // (1,1)
  }
}

TEST(RefLayers, OutputGeometry) {
  ConvSpec s = small_spec(8);
  EXPECT_EQ(s.out_h(), 6);
  EXPECT_EQ(s.out_w(), 6);
  s.pad = 0;
  EXPECT_EQ(s.out_h(), 4);
  s.stride = 2;
  EXPECT_EQ(s.out_h(), 2);
  EXPECT_EQ(small_spec(8).macs(),
            static_cast<u64>(6) * 6 * 4 * 3 * 3 * 8);
}

TEST(RefLayers, ConvRefAppliesPerChannelThresholds) {
  const ConvSpec s = small_spec(2);
  auto data = kernels::ConvLayerData::random(s, 2);
  const Tensor out = conv2d_ref(data.input, data.weights, data.thresholds, s);
  const Tensor accs = conv_accumulators(data.input, data.weights, s);
  for (int oy = 0; oy < s.out_h(); ++oy) {
    for (int ox = 0; ox < s.out_w(); ++ox) {
      for (int oc = 0; oc < s.out_c; ++oc) {
        const i32 acc = accs.at(oy, ox, oc);
        EXPECT_EQ(out.at(oy, ox, oc),
                  static_cast<i32>(data.thresholds.channel(oc).quantize(acc)));
      }
    }
  }
}

TEST(RefLayers, Conv8bShiftClamp) {
  ConvSpec s = small_spec(8);
  auto data = kernels::ConvLayerData::random(s, 3);
  s = data.spec;  // generator picked the shift
  const Tensor out = conv2d_ref_u8(data.input, data.weights, s);
  for (int i = 0; i < out.elems(); ++i) {
    EXPECT_GE(out.flat(i), 0);
    EXPECT_LE(out.flat(i), 255);
  }
}

TEST(RefLayers, MaxPool) {
  Tensor in({2, 2, 2});
  in.at(0, 0, 0) = 1; in.at(0, 1, 0) = 9; in.at(1, 0, 0) = 3; in.at(1, 1, 0) = 4;
  in.at(0, 0, 1) = 5; in.at(0, 1, 1) = 2; in.at(1, 0, 1) = 8; in.at(1, 1, 1) = 0;
  const Tensor out = maxpool2x2_ref(in);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 2}));
  EXPECT_EQ(out.at(0, 0, 0), 9);
  EXPECT_EQ(out.at(0, 0, 1), 8);
}

TEST(RefLayers, AvgPoolIsCascaded) {
  Tensor in({2, 2, 1});
  in.at(0, 0, 0) = 1; in.at(0, 1, 0) = 2; in.at(1, 0, 0) = 3; in.at(1, 1, 0) = 4;
  // Cascaded: ((1+2)>>1 + (3+4)>>1) >> 1 = (1 + 3) >> 1 = 2.
  EXPECT_EQ(avgpool2x2_ref(in).at(0, 0, 0), 2);
}

TEST(RefLayers, Relu) {
  Tensor in({1, 1, 4});
  in.flat(0) = -3; in.flat(1) = 0; in.flat(2) = 5; in.flat(3) = -1;
  const Tensor out = relu_ref(in);
  EXPECT_EQ(out.flat(0), 0);
  EXPECT_EQ(out.flat(1), 0);
  EXPECT_EQ(out.flat(2), 5);
  EXPECT_EQ(out.flat(3), 0);
}

TEST(RefLayers, LinearLayer) {
  Tensor in({1, 1, 4});
  for (int i = 0; i < 4; ++i) in.flat(i) = i + 1;
  FilterBank w(2, {1, 1, 4});
  for (int i = 0; i < 4; ++i) {
    w.flat(0, i) = 1;
    w.flat(1, i) = (i % 2) ? -1 : 1;
  }
  // acc0 = 10, acc1 = 1-2+3-4 = -2.
  std::vector<Thresholds> th;
  th.push_back(Thresholds(2, {0, 5, 20}));
  th.push_back(Thresholds(2, {-10, -5, 0}));
  const LayerThresholds lt(2, std::move(th));
  const Tensor out = linear_ref(in, w, lt);
  EXPECT_EQ(out.at(0, 0, 0), 2);  // 10 >= 0 and >= 5, but < 20
  EXPECT_EQ(out.at(0, 0, 1), 2);  // -2 >= -10 and >= -5, but < 0
}

TEST(RefLayers, DataGeneratorInvariants) {
  for (unsigned bits : {2u, 4u}) {
    const ConvSpec s = small_spec(bits);
    auto data = kernels::ConvLayerData::random(s, 17);
    const i32 amax = static_cast<i32>((1u << bits) - 1);
    for (int i = 0; i < data.input.elems(); ++i) {
      EXPECT_GE(data.input.flat(i), 0);
      EXPECT_LE(data.input.flat(i), amax);
    }
    const i32 wlim = 1 << (bits - 1);
    for (const i32 w : data.weights.data()) {
      EXPECT_GE(w, -wlim);
      EXPECT_LT(w, wlim);
    }
    EXPECT_EQ(data.thresholds.channels(), s.out_c);
    // The golden output uses every code level somewhere (quantile-derived
    // thresholds guarantee balanced codes).
    const Tensor g = data.golden();
    std::vector<int> hist(1u << bits, 0);
    for (int i = 0; i < g.elems(); ++i) hist[static_cast<size_t>(g.flat(i))]++;
    for (const int h : hist) EXPECT_GT(h, 0);
  }
}

}  // namespace
}  // namespace xpulp::qnn
