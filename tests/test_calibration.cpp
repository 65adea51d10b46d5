// One accumulator pass per layer: qnn::conv_accumulators feeds both the
// calibration (qnn::calibrate) and the golden output (qnn::requantize).
// Both must reproduce, bit for bit, the per-element reference code they
// replace. Verbatim copies of that code live below, only in this test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/conv_layer.hpp"
#include "qnn/ref_layers.hpp"

namespace xpulp::qnn {
namespace {

// ---- the replaced reference code, verbatim ----

i32 old_conv_accumulate(const Tensor& in, const FilterBank& w,
                        const ConvSpec& s, int oy, int ox, int oc) {
  i32 acc = 0;
  int i = 0;
  for (int ky = 0; ky < s.k_h; ++ky) {
    for (int kx = 0; kx < s.k_w; ++kx) {
      const int y = oy * s.stride - s.pad + ky;
      const int x = ox * s.stride - s.pad + kx;
      for (int c = 0; c < s.in_c; ++c, ++i) {
        if (y >= 0 && y < s.in_h && x >= 0 && x < s.in_w) {
          acc += in.at(y, x, c) * w.flat(oc, i);
        }
      }
    }
  }
  return acc;
}

Tensor old_conv2d_ref(const Tensor& in, const FilterBank& w,
                      const LayerThresholds& th, const ConvSpec& s) {
  Tensor out({s.out_h(), s.out_w(), s.out_c});
  for (int oy = 0; oy < s.out_h(); ++oy) {
    for (int ox = 0; ox < s.out_w(); ++ox) {
      for (int oc = 0; oc < s.out_c; ++oc) {
        const i32 acc = old_conv_accumulate(in, w, s, oy, ox, oc);
        out.at(oy, ox, oc) = static_cast<i32>(th.channel(oc).quantize(acc));
      }
    }
  }
  return out;
}

Tensor old_conv2d_ref_u8(const Tensor& in, const FilterBank& w,
                         const ConvSpec& s) {
  Tensor out({s.out_h(), s.out_w(), s.out_c});
  for (int oy = 0; oy < s.out_h(); ++oy) {
    for (int ox = 0; ox < s.out_w(); ++ox) {
      for (int oc = 0; oc < s.out_c; ++oc) {
        const i32 acc = old_conv_accumulate(in, w, s, oy, ox, oc);
        const i32 scaled = acc >> s.requant_shift;
        out.at(oy, ox, oc) = std::clamp<i32>(scaled, 0, 255);
      }
    }
  }
  return out;
}

Tensor old_linear_ref(const Tensor& in, const FilterBank& w,
                      const LayerThresholds& th) {
  Tensor out({1, 1, w.count()});
  for (int f = 0; f < w.count(); ++f) {
    i32 acc = 0;
    for (int i = 0; i < w.filter_elems(); ++i) {
      acc += in.flat(i) * w.flat(f, i);
    }
    out.at(0, 0, f) = static_cast<i32>(th.channel(f).quantize(acc));
  }
  return out;
}

/// The network runner's threshold training.
LayerThresholds old_trained_thresholds(const Tensor& input,
                                       const FilterBank& weights,
                                       const ConvSpec& spec) {
  const int levels = 1 << spec.out_bits;
  const int positions = spec.out_h() * spec.out_w();
  auto from_accs = [&](std::vector<i32>& accs) {
    std::sort(accs.begin(), accs.end());
    std::vector<i16> th(static_cast<size_t>(levels - 1));
    i32 prev = -40000;
    for (int i = 1; i < levels; ++i) {
      i32 t = accs[std::min(accs.size() - 1,
                            static_cast<size_t>(i) * accs.size() / levels)];
      if (t <= prev) t = prev + 1;
      t = std::clamp<i32>(t, -32768, 32767);
      th[static_cast<size_t>(i - 1)] = static_cast<i16>(t);
      prev = t;
    }
    return th;
  };

  std::vector<Thresholds> per_channel;
  if (positions < 2 * levels) {
    std::vector<i32> accs;
    for (int oc = 0; oc < spec.out_c; ++oc) {
      for (int oy = 0; oy < spec.out_h(); ++oy) {
        for (int ox = 0; ox < spec.out_w(); ++ox) {
          accs.push_back(old_conv_accumulate(input, weights, spec, oy, ox, oc));
        }
      }
    }
    const Thresholds shared(spec.out_bits, from_accs(accs));
    per_channel.assign(static_cast<size_t>(spec.out_c), shared);
  } else {
    for (int oc = 0; oc < spec.out_c; ++oc) {
      std::vector<i32> accs;
      for (int oy = 0; oy < spec.out_h(); ++oy) {
        for (int ox = 0; ox < spec.out_w(); ++ox) {
          accs.push_back(old_conv_accumulate(input, weights, spec, oy, ox, oc));
        }
      }
      per_channel.emplace_back(spec.out_bits, from_accs(accs));
    }
  }
  return LayerThresholds(spec.out_bits, std::move(per_channel));
}

/// ConvLayerData::random's 8-bit requantization shift.
u32 old_requant_shift(const Tensor& input, const FilterBank& weights,
                      const ConvSpec& spec) {
  i32 max_acc = 1;
  for (int oy = 0; oy < spec.out_h(); ++oy) {
    for (int ox = 0; ox < spec.out_w(); ++ox) {
      for (int oc = 0; oc < spec.out_c; ++oc) {
        max_acc = std::max(
            max_acc, old_conv_accumulate(input, weights, spec, oy, ox, oc));
      }
    }
  }
  u32 shift = 0;
  while ((max_acc >> shift) > 255) ++shift;
  return shift;
}

// ---- layer shapes ----

ConvSpec conv(int h, int w, int c, int out_c, unsigned in_bits,
              unsigned w_bits, unsigned out_bits, int k = 3, int pad = 1,
              int stride = 1) {
  ConvSpec s;
  s.in_h = h;
  s.in_w = w;
  s.in_c = c;
  s.out_c = out_c;
  s.k_h = s.k_w = k;
  s.pad = pad;
  s.stride = stride;
  s.in_bits = in_bits;
  s.w_bits = w_bits;
  s.out_bits = out_bits;
  return s;
}

ConvSpec linear(int in_features, int out_features, unsigned in_bits,
                unsigned w_bits, unsigned out_bits) {
  return conv(1, 1, in_features, out_features, in_bits, w_bits, out_bits,
              /*k=*/1, /*pad=*/0);
}

/// The conv and linear layers of the benchmark's net-mixed stack and of
/// every stack in test_network, at the widths they run at.
std::vector<ConvSpec> network_layers() {
  std::vector<ConvSpec> v = {
      // net-mixed
      conv(32, 32, 8, 16, 8, 4, 4),
      conv(32, 32, 16, 16, 4, 4, 4),
      conv(16, 16, 16, 32, 4, 2, 2),
      conv(16, 16, 32, 32, 2, 2, 2),
      linear(8 * 8 * 32, 16, 2, 2, 2),
      // Network.AvgPoolVariant, RunsOnBaselineWithSubByteVariant,
      // DeterministicAcrossRuns, SameNetworkFasterOnExtendedCore
      conv(2, 2, 16, 8, 4, 4, 4, 1, 0),
      conv(6, 6, 16, 8, 4, 4, 4),
      conv(8, 8, 16, 16, 2, 2, 2),
      conv(4, 4, 16, 16, 2, 2, 2),
      // Network.MixedPrecisionStackBitExact
      conv(8, 8, 8, 16, 8, 4, 8),
      conv(4, 4, 16, 8, 8, 2, 8),
      linear(2 * 2 * 8, 12, 8, 4, 8),
      // Network.MixedSubByteOutputLayer, PrecisionFlowsToFollowingLayers
      conv(6, 6, 8, 8, 4, 2, 4),
      conv(8, 8, 8, 8, 8, 4, 4),
      conv(8, 8, 8, 8, 4, 2, 4),
  };
  // NetworkBits.FiveLayerStackBitExact at 8, 4 and 2 bits.
  for (unsigned b : {8u, 4u, 2u}) {
    v.push_back(conv(8, 8, 16, 16, b, b, b));
    v.push_back(conv(4, 4, 16, 32, b, b, b));
    v.push_back(linear(2 * 2 * 32, 12, b, b, b));
  }
  return v;
}

Tensor random_codes(const ConvSpec& s, u64 seed) {
  Rng rng(seed);
  Tensor t({s.in_h, s.in_w, s.in_c});
  for (int i = 0; i < t.elems(); ++i) {
    t.flat(i) = static_cast<i32>(rng.unsigned_bits(s.in_bits));
  }
  return t;
}

std::string name_of(const ConvSpec& s) {
  return std::to_string(s.in_h) + "x" + std::to_string(s.in_w) + "x" +
         std::to_string(s.in_c) + "->" + std::to_string(s.out_c) + " " +
         std::to_string(s.in_bits) + "/" + std::to_string(s.w_bits) + "/" +
         std::to_string(s.out_bits);
}

TEST(Calibration, MatchesTrainedThresholdsOnNetworkLayers) {
  u64 seed = 1;
  for (const ConvSpec& spec : network_layers()) {
    const Tensor in = random_codes(spec, seed);
    const FilterBank w = kernels::ConvLayerData::random_weights(spec, seed);
    ++seed;
    ConvSpec s = spec;
    LayerThresholds th;
    calibrate(conv_accumulators(in, w, s), s, th);
    if (spec.out_bits == 8) {
      EXPECT_EQ(s.requant_shift, old_requant_shift(in, w, spec))
          << name_of(spec);
      EXPECT_EQ(th.channels(), 0) << name_of(spec);
    } else {
      EXPECT_EQ(th.serialize(),
                old_trained_thresholds(in, w, spec).serialize())
          << name_of(spec);
    }
  }
}

TEST(Calibration, RandomLayerDataKeepsItsDraws) {
  // random_weights draws exactly the weights random() does, and random()
  // calibrates on its own input with the shared rule.
  for (const ConvSpec& spec : network_layers()) {
    const auto d = kernels::ConvLayerData::random(spec, 77);
    EXPECT_EQ(d.weights.data(),
              kernels::ConvLayerData::random_weights(spec, 77).data())
        << name_of(spec);
    if (spec.out_bits != 8) {
      EXPECT_EQ(d.thresholds.serialize(),
                old_trained_thresholds(d.input, d.weights, spec).serialize())
          << name_of(spec);
    } else {
      EXPECT_EQ(d.spec.requant_shift,
                old_requant_shift(d.input, d.weights, spec))
          << name_of(spec);
    }
  }
}

TEST(Calibration, GoldenFromAccumulatorsMatchesOldReference) {
  // Padded, strided and pointwise convs plus linear layers at uniform and
  // mixed widths, with 8-bit and sub-byte outputs.
  struct Widths {
    unsigned in, w, out;
  };
  const Widths widths[] = {{8, 8, 8}, {4, 4, 4}, {2, 2, 2}, {8, 4, 4},
                           {8, 2, 8}, {4, 2, 2}, {8, 4, 8}, {4, 4, 2}};
  u64 seed = 100;
  for (const Widths& b : widths) {
    std::vector<ConvSpec> specs = {
        conv(5, 6, 8, 4, b.in, b.w, b.out),
        conv(6, 5, 16, 6, b.in, b.w, b.out, 3, 2),
        conv(7, 7, 8, 4, b.in, b.w, b.out, 3, 1, 2),
        conv(4, 4, 16, 8, b.in, b.w, b.out, 1, 0),
        linear(64, 10, b.in, b.w, b.out),
    };
    for (const ConvSpec& spec : specs) {
      const kernels::ConvLayerData d =
          kernels::ConvLayerData::random(spec, seed++);
      const ConvSpec& s = d.spec;
      const Tensor gold = d.golden();
      const bool is_linear = s.in_h == 1 && s.in_w == 1 && s.k_h == 1;
      if (s.out_bits == 8) {
        const Tensor old = old_conv2d_ref_u8(d.input, d.weights, s);
        EXPECT_EQ(gold, old) << name_of(s);
        EXPECT_EQ(conv2d_ref_u8(d.input, d.weights, s), old) << name_of(s);
      } else if (is_linear) {
        const Tensor old = old_linear_ref(d.input, d.weights, d.thresholds);
        EXPECT_EQ(gold, old) << name_of(s);
        EXPECT_EQ(linear_ref(d.input, d.weights, d.thresholds), old)
            << name_of(s);
      } else {
        const Tensor old =
            old_conv2d_ref(d.input, d.weights, d.thresholds, s);
        EXPECT_EQ(gold, old) << name_of(s);
        EXPECT_EQ(conv2d_ref(d.input, d.weights, d.thresholds, s), old)
            << name_of(s);
      }
    }
  }
}

TEST(Calibration, OverRangePreActivationThrowsWithCoordinate) {
  // 8-bit activations and weights into a 4-bit output: far outside the
  // 16-bit pre-activation range of the quantization unit. The golden
  // check must refuse the layer, not quantize a wrapped value.
  kernels::ConvLayerData d;
  d.spec = conv(4, 4, 32, 8, 8, 8, 4);
  d.input = Tensor({4, 4, 32});
  for (i32& v : d.input.data()) v = 255;
  d.weights = FilterBank(8, {3, 3, 32});
  for (i32& v : d.weights.data()) v = 100;
  try {
    (void)d.golden();
    FAIL() << "over-range layer was golden-checked";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    // Corner (0, 0, 0) sees 2x2 in-bounds taps: 4 * 32 * 255 * 100.
    EXPECT_NE(msg.find("(0, 0, 0)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3264000"), std::string::npos) << msg;
    EXPECT_NE(msg.find("conv 4x4x32"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace xpulp::qnn
