// One accumulator pass per layer: qnn::conv_accumulators feeds both the
// calibration (qnn::calibrate) and the golden output (qnn::requantize).
// Both must reproduce, bit for bit, the per-element reference code they
// replace, kept verbatim in qnn_oracle.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/conv_layer.hpp"
#include "qnn/ref_layers.hpp"
#include "qnn_oracle.hpp"

namespace xpulp::qnn {
namespace {

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

/// Whether the oracle's accumulators of a sub-byte-output layer leave the
/// 16-bit range of the quantization unit (the golden pass refuses those).
bool oracle_over_range(const Tensor& in, const FilterBank& w,
                       const ConvSpec& s) {
  if (s.out_bits == 8) return false;
  for (int oy = 0; oy < s.out_h(); ++oy) {
    for (int ox = 0; ox < s.out_w(); ++ox) {
      for (int oc = 0; oc < s.out_c; ++oc) {
        const i32 a = old_conv_accumulate(in, w, s, oy, ox, oc);
        if (a < -32768 || a > 32767) return true;
      }
    }
  }
  return false;
}

TEST(Calibration, GoldenFromAccumulatorsMatchesOldReference) {
  // Padded, strided and pointwise convs plus linear layers at uniform and
  // mixed widths, with 8-bit and sub-byte outputs; filter lengths that are
  // not a multiple of the 8-lane dot block (in_c 1, 3, 5, 9), odd out_c,
  // and the 2048-input linear layer of the net-mixed stack.
  struct Widths {
    unsigned in, w, out;
  };
  const Widths widths[] = {{8, 8, 8}, {4, 4, 4}, {2, 2, 2}, {8, 4, 4},
                           {8, 2, 8}, {4, 2, 2}, {8, 4, 8}, {4, 4, 2}};
  u64 seed = 100;
  int refused = 0;
  for (const Widths& b : widths) {
    std::vector<ConvSpec> specs = {
        conv(5, 6, 8, 4, b.in, b.w, b.out),
        conv(6, 5, 16, 6, b.in, b.w, b.out, 3, 2),
        conv(7, 7, 8, 4, b.in, b.w, b.out, 3, 1, 2),
        conv(4, 4, 16, 8, b.in, b.w, b.out, 1, 0),
        linear(64, 10, b.in, b.w, b.out),
        conv(5, 5, 1, 3, b.in, b.w, b.out),
        conv(6, 4, 3, 5, b.in, b.w, b.out, 3, 1),
        conv(7, 6, 5, 7, b.in, b.w, b.out, 3, 2, 2),
        conv(5, 7, 9, 3, b.in, b.w, b.out, 3, 2, 1),
        conv(9, 8, 3, 1, b.in, b.w, b.out, 5, 2, 2),
        linear(2048, 16, b.in, b.w, b.out),
    };
    for (const ConvSpec& spec : specs) {
      const Tensor in = random_codes(spec, seed);
      const FilterBank w = kernels::ConvLayerData::random_weights(spec, seed);
      ++seed;
      if (oracle_over_range(in, w, spec)) {
        // 8-bit codes into a wide filter: the quantization unit cannot
        // take the layer, and the golden pass must say so.
        EXPECT_THROW((void)conv_accumulators(in, w, spec), SimError)
            << name_of(spec);
        ++refused;
        continue;
      }
      kernels::ConvLayerData d;
      d.spec = spec;
      d.input = in;
      d.weights = w;
      calibrate(conv_accumulators(in, w, spec), d.spec, d.thresholds);
      const ConvSpec& s = d.spec;
      const Tensor gold = d.golden();
      const bool is_linear = s.in_h == 1 && s.in_w == 1 && s.k_h == 1;
      if (s.out_bits == 8) {
        EXPECT_EQ(s.requant_shift, old_requant_shift(in, w, spec))
            << name_of(s);
        const Tensor old = old_conv2d_ref_u8(in, w, s);
        EXPECT_EQ(gold, old) << name_of(s);
        EXPECT_EQ(conv2d_ref_u8(in, w, s), old) << name_of(s);
        continue;
      }
      EXPECT_EQ(d.thresholds.serialize(),
                old_trained_thresholds(in, w, spec).serialize())
          << name_of(s);
      if (is_linear) {
        const Tensor old = old_linear_ref(in, w, d.thresholds);
        EXPECT_EQ(gold, old) << name_of(s);
        EXPECT_EQ(linear_ref(in, w, d.thresholds), old) << name_of(s);
      } else {
        const Tensor old = old_conv2d_ref(in, w, d.thresholds, s);
        EXPECT_EQ(gold, old) << name_of(s);
        EXPECT_EQ(conv2d_ref(in, w, d.thresholds, s), old) << name_of(s);
      }
    }
  }
  // Only the 2048-input linear layer at 8-bit codes x 4-bit weights into a
  // 4-bit output leaves the 16-bit range.
  EXPECT_EQ(refused, 1);
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

/// The std::sort quantile rule on one list of accumulators, as the
/// oracle's threshold training applies it.
Thresholds sorted_rule(std::vector<i32> accs, unsigned q_bits) {
  const int levels = 1 << q_bits;
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
  return Thresholds(q_bits, std::move(th));
}

/// The rule over a whole accumulator tensor: per channel, or shared by all
/// channels when a channel has fewer than 2 * 2^q_bits positions.
LayerThresholds sorted_rule(const Tensor& acc, unsigned q_bits) {
  const Shape sh = acc.shape();
  const int positions = sh.h * sh.w;
  if (positions < 2 * (1 << q_bits)) {
    return LayerThresholds(
        q_bits, std::vector<Thresholds>(static_cast<size_t>(sh.c),
                                        sorted_rule(acc.data(), q_bits)));
  }
  std::vector<Thresholds> per_channel;
  for (int oc = 0; oc < sh.c; ++oc) {
    std::vector<i32> accs;
    for (int p = 0; p < positions; ++p) {
      accs.push_back(acc.flat(p * sh.c + oc));
    }
    per_channel.push_back(sorted_rule(std::move(accs), q_bits));
  }
  return LayerThresholds(q_bits, std::move(per_channel));
}

TEST(Calibration, QuantilesMatchTheSortRuleOnAdversarialAccumulators) {
  // calibrate reads its quantiles off a radix sort that skips the passes
  // whose digit every key shares; each tensor below stresses one way of
  // getting that wrong.
  constexpr i32 kMin = std::numeric_limits<i32>::min();
  constexpr i32 kMax = std::numeric_limits<i32>::max();
  Rng rng(2024);
  const auto pick = [&rng](const std::vector<i32>& from) {
    return from[static_cast<size_t>(rng.uniform(0, static_cast<i32>(from.size()) - 1))];
  };
  struct Case {
    const char* name;
    std::function<i32(int)> value;
  };
  const std::vector<Case> cases = {
      {"all equal", [](int) { return 7; }},
      {"all INT32_MIN", [](int) { return kMin; }},
      {"all INT32_MAX", [](int) { return kMax; }},
      {"heavy duplicates across bytes",
       [&](int) {
         return pick({-70000, -256, -1, 0, 1, 255, 256, 65536, 1 << 24});
       }},
      {"extremes and small values",
       [&](int) { return pick({kMin, kMax, kMin + 1, kMax - 1, -3, 0, 5}); }},
      {"only the top byte varies",
       [&](int) { return rng.uniform(-128, 127) * (1 << 24); }},
      {"only the middle bytes vary",
       [&](int) { return 0x55 + rng.uniform(0, 65535) * 256; }},
      {"low and top bytes vary",
       [&](int) { return rng.uniform(0, 255) + rng.uniform(-128, 127) * (1 << 24); }},
      {"sub-byte span", [&](int) { return rng.uniform(-3000, 3000); }},
      {"full span", [&](int) { return static_cast<i32>(rng.next_u64()); }},
  };
  // Per-channel shapes and the shared path (positions < 2 * levels).
  const Shape shapes[] = {{16, 16, 3}, {8, 4, 5}, {1, 1, 37}, {2, 3, 4},
                          {4, 4, 6}, {1, 1, 1}};
  for (const unsigned q : {2u, 4u}) {
    for (const Shape& sh : shapes) {
      for (const Case& c : cases) {
        Tensor acc(sh);
        for (int i = 0; i < acc.elems(); ++i) acc.flat(i) = c.value(i);
        ConvSpec s;
        s.out_bits = q;
        LayerThresholds th;
        calibrate(acc, s, th);
        EXPECT_EQ(th.serialize(), sorted_rule(acc, q).serialize())
            << c.name << ", " << sh.h << "x" << sh.w << "x" << sh.c
            << ", q " << q;
      }
    }
  }
}

TEST(Calibration, OperandOutsideInt16IsRefusedByName) {
  // The golden pass multiplies int16 operands; a code or weight it cannot
  // represent (or -32768, which a 16-bit multiply-add pair can wrap) is
  // refused with the tensor, its coordinate and its value.
  ConvSpec s = conv(4, 5, 6, 3, 8, 8, 8);
  Tensor in({4, 5, 6});
  FilterBank w(3, {3, 3, 6});
  in.at(3, 4, 5) = -32767;
  w.at(2, 2, 2, 5) = 32767;
  EXPECT_NO_THROW((void)conv_accumulators(in, w, s, "conv7"));

  in.at(1, 2, 3) = 32768;
  try {
    (void)conv_accumulators(in, w, s, "conv7");
    FAIL() << "activation 32768 was accepted";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv7: activation 32768 at (y, x, c) = (1, 2, 3)"),
              std::string::npos)
        << msg;
  }
  in.at(1, 2, 3) = 0;
  w.at(2, 1, 0, 4) = -32768;
  try {
    (void)conv_accumulators(in, w, s);
    FAIL() << "weight -32768 was accepted";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv 4x5x6 -> 4x5x3: weight -32768 at (f, ky, kx, c) "
                       "= (2, 1, 0, 4)"),
              std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace xpulp::qnn
