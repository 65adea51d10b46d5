// The per-element QNN reference that the host golden pass
// (qnn::conv_accumulators, qnn::calibrate, qnn::requantize) replaced, kept
// verbatim as its oracle: one accumulator per output element, a fresh
// tap walk per element and std::sort quantiles. test_calibration checks
// the golden pass against it bit for bit and bench_host times the pass
// against it. It shares no arithmetic with the pass or the simulator, so a
// bug there cannot hide in both. The functions have internal linkage, so an
// includer that leaves one unused gets a -Wunused-function warning.
#pragma once

#include <algorithm>
#include <vector>

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

}  // namespace
}  // namespace xpulp::qnn
