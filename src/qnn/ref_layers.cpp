#include "qnn/ref_layers.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "common/error.hpp"

namespace xpulp::qnn {

std::vector<i32> im2col_ref(const Tensor& in, const ConvSpec& s, int oy,
                            int ox) {
  std::vector<i32> col(static_cast<size_t>(s.filter_elems()), 0);
  size_t i = 0;
  for (int ky = 0; ky < s.k_h; ++ky) {
    for (int kx = 0; kx < s.k_w; ++kx) {
      const int y = oy * s.stride - s.pad + ky;
      const int x = ox * s.stride - s.pad + kx;
      for (int c = 0; c < s.in_c; ++c, ++i) {
        if (y >= 0 && y < s.in_h && x >= 0 && x < s.in_w) {
          col[i] = in.at(y, x, c);
        }
      }
    }
  }
  return col;
}

namespace {

std::string geometry(const ConvSpec& s) {
  return "conv " + std::to_string(s.in_h) + "x" + std::to_string(s.in_w) +
         "x" + std::to_string(s.in_c) + " -> " + std::to_string(s.out_h()) +
         "x" + std::to_string(s.out_w()) + "x" + std::to_string(s.out_c);
}

/// Staircase thresholds at the quantiles of `accs` (sorted in place).
Thresholds quantile_thresholds(std::vector<i32>& accs, unsigned q_bits) {
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

}  // namespace

Tensor conv_accumulators(const Tensor& in, const FilterBank& w,
                         const ConvSpec& s, std::string_view layer) {
  if (in.shape() != Shape{s.in_h, s.in_w, s.in_c} || w.count() != s.out_c ||
      w.filter_elems() != s.filter_elems()) {
    throw SimError("tensor shapes do not match " + geometry(s));
  }
  const int oh = s.out_h();
  const int ow = s.out_w();
  const size_t fe = static_cast<size_t>(s.filter_elems());
  Tensor acc({oh, ow, s.out_c});
  i32* out = acc.data().data();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, out += s.out_c) {
      for (int ky = 0; ky < s.k_h; ++ky) {
        const int y = oy * s.stride - s.pad + ky;
        if (y < 0 || y >= s.in_h) continue;
        for (int kx = 0; kx < s.k_w; ++kx) {
          const int x = ox * s.stride - s.pad + kx;
          if (x < 0 || x >= s.in_w) continue;
          // One kernel tap: in_c contiguous activations against the same
          // in_c-long slice of every filter.
          const i32* a = &in.data()[static_cast<size_t>(y * s.in_w + x) *
                                    static_cast<size_t>(s.in_c)];
          const i32* f = &w.data()[static_cast<size_t>(ky * s.k_w + kx) *
                                   static_cast<size_t>(s.in_c)];
          for (int oc = 0; oc < s.out_c; ++oc, f += fe) {
            i32 sum = 0;
            for (int c = 0; c < s.in_c; ++c) sum += a[c] * f[c];
            out[oc] += sum;
          }
        }
      }
      if (s.out_bits == 8) continue;
      for (int oc = 0; oc < s.out_c; ++oc) {
        if (out[oc] < -32768 || out[oc] > 32767) {
          throw SimError((layer.empty() ? geometry(s) : std::string(layer)) +
                         ": pre-activation " + std::to_string(out[oc]) +
                         " at (oy, ox, oc) = (" + std::to_string(oy) + ", " +
                         std::to_string(ox) + ", " + std::to_string(oc) +
                         ") exceeds the 16-bit range of the quantization "
                         "unit");
        }
      }
    }
  }
  return acc;
}

Tensor requantize(const Tensor& acc, const ConvSpec& s,
                  const LayerThresholds& th) {
  Tensor out(acc.shape());
  if (s.out_bits == 8) {
    for (int i = 0; i < acc.elems(); ++i) {
      out.flat(i) = std::clamp<i32>(acc.flat(i) >> s.requant_shift, 0, 255);
    }
    return out;
  }
  const int channels = acc.shape().c;
  if (th.channels() != channels || th.q_bits() != s.out_bits) {
    throw std::invalid_argument("threshold set does not match layer");
  }
  for (int i = 0; i < acc.elems(); i += channels) {
    for (int oc = 0; oc < channels; ++oc) {
      out.flat(i + oc) =
          static_cast<i32>(th.channel(oc).quantize(acc.flat(i + oc)));
    }
  }
  return out;
}

void calibrate(const Tensor& acc, ConvSpec& s, LayerThresholds& th) {
  if (s.out_bits == 8) {
    i32 max_acc = 1;
    for (const i32 a : acc.data()) max_acc = std::max(max_acc, a);
    u32 shift = 0;
    while ((max_acc >> shift) > 255) ++shift;
    s.requant_shift = shift;
    return;
  }
  const int channels = acc.shape().c;
  const int positions = acc.shape().h * acc.shape().w;
  std::vector<Thresholds> per_channel;
  if (positions < 2 * (1 << s.out_bits)) {
    std::vector<i32> all = acc.data();
    per_channel.assign(static_cast<size_t>(channels),
                       quantile_thresholds(all, s.out_bits));
  } else {
    std::vector<i32> accs(static_cast<size_t>(positions));
    for (int oc = 0; oc < channels; ++oc) {
      for (int p = 0; p < positions; ++p) {
        accs[static_cast<size_t>(p)] = acc.flat(p * channels + oc);
      }
      per_channel.push_back(quantile_thresholds(accs, s.out_bits));
    }
  }
  th = LayerThresholds(s.out_bits, std::move(per_channel));
}

Tensor conv2d_ref(const Tensor& in, const FilterBank& w,
                  const LayerThresholds& th, const ConvSpec& s) {
  return requantize(conv_accumulators(in, w, s), s, th);
}

Tensor conv2d_ref_u8(const Tensor& in, const FilterBank& w,
                     const ConvSpec& s) {
  ConvSpec s8 = s;
  s8.out_bits = 8;
  return requantize(conv_accumulators(in, w, s8), s8, {});
}

Tensor linear_ref(const Tensor& in, const FilterBank& w,
                  const LayerThresholds& th) {
  ConvSpec s;  // 1x1 conv over a 1 x 1 x N input (shape-checked)
  s.in_h = s.in_w = 1;
  s.k_h = s.k_w = 1;
  s.pad = 0;
  s.in_c = in.shape().c;
  s.out_c = w.count();
  s.out_bits = th.q_bits();
  return requantize(conv_accumulators(in, w, s, "linear"), s, th);
}

Tensor maxpool2x2_ref(const Tensor& in) {
  const Shape s = in.shape();
  assert(s.h % 2 == 0 && s.w % 2 == 0);
  Tensor out({s.h / 2, s.w / 2, s.c});
  for (int y = 0; y < s.h / 2; ++y) {
    for (int x = 0; x < s.w / 2; ++x) {
      for (int c = 0; c < s.c; ++c) {
        const i32 m = std::max(
            std::max(in.at(2 * y, 2 * x, c), in.at(2 * y, 2 * x + 1, c)),
            std::max(in.at(2 * y + 1, 2 * x, c), in.at(2 * y + 1, 2 * x + 1, c)));
        out.at(y, x, c) = m;
      }
    }
  }
  return out;
}

Tensor avgpool2x2_ref(const Tensor& in) {
  const Shape s = in.shape();
  assert(s.h % 2 == 0 && s.w % 2 == 0);
  Tensor out({s.h / 2, s.w / 2, s.c});
  for (int y = 0; y < s.h / 2; ++y) {
    for (int x = 0; x < s.w / 2; ++x) {
      for (int c = 0; c < s.c; ++c) {
        // Cascaded averaging, exactly as a pv.avgu-based kernel computes it
        // (horizontal pair averages, then the vertical average of those).
        const i32 top = (in.at(2 * y, 2 * x, c) + in.at(2 * y, 2 * x + 1, c)) >> 1;
        const i32 bot =
            (in.at(2 * y + 1, 2 * x, c) + in.at(2 * y + 1, 2 * x + 1, c)) >> 1;
        out.at(y, x, c) = (top + bot) >> 1;
      }
    }
  }
  return out;
}

Tensor relu_ref(const Tensor& in) {
  Tensor out(in.shape());
  for (int i = 0; i < in.elems(); ++i) {
    out.flat(i) = std::max<i32>(in.flat(i), 0);
  }
  return out;
}

}  // namespace xpulp::qnn
