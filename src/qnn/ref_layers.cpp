#include "qnn/ref_layers.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Sorts `v` ascending: an LSD radix sort on the offset keys u32(x - min),
/// 8 bits per pass, ping-ponging through `tmp` (as long as `v`).
/// A pass whose digit is the same for every key would keep the order, so
/// it is skipped; the passes above the top byte of max - min are such
/// passes.
/// Accumulators spanning less than 2^16 take at most 2 passes.
void radix_sort(std::span<i32> v, std::span<i32> tmp) {
  const size_t n = v.size();
  if (n < 2) return;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  const u32 base = static_cast<u32>(*lo);
  const u32 range = static_cast<u32>(*hi) - base;
  std::span<i32> src = v;
  std::span<i32> dst = tmp;
  for (unsigned shift = 0; shift < 32 && (range >> shift) != 0; shift += 8) {
    const auto digit = [base, shift](i32 x) {
      return ((static_cast<u32>(x) - base) >> shift) & 0xff;
    };
    std::array<u32, 256> start{};
    for (const i32 x : src) ++start[digit(x)];
    if (start[digit(src[0])] == n) continue;
    u32 sum = 0;
    for (u32& c : start) sum += std::exchange(c, sum);
    for (const i32 x : src) dst[start[digit(x)]++] = x;
    std::swap(src, dst);
  }
  if (src.data() != v.data()) std::copy(src.begin(), src.end(), v.begin());
}

/// Staircase thresholds at the quantiles of `accs` (sorted in place,
/// through `tmp`).
Thresholds quantile_thresholds(std::span<i32> accs, std::span<i32> tmp,
                               unsigned q_bits) {
  const int levels = 1 << q_bits;
  radix_sort(accs, tmp);
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

/// Operands of the int16 dot loops lie in [-32767, 32767]: -32768 is left
/// out because -32768 * -32768 twice is the one pair sum a 16-bit
/// multiply-add (pmaddwd) wraps. range_bits(x) fits in 16 bits exactly
/// when x is in that range (only then does u32(x) + 32767 land in
/// [0, 65534] and u32(x) + 32768 in [1, 65535]), so OR-ing it over a
/// tensor is a branch-free check that vectorizes.
u32 range_bits(i32 x) {
  const u32 u = static_cast<u32>(x);
  return (u + 32767u) | (u + 32768u);
}

/// Index of the first value of `v` outside the operand range, v.size()
/// if there is none.
size_t first_outside(const std::vector<i32>& v) {
  u32 bits = 0;
  for (const i32 x : v) bits |= range_bits(x);
  if (bits <= 0xffff) return v.size();
  return static_cast<size_t>(
      std::find_if(v.begin(), v.end(),
                   [](i32 x) { return range_bits(x) > 0xffff; }) -
      v.begin());
}

/// Narrows `n` operands to int16 in one pass; returns whether they all
/// lie in the operand range.
bool narrow(const i32* src, size_t n, i16* dst) {
  u32 bits = 0;
  for (size_t i = 0; i < n; ++i) {
    bits |= range_bits(src[i]);
    dst[i] = static_cast<i16>(src[i]);
  }
  return bits <= 0xffff;
}

[[noreturn]] void throw_operand(const std::string& where, const char* tensor,
                                i32 value, const char* axes,
                                std::initializer_list<int> coord) {
  std::string at;
  for (const int c : coord) at += (at.empty() ? "" : ", ") + std::to_string(c);
  throw SimError(where + ": " + tensor + " " + std::to_string(value) +
                 " at " + axes + " = (" + at +
                 ") is outside the int16 operand range [-32767, 32767] of "
                 "the golden model");
}

}  // namespace

Tensor conv_accumulators(const Tensor& in, const FilterBank& w,
                         const ConvSpec& s, std::string_view layer) {
  if (in.shape() != Shape{s.in_h, s.in_w, s.in_c} || w.count() != s.out_c ||
      w.filter_elems() != s.filter_elems()) {
    throw SimError("tensor shapes do not match " + geometry(s));
  }
  const auto where = [&] {
    return layer.empty() ? geometry(s) : std::string(layer);
  };
  const size_t in_c = static_cast<size_t>(s.in_c);
  const size_t fe = static_cast<size_t>(s.filter_elems());
  if (const size_t i = first_outside(in.data()); i < in.data().size()) {
    const int px = static_cast<int>(i / in_c);
    throw_operand(where(), "activation", in.data()[i], "(y, x, c)",
                  {px / s.in_w, px % s.in_w, static_cast<int>(i % in_c)});
  }
  // Filter-major int16 weights, each filter zero-padded to `row` (a
  // multiple of 8 lanes); the im2col row of an output pixel has the same
  // padding, so every dot runs whole blocks.
  const size_t row = (fe + 7) & ~size_t{7};
  std::vector<i16> wt(row * static_cast<size_t>(s.out_c), 0);
  for (size_t f = 0; f < static_cast<size_t>(s.out_c); ++f) {
    if (narrow(&w.data()[f * fe], fe, &wt[f * row])) continue;
    const size_t i = first_outside(w.data());
    const int tap = static_cast<int>(i % fe / in_c);
    throw_operand(where(), "weight", w.data()[i], "(f, ky, kx, c)",
                  {static_cast<int>(i / fe), tap / s.k_w, tap % s.k_w,
                   static_cast<int>(i % in_c)});
  }
  std::vector<i16> col(row, 0);
  const int oh = s.out_h();
  const int ow = s.out_w();
  Tensor acc({oh, ow, s.out_c});
  i32* out = acc.data().data();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, out += s.out_c) {
      // The im2col row: in_c activations per kernel tap, zero at borders.
      i16* c = col.data();
      for (int ky = 0; ky < s.k_h; ++ky) {
        const int y = oy * s.stride - s.pad + ky;
        for (int kx = 0; kx < s.k_w; ++kx, c += in_c) {
          const int x = ox * s.stride - s.pad + kx;
          if (y < 0 || y >= s.in_h || x < 0 || x >= s.in_w) {
            std::fill_n(c, in_c, i16{0});
            continue;
          }
          const i32* a = &in.data()[static_cast<size_t>(y * s.in_w + x) * in_c];
          std::transform(a, a + in_c, c,
                         [](i32 v) { return static_cast<i16>(v); });
        }
      }
      const i16* f = wt.data();
      for (int oc = 0; oc < s.out_c; ++oc, f += row) {
        i32 sum = 0;
        for (size_t i = 0; i < row; ++i) {
          sum += static_cast<i32>(col[i]) * static_cast<i32>(f[i]);
        }
        out[oc] = sum;
      }
      if (s.out_bits == 8) continue;
      for (int oc = 0; oc < s.out_c; ++oc) {
        if (out[oc] < -32768 || out[oc] > 32767) {
          throw SimError(where() + ": pre-activation " +
                         std::to_string(out[oc]) + " at (oy, ox, oc) = (" +
                         std::to_string(oy) + ", " + std::to_string(ox) +
                         ", " + std::to_string(oc) +
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
  // The staircase code is the number of thresholds <= x: one compare per
  // threshold, summed without branches over the channel's sorted list.
  const size_t steps = (size_t{1} << s.out_bits) - 1;
  const i32* a = acc.data().data();
  i32* o = out.data().data();
  for (int i = 0; i < acc.elems(); i += channels) {
    for (int oc = 0; oc < channels; ++oc) {
      const i16* t = th.channel(oc).sorted().data();
      const i32 x = a[i + oc];
      i32 code = 0;
      for (size_t k = 0; k < steps; ++k) code += x >= t[k];
      o[i + oc] = code;
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
  const bool shared = positions < 2 * (1 << s.out_bits);
  const size_t n = shared ? acc.data().size() : static_cast<size_t>(positions);
  // One allocation: the accumulators to sort, then the sort's scratch.
  std::vector<i32> buf(2 * n);
  const std::span<i32> accs(buf.data(), n);
  const std::span<i32> tmp(buf.data() + n, n);
  std::vector<Thresholds> per_channel;
  if (shared) {
    std::copy(acc.data().begin(), acc.data().end(), accs.begin());
    per_channel.assign(static_cast<size_t>(channels),
                       quantile_thresholds(accs, tmp, s.out_bits));
  } else {
    for (int oc = 0; oc < channels; ++oc) {
      for (int p = 0; p < positions; ++p) {
        accs[static_cast<size_t>(p)] = acc.flat(p * channels + oc);
      }
      per_channel.push_back(quantile_thresholds(accs, tmp, s.out_bits));
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
