// Golden reference implementations of the QNN layers (host-side, bit-exact
// specification for the generated kernels).
//
// Conventions (shared with src/kernels):
//   - activations: unsigned codes, `in_bits` wide;
//   - weights: signed two's complement, `w_bits` wide;
//   - convolution accumulates act * weight in 32 bits; for sub-byte outputs
//     the accumulator must fit in int16 (the quantization unit consumes
//     16-bit pre-activations) — the reference throws SimError otherwise;
//   - sub-byte outputs re-quantize through per-channel staircase
//     thresholds; 8-bit outputs use the PULP-NN scale path
//     out = clamp((acc + bias) >> shift, 0, 255).
#pragma once

#include <string_view>

#include "qnn/tensor.hpp"
#include "qnn/thresholds.hpp"

namespace xpulp::qnn {

struct ConvSpec {
  int in_h = 16;
  int in_w = 16;
  int in_c = 32;
  int out_c = 64;
  int k_h = 3;
  int k_w = 3;
  int stride = 1;
  int pad = 1;

  unsigned in_bits = 8;   // activation code width
  unsigned w_bits = 8;    // weight width
  unsigned out_bits = 8;  // output code width

  u32 requant_shift = 8;  // 8-bit output path only

  int out_h() const { return (in_h + 2 * pad - k_h) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - k_w) / stride + 1; }
  int filter_elems() const { return k_h * k_w * in_c; }
  /// Multiply-accumulate count of the whole layer.
  u64 macs() const {
    return static_cast<u64>(out_h()) * out_w() * out_c * filter_elems();
  }

  /// The layer the paper benchmarks: 16x16x32 input, 64 3x3x32 filters.
  static ConvSpec paper_layer(unsigned bits) {
    ConvSpec s;
    s.in_bits = s.w_bits = s.out_bits = bits;
    return s;
  }

  /// The paper layer cut down to 6x6x16 -> 8: the workload tests, tools
  /// and sweeps use where the paper layer would be slow.
  static ConvSpec small_layer(unsigned bits) {
    ConvSpec s = paper_layer(bits);
    s.in_h = s.in_w = 6;
    s.in_c = 16;
    s.out_c = 8;
    return s;
  }

  /// A fully-connected layer: the 1x1 convolution of a 1 x 1 x in_features
  /// input, uniform at `bits` (set w_bits / out_bits after for mixed
  /// layers). in_features * bits must be word-aligned, out_features a
  /// multiple of the output pack group.
  static ConvSpec linear(int in_features, int out_features, unsigned bits) {
    ConvSpec s = paper_layer(bits);
    s.in_h = s.in_w = s.k_h = s.k_w = 1;
    s.pad = 0;
    s.in_c = in_features;
    s.out_c = out_features;
    return s;
  }
};

/// 32-bit pre-activations (accumulators) of a whole layer in HWC order
/// (out_h x out_w x out_c): one host convolution pass, an int16 im2col row
/// per output pixel dotted against an int16 copy of the filters. The
/// calibration and the golden output of a layer both derive from this one
/// pass. Every activation and weight must lie in [-32767, 32767]; one
/// outside throws SimError naming `layer` (the geometry when empty), the
/// tensor, its coordinate and its value. Layers with sub-byte outputs feed
/// the 16-bit quantization unit, so there an accumulator outside int16
/// throws SimError naming `layer`, the first such (oy, ox, oc) in HWC
/// order and the value.
Tensor conv_accumulators(const Tensor& in, const FilterBank& w,
                         const ConvSpec& s, std::string_view layer = {});

/// Output codes from a layer's accumulators: per-channel staircase
/// thresholds for sub-byte outputs, the scale/clamp path for 8-bit ones.
Tensor requantize(const Tensor& acc, const ConvSpec& s,
                  const LayerThresholds& th);

/// Calibrate a layer on its accumulators, as scale selection and threshold
/// training would. 8-bit outputs get the smallest `s.requant_shift` that
/// maps the largest accumulator into 0..255. Sub-byte outputs get `th`:
/// staircase thresholds at the accumulator quantiles, per channel, or
/// shared layer-global ones when a channel has fewer than 2 * 2^out_bits
/// positions (e.g. fully-connected layers).
void calibrate(const Tensor& acc, ConvSpec& s, LayerThresholds& th);

/// Full conv layer with staircase re-quantization (out_bits in {2, 4}).
Tensor conv2d_ref(const Tensor& in, const FilterBank& w,
                  const LayerThresholds& th, const ConvSpec& s);

/// Full conv layer with the 8-bit scale/clamp re-quantization.
Tensor conv2d_ref_u8(const Tensor& in, const FilterBank& w,
                     const ConvSpec& s);

/// Fully-connected layer: in is flattened (1 x 1 x N); weights are `count`
/// filters of shape 1 x 1 x N. Staircase re-quantization.
Tensor linear_ref(const Tensor& in, const FilterBank& w,
                  const LayerThresholds& th);

/// 2x2 max pooling (stride 2) on codes.
Tensor maxpool2x2_ref(const Tensor& in);

/// 2x2 average pooling (stride 2), cascaded pairwise averages (pv.avgu
/// semantics): ((a+b)>>1 + (c+d)>>1) >> 1.
Tensor avgpool2x2_ref(const Tensor& in);

/// ReLU on signed codes (used by tests of pv.max.sc-based kernels).
Tensor relu_ref(const Tensor& in);

/// The im2col column for output pixel (oy, ox): k_h*k_w*in_c activation
/// codes in kernel-stream order, zero-padded at borders.
std::vector<i32> im2col_ref(const Tensor& in, const ConvSpec& s, int oy,
                            int ox);

}  // namespace xpulp::qnn
