// Sequential QNN network runner: chain convolution, pooling, and
// fully-connected layers on a simulated core, with per-layer statistics
// and bit-exact golden checking. This is the API a model-deployment flow
// would target (the per-layer structure mirrors how PULP-NN networks are
// scheduled layer by layer out of L1).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernels/conv_layer.hpp"
#include "kernels/pool_gen.hpp"

namespace xpulp::kernels {

struct LayerStats {
  std::string name;
  qnn::Shape out_shape;
  cycles_t cycles = 0;
  u64 macs = 0;
  /// The golden check's verdict: the first element where the device
  /// output differs from the layer's golden model, or nullopt on a match.
  std::optional<qnn::Mismatch> mismatch;
};

struct NetworkResult {
  qnn::Tensor output;
  std::vector<LayerStats> layers;
  cycles_t total_cycles = 0;
  u64 total_macs = 0;
  bool all_matched = true;
};

/// Per-layer precision descriptor for mixed-precision networks (Ottavi's
/// deployment model): the layer's weight width and the width of the
/// activations it produces. The input width is whatever the previous layer
/// emitted; when it differs from `w_bits`, the layer runs on the mixed
/// virtual-SIMD kernel (kXpulpNN_Mixed) regardless of the variant passed
/// to run(), and (in_bits, w_bits) must be one of the mpc pairs.
struct LayerPrecision {
  unsigned w_bits;
  unsigned out_bits;
};

/// A feed-forward stack of quantized layers. Each conv/linear layer gets
/// random weights (those ConvLayerData::random draws for its spec and
/// seed) and is calibrated on its *actual* input (qnn::calibrate): the
/// requantization shift for 8-bit outputs, thresholds at the accumulator
/// quantiles for sub-byte outputs (what threshold training produces).
/// Build once, then run() against any core configuration.
class Network {
 public:
  /// `bits` applies to every tensor in the network (uniform quantization,
  /// as in the paper's benchmarks) until a layer overrides it with a
  /// LayerPrecision.
  Network(qnn::Shape input_shape, unsigned bits, u64 seed);

  /// Append a convolution: `out_c` filters of k x k, stride 1, `pad`,
  /// uniform at the current activation width.
  Network& conv(int out_c, int k = 3, int pad = 1);
  /// Append a convolution with an explicit per-layer precision.
  Network& conv(int out_c, int k, int pad, LayerPrecision p);
  /// Append 2x2/stride-2 max or average pooling.
  Network& maxpool();
  Network& avgpool();
  /// Append a fully-connected layer (flattens the current shape).
  Network& linear(int out_features);
  /// Append a fully-connected layer with an explicit per-layer precision.
  Network& linear(int out_features, LayerPrecision p);

  qnn::Shape output_shape() const { return shape_; }
  int layer_count() const { return static_cast<int>(plan_.size()); }
  /// Width of the activations the last appended layer produces.
  unsigned activation_bits() const { return cur_bits_; }

  /// Run the whole network on-device for `input` (unsigned codes of the
  /// declared shape). Each layer's device output is checked against the
  /// golden model of that layer; the golden pipeline continues from the
  /// device output so a single mismatch cannot cascade silently. Throws
  /// SimError, naming the layer, when a sub-byte layer's pre-activation
  /// leaves the 16-bit range of the quantization unit.
  NetworkResult run(const qnn::Tensor& input, const sim::CoreConfig& cfg,
                    ConvVariant variant = ConvVariant::kXpulpNN_HwQ) const;

 private:
  struct Step {
    enum class Kind { kConv, kMaxPool, kAvgPool, kLinear } kind;
    qnn::ConvSpec spec;   // conv / linear geometry (incl. per-layer widths)
    unsigned bits = 8;    // activation width at this step (pool layers)
    u64 seed;
    std::string name;
  };

  unsigned bits_;
  unsigned cur_bits_;  // activation width flowing out of the last layer
  u64 seed_;
  qnn::Shape shape_;  // evolves as layers are appended
  std::vector<Step> plan_;
};

}  // namespace xpulp::kernels
