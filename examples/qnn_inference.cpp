// End-to-end 4-bit QNN inference on the simulated XpulpNN core: a small
// convolutional classifier runs layer by layer on the device, with every
// intermediate tensor checked bit-exactly against the host golden model.
//
// Network (all tensors 4-bit unsigned codes, weights 4-bit signed):
//   input  8x8x16
//   conv1  3x3, 16 -> 16 channels, pad 1        (XpulpNN kernel, pv.qnt)
//   pool1  2x2 max pooling -> 4x4x16            (pv.maxu.n kernel)
//   conv2  3x3, 16 -> 32 channels, pad 1
//   pool2  2x2 max pooling -> 2x2x32
//   fc     1x1 conv over the flattened 1x1x128 -> 10 class scores
//
// Weights are synthetic; per-channel thresholds are derived from activation
// quantiles exactly as a trained thresholding pipeline would produce them.
#include <cstdio>

#include "kernels/conv_layer.hpp"
#include "kernels/pool_gen.hpp"

using namespace xpulp;
using kernels::ConvGenOptions;
using kernels::ConvLayerData;
using kernels::ConvVariant;

namespace {

constexpr unsigned kBits = 4;

/// Build layer data for a *given* input: random weights plus thresholds at
/// the accumulator quantiles of this input (what a trained
/// batch-norm-folding pipeline produces; shared layer-global thresholds
/// when a channel has too few positions, e.g. the FC layer).
ConvLayerData make_layer(const qnn::Tensor& input, const qnn::ConvSpec& spec,
                         u64 seed) {
  ConvLayerData d;
  d.spec = spec;
  d.input = input;
  d.weights = ConvLayerData::random_weights(spec, seed);
  qnn::calibrate(qnn::conv_accumulators(d.input, d.weights, spec), d.spec,
                 d.thresholds);
  return d;
}

int check(const qnn::Tensor& device, const qnn::Tensor& golden,
          const char* stage) {
  int bad = 0;
  for (int i = 0; i < golden.elems(); ++i) {
    if (device.flat(i) != golden.flat(i)) ++bad;
  }
  std::printf("  %-8s %2dx%2dx%-3d  device vs golden: %s\n", stage,
              golden.shape().h, golden.shape().w, golden.shape().c,
              bad == 0 ? "bit-exact" : "MISMATCH");
  return bad;
}

}  // namespace

int main() {
  std::printf("4-bit QNN inference on the simulated XpulpNN core\n");
  std::printf("=================================================\n");

  const auto cfg = sim::CoreConfig::extended();

  // Synthetic input: a diagonal "stripe" pattern in 4-bit codes.
  qnn::Tensor input({8, 8, 16});
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      for (int c = 0; c < 16; ++c) {
        input.at(y, x, c) = ((y + x + c) % 5 == 0) ? 15 : (x + c) % 4;
      }
    }
  }

  int total_bad = 0;
  cycles_t total_cycles = 0;
  std::printf("\nlayers:\n");

  // conv1: 8x8x16 -> 8x8x16.
  qnn::ConvSpec c1;
  c1.in_h = c1.in_w = 8;
  c1.in_c = 16;
  c1.out_c = 16;
  c1.in_bits = c1.w_bits = c1.out_bits = kBits;
  const auto l1 = make_layer(input, c1, 101);
  const auto r1 = kernels::run_conv_layer(l1, ConvVariant::kXpulpNN_HwQ, cfg);
  total_bad += check(r1.output, l1.golden(), "conv1");
  total_cycles += r1.perf.cycles;

  // pool1: 8x8x16 -> 4x4x16.
  const auto p1 = kernels::run_pool2x2(r1.output, kBits,
                                       kernels::PoolOp::kMax, cfg);
  total_bad += check(p1.output, qnn::maxpool2x2_ref(r1.output), "pool1");
  total_cycles += p1.perf.cycles;

  // conv2: 4x4x16 -> 4x4x32.
  qnn::ConvSpec c2;
  c2.in_h = c2.in_w = 4;
  c2.in_c = 16;
  c2.out_c = 32;
  c2.in_bits = c2.w_bits = c2.out_bits = kBits;
  const auto l2 = make_layer(p1.output, c2, 202);
  const auto r2 = kernels::run_conv_layer(l2, ConvVariant::kXpulpNN_HwQ, cfg);
  total_bad += check(r2.output, l2.golden(), "conv2");
  total_cycles += r2.perf.cycles;

  // pool2: 4x4x32 -> 2x2x32.
  const auto p2 = kernels::run_pool2x2(r2.output, kBits,
                                       kernels::PoolOp::kMax, cfg);
  total_bad += check(p2.output, qnn::maxpool2x2_ref(r2.output), "pool2");
  total_cycles += p2.perf.cycles;

  // fc: flatten to 1x1x128, classify into 10 codes via a pointwise conv
  // (the matmul subroutine in 2x1 blocking handles the odd 1x1 output).
  qnn::Tensor flat({1, 1, 128});
  for (int i = 0; i < 128; ++i) flat.flat(i) = p2.output.flat(i);
  qnn::ConvSpec fc;
  fc.in_h = fc.in_w = 1;
  fc.in_c = 128;
  fc.out_c = 10;
  fc.k_h = fc.k_w = 1;
  fc.pad = 0;
  fc.in_bits = fc.w_bits = fc.out_bits = kBits;
  const auto lf = make_layer(flat, fc, 303);
  ConvGenOptions fc_opts;
  fc_opts.pixel_block = 1;
  const auto rf =
      kernels::run_conv_layer(lf, ConvVariant::kXpulpNN_HwQ, cfg, fc_opts);
  total_bad += check(rf.output, lf.golden(), "fc");
  total_cycles += rf.perf.cycles;

  // argmax over the 10 class codes.
  int best = 0;
  for (int i = 1; i < 10; ++i) {
    if (rf.output.flat(i) > rf.output.flat(best)) best = i;
  }
  const auto gf = lf.golden();
  int gbest = 0;
  for (int i = 1; i < 10; ++i) {
    if (gf.flat(i) > gf.flat(gbest)) gbest = i;
  }

  std::printf("\nclass scores (4-bit codes): ");
  for (int i = 0; i < 10; ++i) std::printf("%d ", rf.output.flat(i));
  std::printf("\npredicted class: %d (golden model: %d) -> %s\n", best, gbest,
              best == gbest ? "agree" : "DISAGREE");
  std::printf("total device cycles: %llu (%.3f ms @ 250 MHz)\n",
              static_cast<unsigned long long>(total_cycles),
              static_cast<double>(total_cycles) / 250e6 * 1e3);
  std::printf("pipeline status: %s\n",
              total_bad == 0 ? "every stage bit-exact" : "MISMATCHES FOUND");
  return (total_bad == 0 && best == gbest) ? 0 : 1;
}
