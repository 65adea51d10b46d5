#include "analysis/kernel_sweep.hpp"

#include "kernels/conv_layer.hpp"
#include "kernels/pool_gen.hpp"
#include "qnn/ref_layers.hpp"

namespace xpulp::analysis {

namespace {

using kernels::ConvVariant;

AnalyzerOptions options_for(bool xpulpnn, bool hwloops = true) {
  AnalyzerOptions o;
  o.xpulpnn = xpulpnn;
  o.hwloops = hwloops;
  // Core::reset() initializes sp; everything else must be written by the
  // generated code before use.
  o.assume_initialized = 1u | (1u << 2);
  return o;
}

void add_conv(std::vector<KernelCheck>& out, const qnn::ConvSpec& spec,
              ConvVariant v, const std::string& name,
              const AnalyzerOptions& opt,
              const kernels::ConvGenOptions& gen = {}) {
  const kernels::ConvKernel k = kernels::generate_conv_kernel(spec, v, 0x40000, gen);
  out.push_back({name, ProgramAnalyzer(opt).analyze(k.program)});
}

}  // namespace

std::vector<KernelCheck> analyze_paper_kernels() {
  std::vector<KernelCheck> out;

  // ---- convolution variants, both ISAs ----
  // The XpulpV2 variants must verify against a core *without* XpulpNN:
  // this proves the baseline kernels never lean on sub-byte SIMD.
  add_conv(out, qnn::ConvSpec::small_layer(8), ConvVariant::kXpulpV2_8b,
           "conv/xpulpv2_8b", options_for(/*xpulpnn=*/false));
  for (const unsigned bits : {4u, 2u}) {
    const qnn::ConvSpec spec = qnn::ConvSpec::small_layer(bits);
    add_conv(out, spec, ConvVariant::kXpulpV2_Sub,
             "conv/xpulpv2_sub/" + std::to_string(bits) + "b",
             options_for(/*xpulpnn=*/false));
    add_conv(out, spec, ConvVariant::kXpulpNN_SwQ,
             "conv/xpulpnn_swq/" + std::to_string(bits) + "b",
             options_for(/*xpulpnn=*/true));
    add_conv(out, spec, ConvVariant::kXpulpNN_HwQ,
             "conv/xpulpnn_hwq/" + std::to_string(bits) + "b",
             options_for(/*xpulpnn=*/true));
  }
  add_conv(out, qnn::ConvSpec::small_layer(4), ConvVariant::kXpulpV2_SubShf,
           "conv/xpulpv2_subshf/4b", options_for(/*xpulpnn=*/false));

  // The paper's benchmark layer (16x16x32 -> 64), headline variant.
  add_conv(out, qnn::ConvSpec::paper_layer(4), ConvVariant::kXpulpNN_HwQ,
           "conv/xpulpnn_hwq/paper_layer_4b", options_for(/*xpulpnn=*/true));

  // Mixed-precision virtual-SIMD kernels: one per mpc operand pair. The
  // analyzer's mixed-mpc rule must see the generated csrrwi prologue
  // dominating every pv.mlsdot, so these also verify clean.
  for (const auto& [a, w] : {std::pair{8u, 4u}, {8u, 2u}, {4u, 2u}}) {
    qnn::ConvSpec mixed = qnn::ConvSpec::small_layer(8);
    mixed.in_c = a == 8 ? 16 : 24;  // keep in_c * in_bits word-aligned
    mixed.in_bits = a;
    mixed.w_bits = w;
    mixed.out_bits = 8;
    add_conv(out, mixed, ConvVariant::kXpulpNN_Mixed,
             "conv/xpulpnn_mixed/a" + std::to_string(a) + "w" +
                 std::to_string(w),
             options_for(/*xpulpnn=*/true));
  }

  // Hardware-loop ablation: the generated kernel must contain no hwloop
  // instructions at all, so it verifies on a core without them.
  {
    kernels::ConvGenOptions gen;
    gen.use_hwloops = false;
    add_conv(out, qnn::ConvSpec::small_layer(4), ConvVariant::kXpulpNN_HwQ,
             "conv/xpulpnn_hwq/4b_no_hwloops",
             options_for(/*xpulpnn=*/true, /*hwloops=*/false), gen);
  }

  // ---- pooling, native sub-byte vs unpack/pool/repack ----
  const qnn::Shape pool_shape{4, 4, 16};
  for (const auto op : {kernels::PoolOp::kMax, kernels::PoolOp::kAvg}) {
    const char* opn = op == kernels::PoolOp::kMax ? "max" : "avg";
    for (const unsigned bits : {8u, 4u, 2u}) {
      const kernels::PoolKernel nat = kernels::generate_pool2x2_kernel(
          pool_shape, bits, op, /*native_subbyte=*/true);
      out.push_back({"pool/" + std::string(opn) + "/native/" +
                         std::to_string(bits) + "b",
                     ProgramAnalyzer(options_for(bits != 8)).analyze(nat.program)});
      if (bits != 8) {
        const kernels::PoolKernel base = kernels::generate_pool2x2_kernel(
            pool_shape, bits, op, /*native_subbyte=*/false);
        out.push_back({"pool/" + std::string(opn) + "/baseline/" +
                           std::to_string(bits) + "b",
                       ProgramAnalyzer(options_for(false)).analyze(base.program)});
      }
    }
  }

  // ---- linear layers (1x1 "convolution", 2x1 blocking) ----
  kernels::ConvGenOptions gen;
  gen.pixel_block = 1;
  add_conv(out, qnn::ConvSpec::linear(64, 8, 8), ConvVariant::kXpulpV2_8b,
           "linear/xpulpv2_8b", options_for(false), gen);
  for (const unsigned bits : {4u, 2u}) {
    const qnn::ConvSpec lin = qnn::ConvSpec::linear(64, 8, bits);
    add_conv(out, lin, ConvVariant::kXpulpV2_Sub,
             "linear/xpulpv2_sub/" + std::to_string(bits) + "b",
             options_for(false), gen);
    add_conv(out, lin, ConvVariant::kXpulpNN_HwQ,
             "linear/xpulpnn_hwq/" + std::to_string(bits) + "b",
             options_for(true), gen);
  }

  return out;
}

}  // namespace xpulp::analysis
