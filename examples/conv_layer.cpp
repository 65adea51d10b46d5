// Run one quantized convolution layer (the paper's benchmark layer by
// default) on a chosen core/kernel configuration and report performance,
// power, and a bit-exactness check against the golden model.
//
//   build/examples/conv_layer [bits] [variant] [core]
//     bits    : 8 | 4 | 2                  (default 4)
//     variant : 8b | sub | swq | hwq       (default hwq)
//     core    : ri5cy | xpulpnn            (default xpulpnn)
//
// e.g.  build/examples/conv_layer 2 hwq xpulpnn
//       build/examples/conv_layer 4 sub ri5cy
#include <cstdio>
#include <cstring>
#include <optional>

#include "kernels/conv_layer.hpp"
#include "obs/profiler.hpp"
#include "power/power_model.hpp"

using namespace xpulp;
using kernels::ConvVariant;

int main(int argc, char** argv) {
  unsigned bits = 4;
  ConvVariant variant = ConvVariant::kXpulpNN_HwQ;
  sim::CoreConfig cfg = sim::CoreConfig::extended();

  if (argc > 1) bits = static_cast<unsigned>(std::atoi(argv[1]));
  if (argc > 2) {
    if (!std::strcmp(argv[2], "8b")) variant = ConvVariant::kXpulpV2_8b;
    else if (!std::strcmp(argv[2], "sub")) variant = ConvVariant::kXpulpV2_Sub;
    else if (!std::strcmp(argv[2], "swq")) variant = ConvVariant::kXpulpNN_SwQ;
    else if (!std::strcmp(argv[2], "hwq")) variant = ConvVariant::kXpulpNN_HwQ;
    else {
      std::fprintf(stderr, "unknown variant '%s'\n", argv[2]);
      return 2;
    }
  } else if (bits == 8) {
    variant = ConvVariant::kXpulpV2_8b;
  }
  if (argc > 3 && !std::strcmp(argv[3], "ri5cy")) cfg = sim::CoreConfig::ri5cy();

  const auto spec = qnn::ConvSpec::paper_layer(bits);
  std::printf("layer: %dx%dx%d input, %d filters %dx%dx%d, %u-bit, pad %d\n",
              spec.in_h, spec.in_w, spec.in_c, spec.out_c, spec.k_h, spec.k_w,
              spec.in_c, bits, spec.pad);
  std::printf("kernel: %s on core '%s'\n", kernels::variant_name(variant),
              cfg.name.c_str());

  const auto data = kernels::ConvLayerData::random(spec, 42);
  // Attribute cycles to the kernel's regions (the re-quantization share
  // below) with a profiler attached through the runner's hooks.
  std::optional<obs::Profiler> prof;
  const auto res = kernels::run_conv_layer(
      data, variant, cfg, {},
      [&](sim::Core& core, const kernels::ConvKernel& k) {
        prof.emplace(core, k.regions);
      },
      [&](sim::Core&, const kernels::ConvKernel&) { prof->finalize(); });
  const u64 quant_cycles = prof->region_cycles("quant");
  const auto gold = data.golden();

  int mismatches = 0;
  for (int i = 0; i < gold.elems(); ++i) {
    if (gold.flat(i) != res.output.flat(i)) ++mismatches;
  }

  const auto p = power::estimate_power(res.perf, res.activity, res.mem_stats,
                                       cfg);
  const power::OperatingPoint op;
  std::printf("\nresults:\n");
  std::printf("  MACs                 : %llu\n",
              static_cast<unsigned long long>(res.macs));
  std::printf("  cycles               : %llu (%.3f ms @ 250 MHz)\n",
              static_cast<unsigned long long>(res.perf.cycles),
              static_cast<double>(res.perf.cycles) / op.freq_hz * 1e3);
  std::printf("  MAC/cycle            : %.2f\n", res.macs_per_cycle());
  std::printf("  instructions         : %llu (IPC %.2f)\n",
              static_cast<unsigned long long>(res.perf.instructions),
              static_cast<double>(res.perf.instructions) / res.perf.cycles);
  std::printf("  hw-loop back-edges   : %llu\n",
              static_cast<unsigned long long>(res.perf.hwloop_backedges));
  std::printf("  re-quantization      : %llu cycles (%.1f%% of total)\n",
              static_cast<unsigned long long>(quant_cycles),
              100.0 * static_cast<double>(quant_cycles) / res.perf.cycles);
  std::printf("  generated code       : %u bytes\n", res.code_bytes);
  std::printf("  SoC power            : %.2f mW   (core %.2f mW)\n",
              p.soc_mw(), p.core.core_mw());
  std::printf("  energy               : %.2f uJ\n",
              p.soc_mw() * 1e-3 *
                  (static_cast<double>(res.perf.cycles) / op.freq_hz) * 1e6);
  std::printf("  efficiency           : %.1f GMAC/s/W\n",
              power::gmac_per_s_per_w(res.macs, res.perf.cycles, p.soc_mw()));
  std::printf("  golden-model check   : %s (%d/%d mismatches)\n",
              mismatches == 0 ? "bit-exact" : "FAILED", mismatches,
              gold.elems());
  return mismatches == 0 ? 0 : 1;
}
