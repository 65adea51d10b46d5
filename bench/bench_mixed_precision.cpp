// Mixed-precision virtual-SIMD bench: the paper layer (16x16x32 input,
// 64 3x3x32 filters) in every mpc operand format (8x4, 8x2, 4x2) on the
// extended core, against the uniform kernel at the activation width.
//
// The mixed dot products pace on activation words (32/in_bits MACs per
// pv.mlsdot), so a mixed layer should land within a few percent of the
// uniform kernel at the same activation width while reading 2-4x fewer
// weight bytes -- the Ottavi et al. deployment argument. Each row also
// reports the per-selector mixed_dotp_ops breakdown as a self-check that
// every MAC really went through the claimed format.
//
// Emits BENCH_mixed.json (obs::Registry JSON). Exit status gates on all
// outputs bit-exact vs the golden model plus the format breakdown being
// pure (one selector only per run).
#include "bench_util.hpp"
#include "isa/instruction.hpp"

using namespace xpulp;
using namespace xpulp::bench;
using kernels::ConvVariant;

namespace {

struct MixedResult {
  PlatformResult plat;
  u64 mixed_ops[3] = {0, 0, 0};
  unsigned sel = 0;
  bool pure = false;  // all mixed dots used this run's selector
};

MixedResult run_mixed(unsigned in_bits, unsigned w_bits,
                      const sim::CoreConfig& cfg) {
  auto spec = qnn::ConvSpec::paper_layer(8);
  spec.in_bits = in_bits;
  spec.w_bits = w_bits;
  spec.out_bits = 8;  // shift/clip output path; accumulators stay i32
  MixedResult r;
  r.plat = run_riscv(kernels::ConvLayerData::random(spec, kSeed),
                     ConvVariant::kXpulpNN_Mixed, cfg, {}, true);
  r.sel = kernels::mixed_sel_for(in_bits, w_bits);
  u64 total = 0;
  for (unsigned s = 0; s < isa::kMpcSelCount; ++s) {
    r.mixed_ops[s] = r.plat.perf.mixed_dotp_ops[s];
    total += r.plat.perf.mixed_dotp_ops[s];
  }
  r.pure = total > 0 && total == r.mixed_ops[r.sel];
  return r;
}

}  // namespace

int main() {
  print_header("mixed-precision virtual SIMD -- cycles/MAC per mpc format");

  const auto ext = sim::CoreConfig::extended();

  struct Row {
    unsigned a, w;
    MixedResult mixed;
    PlatformResult uniform;  // uniform kernel at the activation width
  };
  Row rows[3] = {{8, 4, {}, {}}, {8, 2, {}, {}}, {4, 2, {}, {}}};
  for (Row& r : rows) {
    r.mixed = run_mixed(r.a, r.w, ext);
    r.uniform = run_riscv(
        r.a, r.a == 8 ? ConvVariant::kXpulpV2_8b : ConvVariant::kXpulpNN_HwQ,
        ext, {}, true);
  }

  std::printf("\n%8s %12s %10s %12s %10s %10s\n", "format", "cycles",
              "MAC/cyc", "uniform cyc", "MAC/cyc", "ratio");
  for (const Row& r : rows) {
    std::printf("%5ux%-2u %12llu %10.2f %12llu %10.2f %9.2fx\n", r.a, r.w,
                static_cast<unsigned long long>(r.mixed.plat.cycles),
                r.mixed.plat.macs_per_cycle(),
                static_cast<unsigned long long>(r.uniform.cycles),
                r.uniform.macs_per_cycle(),
                static_cast<double>(r.mixed.plat.cycles) /
                    static_cast<double>(r.uniform.cycles));
  }

  std::printf("\nmixed_dotp_ops breakdown (sel 0: 8x4, 1: 8x2, 2: 4x2):\n");
  for (const Row& r : rows) {
    std::printf("%5ux%-2u  [%llu, %llu, %llu]  %s\n", r.a, r.w,
                static_cast<unsigned long long>(r.mixed.mixed_ops[0]),
                static_cast<unsigned long long>(r.mixed.mixed_ops[1]),
                static_cast<unsigned long long>(r.mixed.mixed_ops[2]),
                r.mixed.pure ? "pure" : "MIXED-FORMAT LEAK");
  }

  obs::Registry reg;
  reg.text("bench", "mixed_precision");
  bool all_ok = true;
  for (const Row& r : rows) {
    const std::string pre =
        "mixed." + std::to_string(r.a) + "x" + std::to_string(r.w);
    add_platform_result(reg, pre, r.mixed.plat);
    reg.counter(pre + ".sel", r.mixed.sel);
    for (unsigned s = 0; s < isa::kMpcSelCount; ++s) {
      reg.counter(pre + ".mixed_dotp_ops." + std::to_string(s),
                  r.mixed.mixed_ops[s]);
    }
    reg.flag(pre + ".format_pure", r.mixed.pure);
    add_platform_result(reg, "uniform." + std::to_string(r.a) + "b",
                        r.uniform);
    reg.gauge(pre + ".cycles_vs_uniform",
              static_cast<double>(r.mixed.plat.cycles) /
                  static_cast<double>(r.uniform.cycles));
    all_ok = all_ok && r.mixed.plat.output_ok && r.uniform.output_ok &&
             r.mixed.pure;
  }
  reg.flag("all_ok", all_ok);

  std::printf("\nall outputs bit-exact vs golden model, formats pure: %s\n",
              okstr(all_ok));
  if (!save_bench_json(reg, "BENCH_mixed.json")) return 1;
  return all_ok ? 0 : 1;
}
