// Shared machinery for the table/figure reproduction benches: run the
// paper's convolution layer (16x16x32 input, 64 3x3x32 filters) on a
// platform and collect cycles + power + efficiency.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "armv7e/cmsis_conv.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "power/power_model.hpp"

namespace xpulp::bench {

inline constexpr u64 kSeed = 7;  // all benches use the same synthetic layer

/// CPU time consumed by the calling thread, in seconds: host-time benches
/// time with it so that time the host spends on other processes does not
/// count.
inline double thread_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct PlatformResult {
  std::string platform;
  unsigned bits = 0;
  cycles_t cycles = 0;
  u64 macs = 0;
  double freq_hz = 0;
  double power_mw = 0;
  cycles_t quant_cycles = 0;
  u64 qnt_stall_cycles = 0;
  bool output_ok = false;

  double macs_per_cycle() const {
    return cycles ? static_cast<double>(macs) / static_cast<double>(cycles) : 0;
  }
  double runtime_ms() const {
    return static_cast<double>(cycles) / freq_hz * 1e3;
  }
  double gmac_s_w() const {
    const double macs_per_s = static_cast<double>(macs) * freq_hz /
                              static_cast<double>(cycles);
    return macs_per_s / (power_mw * 1e-3) * 1e-9;
  }
};

/// run_conv_layer with an obs::Profiler attached through the runner's
/// hooks; `quant_cycles` receives the cycles attributed to re-quantization
/// code (the Fig. 6 quantization share).
inline kernels::ConvRunResult run_profiled(const kernels::ConvLayerData& data,
                                           kernels::ConvVariant v,
                                           const sim::CoreConfig& cfg,
                                           cycles_t& quant_cycles) {
  std::optional<obs::Profiler> prof;
  kernels::ConvRunResult res = kernels::run_conv_layer(
      data, v, cfg, {},
      [&](sim::Core& core, const kernels::ConvKernel& k) {
        prof.emplace(core, k.regions, obs::Profiler::Options{.track_pc = false});
      },
      [&](sim::Core&, const kernels::ConvKernel&) { prof->finalize(); });
  quant_cycles = prof->region_cycles("quant");
  return res;
}

/// Run the paper layer at `bits` with a RISC-V kernel variant on a core
/// configuration; fills power from the activity-based model.
inline PlatformResult run_riscv(unsigned bits, kernels::ConvVariant v,
                                sim::CoreConfig cfg,
                                power::OperatingPoint op = {}) {
  const auto spec = qnn::ConvSpec::paper_layer(bits);
  const auto data = kernels::ConvLayerData::random(spec, kSeed);
  PlatformResult r;
  const auto res = run_profiled(data, v, cfg, r.quant_cycles);
  const auto gold = data.golden();
  bool ok = true;
  for (int i = 0; i < gold.elems() && ok; ++i) {
    ok = gold.flat(i) == res.output.flat(i);
  }
  const auto p =
      power::estimate_power(res.perf, res.activity, res.mem_stats, cfg, op);
  r.platform = cfg.name + "/" + kernels::variant_name(v);
  r.bits = bits;
  r.cycles = res.perf.cycles;
  r.macs = res.macs;
  r.freq_hz = op.freq_hz;
  r.power_mw = p.soc_mw();
  r.qnt_stall_cycles = res.perf.qnt_stall_cycles;
  r.output_ok = ok;
  return r;
}

/// Run the paper layer on the ARM Cortex-M models with datasheet power.
inline PlatformResult run_arm(unsigned bits, armv7e::ArmModel model) {
  const auto spec = qnn::ConvSpec::paper_layer(bits);
  const auto data = kernels::ConvLayerData::random(spec, kSeed);
  const auto res = armv7e::run_conv_layer_arm(data, model);
  const auto gold = data.golden();
  bool ok = true;
  for (int i = 0; i < gold.elems() && ok; ++i) {
    ok = gold.flat(i) == res.output.flat(i);
  }
  const auto plat = (model == armv7e::ArmModel::kCortexM4)
                        ? power::stm32l4_platform()
                        : power::stm32h7_platform();
  PlatformResult r;
  r.platform = plat.name;
  r.bits = bits;
  r.cycles = res.perf.cycles;
  r.macs = res.macs;
  r.freq_hz = plat.freq_hz;
  r.power_mw = plat.power_mw;
  r.output_ok = ok;
  return r;
}

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("workload: conv 16x16x32 input, 64 filters 3x3x32 (4.72 MMAC)\n");
  std::printf("================================================================\n");
}

inline const char* okstr(bool ok) { return ok ? "ok" : "MISMATCH"; }

/// Publish a platform result under `prefix` in the metrics registry, so
/// benches can emit their tables as Registry JSON instead of hand-rolled
/// string building.
inline void add_platform_result(obs::Registry& reg, const std::string& prefix,
                                const PlatformResult& r) {
  reg.text(prefix + ".platform", r.platform);
  reg.counter(prefix + ".bits", r.bits);
  reg.counter(prefix + ".cycles", r.cycles);
  reg.counter(prefix + ".macs", r.macs);
  reg.counter(prefix + ".quant_cycles", r.quant_cycles);
  reg.counter(prefix + ".qnt_stall_cycles", r.qnt_stall_cycles);
  reg.gauge(prefix + ".macs_per_cycle", r.macs_per_cycle());
  reg.flag(prefix + ".output_ok", r.output_ok);
}

/// Save the registry next to the working directory and report the path.
inline bool save_bench_json(const obs::Registry& reg, const char* path) {
  if (!reg.save_json(path)) {
    std::fprintf(stderr, "could not write %s\n", path);
    return false;
  }
  std::printf("\nwrote %s\n", path);
  return true;
}

}  // namespace xpulp::bench
