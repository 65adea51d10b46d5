// Shared machinery for the benches and tests/test_paper_claims: run the
// paper's convolution layer (16x16x32 input, 64 3x3x32 filters) on a
// platform, golden-check its output and collect cycles + power +
// efficiency. PaperRuns simulates each configuration at most once.
// interleave() is the one host-time measurement of bench_host.
#pragma once

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "armv7e/cmsis_conv.hpp"
#include "kernels/conv_layer.hpp"
#include "kernels/gp_workload.hpp"
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

inline double ratio(u64 a, u64 b) {
  return static_cast<double>(a) / static_cast<double>(b);
}

/// One leg of an interleaved host-time measurement.
struct Leg {
  std::function<void()> setup;  // untimed, before every repetition; optional
  std::function<u64()> run;     // timed; returns its work (instructions, 1)
};

/// A leg's medians over the counted rounds.
struct LegTiming {
  double rate = 0;     // work per thread-CPU second
  double seconds = 0;  // seconds per repetition
  /// Rate over leg 0's rate in the same round: a round slowed by host
  /// contention skews one pair, not the median.
  double ratio = 0;
};

/// Time `legs` in `rounds` alternating rounds of thread CPU time (time the
/// host spends on other processes does not count). In every round each
/// leg runs one uncounted warm-up repetition, then repetitions until
/// `round_seconds` are counted (at least one). Alternating rounds cancel
/// slow host drift; the medians discard noisy rounds for every leg alike.
inline std::vector<LegTiming> interleave(const std::vector<Leg>& legs,
                                         int rounds, double round_seconds) {
  const auto rep = [](const Leg& leg, double& seconds) {
    if (leg.setup) leg.setup();
    const double t0 = thread_seconds();
    const u64 work = leg.run();
    seconds += thread_seconds() - t0;
    return work;
  };
  std::vector<LegTiming> out(legs.size());
  std::vector<std::vector<double>> rates(legs.size()), secs(legs.size()),
      ratios(legs.size());
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < legs.size(); ++i) {
      double warm = 0, seconds = 0;
      rep(legs[i], warm);
      u64 work = 0;
      int reps = 0;
      do {
        work += rep(legs[i], seconds);
        ++reps;
      } while (seconds < round_seconds);
      rates[i].push_back(static_cast<double>(work) / seconds);
      secs[i].push_back(seconds / reps);
      ratios[i].push_back(rates[i].back() / rates[0].back());
    }
  }
  for (size_t i = 0; i < legs.size(); ++i) {
    out[i].rate = median(rates[i]);
    out[i].seconds = median(secs[i]);
    out[i].ratio = median(ratios[i]);
  }
  return out;
}

struct PlatformResult {
  std::string platform;
  unsigned bits = 0;
  cycles_t cycles = 0;
  u64 macs = 0;
  double freq_hz = 0;
  double core_mw = 0;   // RISC-V core alone; 0 on the ARM platforms
  double power_mw = 0;  // RISC-V SoC (activity model) or ARM datasheet
  cycles_t quant_cycles = 0;
  sim::PerfCounters perf;  // RISC-V runs only
  bool output_ok = false;  // bit-exact vs golden model / GP checksum
  /// Cycle attribution per kernel region (profiled RISC-V conv runs only).
  std::shared_ptr<const obs::Profiler> profile;

  double macs_per_cycle() const { return cycles ? ratio(macs, cycles) : 0; }
  double runtime_ms() const {
    return static_cast<double>(cycles) / freq_hz * 1e3;
  }
  double gmac_s_w() const {
    return power::gmac_per_s_per_w(macs, cycles, power_mw,
                                   {.freq_hz = freq_hz});
  }
};

/// Run `data` on a RISC-V core, golden-check the output and price the run
/// with the activity-based power model. `profile` attaches an
/// obs::Profiler through the runner's hooks (the traced path, about twice
/// as slow): `quant_cycles` is then its "quant" region, the Fig. 6
/// quantization share.
inline PlatformResult run_riscv(const kernels::ConvLayerData& data,
                                kernels::ConvVariant v,
                                const sim::CoreConfig& cfg,
                                const kernels::ConvGenOptions& opts = {},
                                bool profile = false) {
  std::shared_ptr<obs::Profiler> prof;
  kernels::ConvInstrument attach, finalize;
  if (profile) {
    attach = [&](sim::Core& core, const kernels::ConvKernel& k) {
      prof = std::make_shared<obs::Profiler>(
          core, k.regions, obs::Profiler::Options{.track_pc = false});
    };
    finalize = [&](sim::Core&, const kernels::ConvKernel&) {
      prof->finalize();
    };
  }
  const auto res =
      kernels::run_conv_layer(data, v, cfg, opts, attach, finalize);
  const auto p =
      power::estimate_power(res.perf, res.activity, res.mem_stats, cfg);
  PlatformResult r;
  r.platform = cfg.name + "/" + kernels::variant_name(v);
  r.bits = data.spec.in_bits;
  r.cycles = res.perf.cycles;
  r.macs = res.macs;
  r.freq_hz = power::OperatingPoint{}.freq_hz;
  r.core_mw = p.core.core_mw();
  r.power_mw = p.soc_mw();
  if (prof) r.quant_cycles = prof->region_cycles("quant");
  r.perf = res.perf;
  r.output_ok = res.output == data.golden();
  r.profile = std::move(prof);
  return r;
}

/// The paper layer with `in_bits` activations and `w_bits` weights; a
/// mixed pair keeps 8-bit (shift/clip) outputs.
inline qnn::ConvSpec paper_layer(unsigned in_bits, unsigned w_bits) {
  qnn::ConvSpec s = qnn::ConvSpec::paper_layer(in_bits);
  if (w_bits != in_bits) {
    s.w_bits = w_bits;
    s.out_bits = 8;
  }
  return s;
}

/// Run the paper layer on the ARM Cortex-M models with datasheet power.
inline PlatformResult run_arm(unsigned bits, armv7e::ArmModel model) {
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::paper_layer(bits), kSeed);
  const auto res = armv7e::run_conv_layer_arm(data, model);
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
  r.output_ok = res.output == data.golden();
  return r;
}

/// Run the Table III general-purpose application; output_ok checks that it
/// halted on its ecall with the expected checksum.
inline PlatformResult run_gp(const sim::CoreConfig& cfg) {
  const auto w = kernels::make_gp_workload();
  mem::Memory mem;
  w.program.load(mem);
  sim::Core core(mem, cfg);
  core.reset(w.program.entry());
  const bool halted = core.run() == sim::HaltReason::kEcall;
  const auto p = power::estimate_power(core.perf(), core.dotp_unit().activity(),
                                       mem.stats(), cfg);
  PlatformResult r;
  r.platform = cfg.name + "/gp";
  r.cycles = core.perf().cycles;
  r.freq_hz = power::OperatingPoint{}.freq_hz;
  r.core_mw = p.core.core_mw();
  r.power_mw = p.soc_mw();
  r.perf = core.perf();
  r.output_ok = halted && mem.load_u32(w.result_addr) == w.expected_checksum;
  return r;
}

/// The extended core without power management (Table III's "no PM").
inline sim::CoreConfig extended_nopm() {
  auto c = sim::CoreConfig::extended();
  c.clock_gating = false;
  c.name = "xpulpnn-nopm";
  return c;
}

/// The paper's runs, keyed by configuration (cores are told apart by
/// CoreConfig::name): the first request for one simulates it, later
/// requests return the same result. all() keeps first-request order.
/// Whether a conv run is profiled is not part of its configuration: the
/// first request decides.
class PaperRuns {
 public:
  using Entry = std::pair<std::string, PlatformResult>;

  /// `spec` with the bench seed's data; its widths name it "8b" when
  /// uniform, "8x4" when the weights are narrower.
  const PlatformResult& conv(const qnn::ConvSpec& spec, kernels::ConvVariant v,
                             const sim::CoreConfig& cfg,
                             const kernels::ConvGenOptions& o = {},
                             bool profile = false) {
    const std::string width =
        std::to_string(spec.in_bits) +
        (spec.w_bits == spec.in_bits ? "b" : "x" + std::to_string(spec.w_bits));
    const std::string id = cfg.name + "." + kernels::variant_name(v) + "." +
                           width + (o.use_hwloops ? "" : "_branch_loop") +
                           (o.pixel_block == 1 ? "_2x1" : "");
    return get(id, [&] {
      return run_riscv(kernels::ConvLayerData::random(spec, kSeed), v, cfg, o,
                       profile);
    });
  }
  const PlatformResult& conv(unsigned bits, kernels::ConvVariant v,
                             const sim::CoreConfig& cfg,
                             const kernels::ConvGenOptions& o = {},
                             bool profile = false) {
    return conv(qnn::ConvSpec::paper_layer(bits), v, cfg, o, profile);
  }
  const PlatformResult& arm(unsigned bits, armv7e::ArmModel m) {
    const char* plat = m == armv7e::ArmModel::kCortexM4 ? "stm32l4" : "stm32h7";
    return get(std::string(plat) + "." + std::to_string(bits) + "b",
               [&] { return run_arm(bits, m); });
  }
  const PlatformResult& gp(const sim::CoreConfig& cfg) {
    return get(cfg.name + ".gp", [&] { return run_gp(cfg); });
  }

  const std::deque<Entry>& all() const { return runs_; }

 private:
  template <class Run>
  const PlatformResult& get(const std::string& id, Run run) {
    for (const Entry& e : runs_) {
      if (e.first == id) return e.second;
    }
    return runs_.emplace_back(id, run()).second;  // deque: no reallocation
  }

  std::deque<Entry> runs_;
};

inline void print_header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("workload: conv 16x16x32 input, 64 filters 3x3x32 (4.72 MMAC)\n");
  std::printf("================================================================\n");
}

inline const char* okstr(bool ok) { return ok ? "ok" : "MISMATCH"; }

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
