// Host-throughput benchmark of the interpreter itself: simulated MIPS
// (million instructions per host second) for the paper's convolution layer
// (8-bit RI5CY; 4-bit, 2-bit and mixed 8x4 / 4x2 XpulpNN) and two layers of
// the qnnbench net-mixed stack (32x32x8->16 8x4 and 16x16x32->32 2-bit,
// tagged net1 / net4), comparing the legacy switch-on-mnemonic reference
// interpreter against the predecoded handler-table fast path and the
// superblock engine. All modes are cycle-identical by construction (see
// test_dispatch_diff); this bench quantifies the host speed gained by
// moving classification work to decode time.
//
// Timing: each repetition is timed in thread CPU time (time the host
// spends running other processes does not count), the modes alternate in
// rounds, and each row reports the median over rounds of every mode's MIPS
// and of the per-round paired ratios against the reference, so a round
// slowed by host contention skews one pair, not the row.
//
// Emits BENCH_throughput.json (obs::Registry JSON) next to the binary's
// working directory.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mem/memory.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "sim/core.hpp"

using namespace xpulp;
using namespace xpulp::bench;
using kernels::ConvVariant;

namespace {

struct Workload {
  std::string platform;
  std::string variant;  // kernel variant, plus its width if not the default
  unsigned bits = 0;    // activation width
  kernels::ConvKernel kernel;
  mem::Memory pristine;  // loaded program + layer data, untouched by runs
  sim::CoreConfig cfg;
};

struct Measurement {
  u64 instructions = 0;
  double host_seconds = 0;
  double mips() const {
    return host_seconds > 0
               ? static_cast<double>(instructions) / host_seconds / 1e6
               : 0;
  }
};

/// `spec` under variant `v`; `tag` names a layer other than the paper
/// layer in the variant label.
Workload make_workload(const qnn::ConvSpec& spec, ConvVariant v,
                       sim::CoreConfig cfg, const std::string& tag = "") {
  std::string variant = kernels::variant_name(v);
  if (spec.w_bits != spec.in_bits) {
    variant += "-" + std::to_string(spec.in_bits) + "x" +
               std::to_string(spec.w_bits);
  } else if (v == ConvVariant::kXpulpNN_HwQ && spec.in_bits != 4) {
    variant += "-" + std::to_string(spec.in_bits) + "b";
  }
  if (!tag.empty()) variant += "-" + tag;
  const auto data = kernels::ConvLayerData::random(spec, kSeed);
  Workload w{cfg.name,
             std::move(variant),
             spec.in_bits,
             kernels::generate_conv_kernel(data.spec, v, 0x40000),
             mem::Memory{},
             std::move(cfg)};
  w.kernel.program.load(w.pristine);
  kernels::load_conv_data(data, w.kernel.layout, w.pristine);
  return w;
}

/// The paper layer with `in_bits` activations and `w_bits` weights; the
/// mixed pairs keep 8-bit outputs (shift/clip path), as bench_mixed does.
qnn::ConvSpec paper_layer(unsigned in_bits, unsigned w_bits) {
  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(in_bits);
  if (w_bits != in_bits) {
    spec.w_bits = w_bits;
    spec.out_bits = 8;
  }
  return spec;
}

/// A 3x3 pad-1 conv layer of the qnnbench net-mixed stack.
qnn::ConvSpec net_layer(int hw, int in_c, int out_c, unsigned in_bits,
                        unsigned w_bits, unsigned out_bits) {
  qnn::ConvSpec s = qnn::ConvSpec::paper_layer(in_bits);
  s.in_h = s.in_w = hw;
  s.in_c = in_c;
  s.out_c = out_c;
  s.w_bits = w_bits;
  s.out_bits = out_bits;
  return s;
}

/// One timed repetition: restore memory from the pristine image, reset and
/// run the kernel to completion, accumulating host time and instructions.
void one_rep(const Workload& w, sim::Core& core, mem::Memory& mem,
             Measurement& m) {
  mem = w.pristine;
  core.reset(w.kernel.program.entry(),
             w.kernel.program.base() + w.kernel.program.size_bytes());
  core.reset_perf();
  const double t0 = thread_seconds();
  core.run();
  const double t1 = thread_seconds();
  kernels::require_ecall(core);
  m.host_seconds += t1 - t0;
  m.instructions += core.perf().instructions;
}

struct ModeResults {
  /// Median MIPS over rounds of each mode.
  double ref_mips = 0, fast_mips = 0, sb_mips = 0;
  /// Median over rounds of the fast/reference and superblock/reference
  /// MIPS ratios of the same round.
  double fast_speedup = 0, sb_speedup = 0;
  Measurement ref;  // every counted reference repetition
  /// Superblock coverage from one clean repetition (Core::reset clears the
  /// engine stats, so a single rep reports exactly one kernel run).
  sim::SuperblockStats coverage;
  u64 coverage_instructions = 0;
};

/// Measure the three dispatch modes in alternating *rounds*. Round-level
/// interleaving keeps slow host drift (thermal, scheduler) from biasing
/// the ratios, each round is long enough that cross-mode cache/predictor
/// pollution at the switch is amortized away, and the medians over rounds
/// discard noisy rounds symmetrically for every mode. The first repetition
/// of every round is a warm-up and not counted.
ModeResults measure_modes(const Workload& w, double round_seconds = 0.18,
                          int rounds = 7) {
  ModeResults out;
  mem::Memory mem;
  // One core per mode (reference, fast, superblock) over the shared
  // memory, which one_rep restores before every run.
  std::unique_ptr<sim::Core> cores[3];
  for (int mode = 0; mode < 3; ++mode) {
    sim::CoreConfig cfg = w.cfg;
    cfg.reference_dispatch = mode == 0;
    cfg.superblock = mode == 2;
    cores[mode] = std::make_unique<sim::Core>(mem, cfg);
  }

  std::vector<double> mips[3], fast_x, sb_x;
  for (int r = 0; r < rounds; ++r) {
    double round_mips[3] = {};
    for (int mode = 0; mode < 3; ++mode) {
      sim::Core& core = *cores[mode];
      Measurement warm;
      one_rep(w, core, mem, warm);
      Measurement round;
      while (round.host_seconds < round_seconds) one_rep(w, core, mem, round);
      round_mips[mode] = round.mips();
      mips[mode].push_back(round.mips());
      if (mode == 0) {
        out.ref.instructions += round.instructions;
        out.ref.host_seconds += round.host_seconds;
      }
    }
    fast_x.push_back(round_mips[1] / round_mips[0]);
    sb_x.push_back(round_mips[2] / round_mips[0]);
  }
  out.ref_mips = median(mips[0]);
  out.fast_mips = median(mips[1]);
  out.sb_mips = median(mips[2]);
  out.fast_speedup = median(fast_x);
  out.sb_speedup = median(sb_x);

  Measurement cov;
  one_rep(w, *cores[2], mem, cov);
  out.coverage = cores[2]->superblock_stats();
  out.coverage_instructions = cov.instructions;
  return out;
}

/// Sampler idle-cost guard: an installed-but-idle obs::Sampler (interval
/// far beyond the run length, so it never fires mid-run) must cost < 2%
/// of the no-observer fast path, and the simulated cost must be
/// bit-identical with and without the sampler attached. Rounds alternate
/// detached/idle and the ratio is the median of the per-round ratios, the
/// same noise discipline as measure_modes.
struct GuardResult {
  double detached_mips = 0, idle_mips = 0;  // medians over rounds
  double ratio = 0;  // median of per-round idle/detached MIPS
  bool cycles_identical = false;
};

GuardResult measure_sampler_guard(const Workload& w,
                                  double round_seconds = 0.18,
                                  int rounds = 5) {
  GuardResult out;
  mem::Memory mem;
  sim::Core core(mem, w.cfg);

  cycles_t detached_cycles = 0, idle_cycles = 0;
  std::vector<double> mips[2], ratios;
  for (int r = 0; r < rounds; ++r) {
    double round_mips[2] = {};
    for (int mode = 0; mode < 2; ++mode) {
      std::unique_ptr<obs::Sampler> sampler;
      if (mode == 1) {
        obs::Sampler::Options sopts;
        sopts.interval_cycles = cycles_t{1} << 62;  // never due mid-run
        sampler = std::make_unique<obs::Sampler>(core, sopts);
      }
      Measurement warm;
      one_rep(w, core, mem, warm);
      Measurement round;
      while (round.host_seconds < round_seconds) one_rep(w, core, mem, round);
      (mode == 0 ? detached_cycles : idle_cycles) = core.perf().cycles;
      round_mips[mode] = round.mips();
      mips[mode].push_back(round.mips());
      if (sampler) sampler->finalize();
    }
    ratios.push_back(round_mips[1] / round_mips[0]);
  }
  out.detached_mips = median(mips[0]);
  out.idle_mips = median(mips[1]);
  out.ratio = median(ratios);
  out.cycles_identical = (detached_cycles == idle_cycles);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --min-speedup X: exit nonzero when the superblock-over-reference
  // speedup of any workload falls below X (the CI regression gate).
  // --min-fused F: exit nonzero when the superblock engine retires less
  // than fraction F of any workload's instructions (deterministic, unlike
  // the speedup).
  // --guard-sampler [R]: also measure the idle-sampler cost and exit
  // nonzero when it retains less than R of the detached throughput
  // (default 0.98) or when the simulated cycle count changes at all.
  double required_speedup = 0;
  double required_fused = 0;
  bool guard_sampler = false;
  double guard_ratio = 0.98;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-speedup" && i + 1 < argc) {
      required_speedup = std::strtod(argv[++i], nullptr);
    } else if (arg == "--min-fused" && i + 1 < argc) {
      required_fused = std::strtod(argv[++i], nullptr);
    } else if (arg == "--guard-sampler") {
      guard_sampler = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        guard_ratio = std::strtod(argv[++i], nullptr);
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--min-speedup X] [--min-fused F] "
                   "[--guard-sampler [R]]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("interpreter host throughput -- paper conv layer\n");
  std::printf("%-32s %10s %10s %10s %10s %7s %7s %7s\n", "workload", "minstr",
              "ref MIPS", "fast MIPS", "sb MIPS", "fast x", "sb x", "fused");

  std::vector<Workload> workloads;
  const sim::CoreConfig ext = sim::CoreConfig::extended();
  workloads.push_back(make_workload(
      paper_layer(8, 8), ConvVariant::kXpulpV2_8b, sim::CoreConfig::ri5cy()));
  workloads.push_back(
      make_workload(paper_layer(4, 4), ConvVariant::kXpulpNN_HwQ, ext));
  workloads.push_back(
      make_workload(paper_layer(2, 2), ConvVariant::kXpulpNN_HwQ, ext));
  workloads.push_back(
      make_workload(paper_layer(8, 4), ConvVariant::kXpulpNN_Mixed, ext));
  workloads.push_back(
      make_workload(paper_layer(4, 2), ConvVariant::kXpulpNN_Mixed, ext));
  // net-mixed's short-inner-loop layers: few input channels, so the
  // channel-pair loop around the MatMul loop carries a large share of the
  // instructions.
  workloads.push_back(make_workload(net_layer(32, 8, 16, 8, 4, 4),
                                    ConvVariant::kXpulpNN_Mixed, ext, "net1"));
  workloads.push_back(make_workload(net_layer(16, 32, 32, 2, 2, 2),
                                    ConvVariant::kXpulpNN_HwQ, ext, "net4"));

  obs::Registry reg;
  reg.text("bench", "sim_throughput");
  reg.text("unit", "host MIPS");
  double min_fast_speedup = 1e30;
  double min_sb_speedup = 1e30;
  double min_fused = 1;

  for (const Workload& w : workloads) {
    const ModeResults r = measure_modes(w);
    const double fast_speedup = r.fast_speedup;
    const double sb_speedup = r.sb_speedup;
    min_fast_speedup = std::min(min_fast_speedup, fast_speedup);
    min_sb_speedup = std::min(min_sb_speedup, sb_speedup);
    const double fused =
        r.coverage_instructions != 0
            ? static_cast<double>(r.coverage.fused_instructions) /
                  static_cast<double>(r.coverage_instructions)
            : 0;
    min_fused = std::min(min_fused, fused);

    const std::string name = w.platform + "/" + w.variant;
    std::printf("%-32s %10.2f %10.2f %10.2f %10.2f %6.2fx %6.2fx %6.1f%%\n",
                name.c_str(), static_cast<double>(r.ref.instructions) / 1e6,
                r.ref_mips, r.fast_mips, r.sb_mips, fast_speedup, sb_speedup,
                100 * fused);

    const std::string key = "workloads." + w.platform + "_" + w.variant;
    reg.text(key + ".platform", w.platform);
    reg.text(key + ".variant", w.variant);
    reg.counter(key + ".bits", w.bits);
    reg.counter(key + ".reference.instructions", r.ref.instructions);
    reg.gauge(key + ".reference.host_seconds", r.ref.host_seconds);
    reg.gauge(key + ".reference.mips", r.ref_mips);
    reg.gauge(key + ".fast.mips", r.fast_mips);
    reg.gauge(key + ".superblock.mips", r.sb_mips);
    obs::add_superblock_stats(reg, key + ".superblock.coverage", r.coverage,
                              r.coverage_instructions);
    reg.gauge(key + ".speedup", fast_speedup);
    reg.gauge(key + ".superblock_speedup", sb_speedup);
  }
  reg.gauge("min_speedup", min_fast_speedup);
  reg.gauge("min_superblock_speedup", min_sb_speedup);
  reg.gauge("min_fused_fraction", min_fused);

  bool guard_ok = true;
  if (guard_sampler) {
    // Guard on the 4-bit extended-core workload (the hot configuration).
    const GuardResult g = measure_sampler_guard(workloads[1]);
    std::printf("idle-sampler guard: detached %.2f MIPS, idle %.2f MIPS "
                "(%.1f%% retained, cycles %s)\n",
                g.detached_mips, g.idle_mips, 100 * g.ratio,
                g.cycles_identical ? "identical" : "DIVERGED");
    reg.gauge("guard.sampler.detached_mips", g.detached_mips);
    reg.gauge("guard.sampler.idle_mips", g.idle_mips);
    reg.gauge("guard.sampler.retained", g.ratio);
    reg.flag("guard.sampler.cycles_identical", g.cycles_identical);
    if (!g.cycles_identical) {
      std::fprintf(stderr,
                   "FAIL: attaching an idle sampler changed simulated cost\n");
      guard_ok = false;
    }
    if (g.ratio < guard_ratio) {
      std::fprintf(stderr,
                   "FAIL: idle sampler retains %.1f%% of detached throughput "
                   "(< %.1f%%)\n",
                   100 * g.ratio, 100 * guard_ratio);
      guard_ok = false;
    }
  }

  if (!save_bench_json(reg, "BENCH_throughput.json")) return 1;
  std::printf("min speedup: fast %.2fx, superblock %.2fx\n", min_fast_speedup,
              min_sb_speedup);
  if (required_speedup > 0 && min_sb_speedup < required_speedup) {
    std::fprintf(stderr,
                 "FAIL: superblock speedup %.2fx below required %.2fx\n",
                 min_sb_speedup, required_speedup);
    return 1;
  }
  if (min_fused < required_fused) {
    std::fprintf(stderr, "FAIL: fused fraction %.3f below required %.3f\n",
                 min_fused, required_fused);
    return 1;
  }
  return guard_ok ? 0 : 1;
}
