// Every host-time number of the simulator from one binary: how fast it
// simulates, not what it models (bench_paper pins those). Each row is
// timed with bench_util's interleave(): thread CPU time, alternating legs,
// an uncounted warm-up per round, per-leg medians and the median of the
// per-round paired ratios. Sections:
//   throughput  reference vs fast vs superblock dispatch (host MIPS) on the
//               paper layer (8-bit RI5CY; 4-bit, 2-bit, mixed 8x4 and 4x2
//               XpulpNN) and two net-mixed layers, and each row's fused
//               share;
//   sampler     an attached but idle obs::Sampler against none;
//   golden      the host golden pass (int16 im2col accumulators, radix
//               calibration, requantize) against the previous i32 /
//               std::sort pass and the per-element oracle on each
//               net-mixed conv/linear layer, plus requantize alone;
//   cluster     burst against reference cluster scheduling at 1-16 cores;
//   streaming   the 4-bit paper layer streamed in 8-channel tiles against
//               the same layer run resident.
//
// Writes BENCH_host.json to the working directory. Exits non-zero, naming
// section, row and field, when an exactness check fails (outputs, cycles,
// scheduler stats, lane-log bound), a row retires under 0.9 of its
// instructions fused or the idle sampler keeps under 0.90 of the detached
// throughput. With --baseline (the committed BENCH_host.json) it also
// fails when a superblock, golden or 8-core burst speedup, overall or per
// row, falls below half its committed value (requantize also below 0.78),
// or the streamed/resident ratio rises above 1.2x its committed value or
// 1.93.
//
// Usage: bench_host [--baseline BENCH_host.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/parallel_conv.hpp"
#include "flat_json.hpp"
#include "isa/decoder.hpp"
#include "mem/memory.hpp"
#include "obs/sampler.hpp"
#include "qnn_oracle.hpp"
#include "sim/core.hpp"
#include "soc/streamed_conv.hpp"

using namespace xpulp;
using namespace xpulp::bench;
using kernels::ConvVariant;

namespace {

/// The gates, checked as each number is measured. A failure names its
/// registry key (section.row.field) on stderr.
class Gates {
 public:
  explicit Gates(std::map<std::string, std::string> baseline)
      : base_(std::move(baseline)) {}

  void require(const std::string& key, bool ok, const char* what) {
    if (!ok) fail(key, what);
  }
  void floor(const std::string& key, double v, double bound) {
    if (v < bound) fail(key, fmt("%.4g below %.4g", v, bound));
  }
  /// With a baseline: `v` at least `factor` x the committed `key`, and at
  /// least `at_least` however low the committed value is.
  void floor_vs_committed(const std::string& key, double v, double factor,
                          double at_least = 0) {
    double c = 0;
    if (!committed(key, c)) return;
    const double bound = std::max(factor * c, at_least);
    if (v < bound) {
      fail(key, fmt("%.4g below %.4g (%.2fx committed %.4g, at least %.4g)",
                    v, bound, factor, c, at_least));
    }
  }
  /// With a baseline: `v` at most `factor` x the committed `key`, and at
  /// most `at_most` however high the committed value is.
  void ceiling_vs_committed(const std::string& key, double v, double factor,
                            double at_most) {
    double c = 0;
    if (!committed(key, c)) return;
    const double bound = std::min(factor * c, at_most);
    if (v > bound) {
      fail(key, fmt("%.4g above %.4g (%.2fx committed %.4g, at most %.4g)", v,
                    bound, factor, c, at_most));
    }
  }
  /// With a baseline: every committed `<section>.<row>.<field>` was
  /// checked, so a row that vanished from the bench fails too.
  void no_missing_rows(const std::string& section, const std::string& field) {
    const std::string pre = section + ".", post = "." + field;
    for (const auto& [key, value] : base_) {
      if (key.size() <= pre.size() + post.size() || !key.starts_with(pre) ||
          !key.ends_with(post) || checked_.contains(key)) {
        continue;
      }
      const std::string row = key.substr(
          pre.size(), key.size() - pre.size() - post.size());
      if (row.find('.') == std::string::npos) {
        fail(key, "committed but not measured");
      }
    }
  }
  int failures() const { return failures_; }

 private:
  static std::string fmt(const char* f, double a, double b, double c = 0,
                         double d = 0, double e = 0) {
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b, c, d, e);
    return buf;
  }
  bool committed(const std::string& key, double& v) {
    if (base_.empty()) return false;
    checked_.insert(key);
    const auto it = base_.find(key);
    if (it == base_.end()) {
      fail(key, "not in the baseline");
      return false;
    }
    v = std::strtod(it->second.c_str(), nullptr);
    return true;
  }
  void fail(const std::string& key, const std::string& what) {
    std::fprintf(stderr, "bench_host: FAIL %s: %s\n", key.c_str(),
                 what.c_str());
    ++failures_;
  }

  std::map<std::string, std::string> base_;
  std::set<std::string> checked_;
  int failures_ = 0;
};

// ---- throughput and sampler: one kernel, three dispatch modes ----

struct Workload {
  std::string name;  // platform_variant, plus widths and layer tag
  kernels::ConvKernel kernel;
  mem::Memory pristine;  // loaded program + layer data, untouched by runs
  sim::CoreConfig cfg;
};

/// `spec` under variant `v`; `tag` names a layer other than the paper
/// layer.
Workload make_workload(const qnn::ConvSpec& spec, ConvVariant v,
                       sim::CoreConfig cfg, const std::string& tag = "") {
  std::string name = cfg.name + "_" + kernels::variant_name(v);
  if (spec.w_bits != spec.in_bits) {
    name += "-" + std::to_string(spec.in_bits) + "x" +
            std::to_string(spec.w_bits);
  } else if (v == ConvVariant::kXpulpNN_HwQ && spec.in_bits != 4) {
    name += "-" + std::to_string(spec.in_bits) + "b";
  }
  if (!tag.empty()) name += "-" + tag;
  const auto data = kernels::ConvLayerData::random(spec, kSeed);
  Workload w{std::move(name),
             kernels::generate_conv_kernel(data.spec, v, 0x40000),
             mem::Memory{}, std::move(cfg)};
  w.kernel.program.load(w.pristine);
  kernels::load_conv_data(data, w.kernel.layout, w.pristine);
  return w;
}

/// A k x k, pad k/2 conv layer of the qnnbench net-mixed stack.
qnn::ConvSpec layer(int hw, int in_c, int out_c, unsigned in_bits,
                    unsigned w_bits, unsigned out_bits, int k = 3) {
  qnn::ConvSpec s = qnn::ConvSpec::paper_layer(in_bits);
  s.in_h = s.in_w = hw;
  s.k_h = s.k_w = k;
  s.pad = k / 2;
  s.in_c = in_c;
  s.out_c = out_c;
  s.w_bits = w_bits;
  s.out_bits = out_bits;
  return s;
}

/// Restore the pristine memory and reset `core` for one run.
void prepare(const Workload& w, sim::Core& core, mem::Memory& mem) {
  mem = w.pristine;
  core.reset(w.kernel.program.entry(),
             w.kernel.program.base() + w.kernel.program.size_bytes());
  core.reset_perf();
}

u64 run_to_ecall(sim::Core& core) {
  core.run();
  kernels::require_ecall(core);
  return core.perf().instructions;
}

void throughput(const std::vector<Workload>& workloads, obs::Registry& reg,
                Gates& gates) {
  std::printf("\nInterpreter host throughput (MIPS; median of 7 rounds)\n");
  std::printf("%-32s %9s %9s %9s %9s %7s %7s %7s\n", "workload", "minstr",
              "ref", "fast", "sb", "fast x", "sb x", "fused");
  double min_sb = 1e30;
  for (const Workload& w : workloads) {
    // One core per mode over the memory prepare() restores.
    mem::Memory mem;
    std::vector<std::unique_ptr<sim::Core>> cores;
    std::vector<Leg> legs;
    for (int mode = 0; mode < 3; ++mode) {
      sim::CoreConfig cfg = w.cfg;
      cfg.reference_dispatch = mode == 0;
      cfg.superblock = mode == 2;
      sim::Core& core = *cores.emplace_back(
          std::make_unique<sim::Core>(mem, std::move(cfg)));
      legs.push_back({[&w, &core, &mem] { prepare(w, core, mem); },
                      [&core] { return run_to_ecall(core); }});
    }
    const auto t = interleave(legs, 7, 0.18);
    // Superblock coverage of one clean run (reset clears the engine stats).
    sim::Core& sb = *cores[2];
    prepare(w, sb, mem);
    const u64 instructions = run_to_ecall(sb);
    const sim::SuperblockStats cov = sb.superblock_stats();
    const double fused = ratio(cov.fused_instructions, instructions);
    min_sb = std::min(min_sb, t[2].ratio);
    std::printf("%-32s %9.2f %9.2f %9.2f %9.2f %6.2fx %6.2fx %6.1f%%\n",
                w.name.c_str(), static_cast<double>(instructions) / 1e6,
                t[0].rate / 1e6, t[1].rate / 1e6, t[2].rate / 1e6, t[1].ratio,
                t[2].ratio, 100 * fused);

    const std::string key = "throughput." + w.name;
    reg.counter(key + ".instructions", instructions);
    reg.gauge(key + ".reference.mips", t[0].rate / 1e6);
    reg.gauge(key + ".fast.mips", t[1].rate / 1e6);
    reg.gauge(key + ".superblock.mips", t[2].rate / 1e6);
    obs::add_superblock_stats(reg, key + ".superblock.coverage", cov,
                              instructions);
    reg.gauge(key + ".speedup", t[1].ratio);
    reg.gauge(key + ".superblock_speedup", t[2].ratio);
    gates.floor_vs_committed(key + ".superblock_speedup", t[2].ratio, 0.5);
    // Deterministic, so no noise margin.
    gates.floor(key + ".superblock.coverage.fused_fraction", fused, 0.9);
  }
  reg.gauge("throughput.min_superblock_speedup", min_sb);
  gates.floor_vs_committed("throughput.min_superblock_speedup", min_sb, 0.5);
  gates.no_missing_rows("throughput", "superblock_speedup");
}

/// An installed but idle obs::Sampler (its interval far beyond the run, so
/// it never fires) against none, on the superblock path: it must keep 0.90
/// of the detached throughput and leave the simulated cycles identical.
void sampler(const Workload& w, obs::Registry& reg, Gates& gates) {
  mem::Memory mem;
  sim::Core core(mem, w.cfg);
  obs::Sampler::Options opts;
  opts.interval_cycles = cycles_t{1} << 62;
  std::unique_ptr<obs::Sampler> idle;
  cycles_t cycles[2] = {};
  std::vector<Leg> legs;
  for (int mode = 0; mode < 2; ++mode) {
    legs.push_back({[&, mode] {
                      idle.reset();
                      prepare(w, core, mem);
                      if (mode == 1) {
                        idle = std::make_unique<obs::Sampler>(core, opts);
                      }
                    },
                    [&, mode] {
                      const u64 n = run_to_ecall(core);
                      cycles[mode] = core.perf().cycles;
                      return n;
                    }});
  }
  const auto t = interleave(legs, 5, 0.18);
  idle.reset();
  const bool identical = cycles[0] == cycles[1];
  std::printf("\nIdle sampler (%s): detached %.2f MIPS, idle %.2f MIPS, "
              "%.1f%% retained, cycles %s\n",
              w.name.c_str(), t[0].rate / 1e6, t[1].rate / 1e6,
              100 * t[1].ratio, identical ? "identical" : "DIVERGED");
  reg.gauge("sampler.detached_mips", t[0].rate / 1e6);
  reg.gauge("sampler.idle_mips", t[1].rate / 1e6);
  reg.gauge("sampler.retained", t[1].ratio);
  reg.flag("sampler.cycles_identical", identical);
  gates.floor("sampler.retained", t[1].ratio, 0.90);
  gates.require("sampler.cycles_identical", identical,
                "an idle sampler changed the simulated cycles");
}

// ---- golden: the previous pass (i32 per-tap dots, std::sort quantiles) ----

qnn::Tensor prev_conv_accumulators(const qnn::Tensor& in,
                                   const qnn::FilterBank& w,
                                   const qnn::ConvSpec& s) {
  const int oh = s.out_h();
  const int ow = s.out_w();
  const size_t fe = static_cast<size_t>(s.filter_elems());
  qnn::Tensor acc({oh, ow, s.out_c});
  i32* out = acc.data().data();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, out += s.out_c) {
      for (int ky = 0; ky < s.k_h; ++ky) {
        const int y = oy * s.stride - s.pad + ky;
        if (y < 0 || y >= s.in_h) continue;
        for (int kx = 0; kx < s.k_w; ++kx) {
          const int x = ox * s.stride - s.pad + kx;
          if (x < 0 || x >= s.in_w) continue;
          const i32* a = &in.data()[static_cast<size_t>(y * s.in_w + x) *
                                    static_cast<size_t>(s.in_c)];
          const i32* f = &w.data()[static_cast<size_t>(ky * s.k_w + kx) *
                                   static_cast<size_t>(s.in_c)];
          for (int oc = 0; oc < s.out_c; ++oc, f += fe) {
            i32 sum = 0;
            for (int c = 0; c < s.in_c; ++c) sum += a[c] * f[c];
            out[oc] += sum;
          }
        }
      }
    }
  }
  return acc;
}

qnn::Thresholds prev_quantile_thresholds(std::vector<i32>& accs,
                                         unsigned q_bits) {
  const int levels = 1 << q_bits;
  std::sort(accs.begin(), accs.end());
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
  return qnn::Thresholds(q_bits, std::move(th));
}

void prev_calibrate(const qnn::Tensor& acc, qnn::ConvSpec& s,
                    qnn::LayerThresholds& th) {
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
  std::vector<qnn::Thresholds> per_channel;
  if (positions < 2 * (1 << s.out_bits)) {
    std::vector<i32> all = acc.data();
    per_channel.assign(static_cast<size_t>(channels),
                       prev_quantile_thresholds(all, s.out_bits));
  } else {
    std::vector<i32> accs(static_cast<size_t>(positions));
    for (int oc = 0; oc < channels; ++oc) {
      for (int p = 0; p < positions; ++p) {
        accs[static_cast<size_t>(p)] = acc.flat(p * channels + oc);
      }
      per_channel.push_back(prev_quantile_thresholds(accs, s.out_bits));
    }
  }
  th = qnn::LayerThresholds(s.out_bits, std::move(per_channel));
}

/// The previous requantize: the out-of-line linear-scan
/// Thresholds::quantize per element.
qnn::Tensor prev_requantize(const qnn::Tensor& acc,
                            const qnn::LayerThresholds& th) {
  qnn::Tensor out(acc.shape());
  const int channels = acc.shape().c;
  for (int i = 0; i < acc.elems(); i += channels) {
    for (int oc = 0; oc < channels; ++oc) {
      out.flat(i + oc) =
          static_cast<i32>(th.channel(oc).quantize(acc.flat(i + oc)));
    }
  }
  return out;
}

struct Golden {
  qnn::Tensor output;
  qnn::ConvSpec spec;  // with the calibrated requant_shift
  qnn::LayerThresholds thresholds;
};

/// calibrate + requantize over one accumulator pass.
template <typename Accumulate, typename Calibrate>
Golden golden_pass(const kernels::ConvLayerData& d, Accumulate accumulate,
                   Calibrate calibrate) {
  Golden g;
  g.spec = d.spec;
  const qnn::Tensor acc = accumulate(d.input, d.weights, d.spec);
  calibrate(acc, g.spec, g.thresholds);
  g.output = qnn::requantize(acc, g.spec, g.thresholds);
  return g;
}

Golden oracle_pass(const kernels::ConvLayerData& d) {
  Golden g;
  g.spec = d.spec;
  const bool linear = d.spec.in_h == 1 && d.spec.in_w == 1;
  if (d.spec.out_bits == 8) {
    g.spec.requant_shift = qnn::old_requant_shift(d.input, d.weights, d.spec);
    g.output = qnn::old_conv2d_ref_u8(d.input, d.weights, g.spec);
  } else {
    g.thresholds = qnn::old_trained_thresholds(d.input, d.weights, d.spec);
    g.output = linear ? qnn::old_linear_ref(d.input, d.weights, g.thresholds)
                      : qnn::old_conv2d_ref(d.input, d.weights, g.thresholds,
                                            d.spec);
  }
  return g;
}

bool same(const Golden& a, const Golden& b) {
  return a.output == b.output &&
         a.spec.requant_shift == b.spec.requant_shift &&
         a.thresholds.serialize() == b.thresholds.serialize();
}

/// Each conv/linear layer of qnnbench's net-mixed stack, at the widths
/// Network::run gives them, then requantize alone over all of them: the
/// golden pass against the previous one (the gated speedup) and the
/// oracle, which also checks every output and threshold bit for bit.
void golden(obs::Registry& reg, Gates& gates) {
  struct NetLayer {
    const char* name;
    qnn::ConvSpec spec;
  };
  const NetLayer layers[] = {
      {"conv0", layer(32, 8, 16, 8, 4, 4)},
      {"conv1", layer(32, 16, 16, 4, 4, 4)},
      {"conv3", layer(16, 16, 32, 4, 2, 2)},
      {"conv4", layer(16, 32, 32, 2, 2, 2)},
      {"linear6", layer(1, 8 * 8 * 32, 16, 2, 2, 2, 1)},
  };
  constexpr int kRounds = 15;
  constexpr double kRoundSeconds = 0.005;
  std::printf("\nHost golden pass per net-mixed layer (median of %d rounds; "
              "previous = i32 per-tap dots + std::sort)\n",
              kRounds);
  std::printf("%-10s %8s %10s %10s %10s %9s %10s %6s\n", "layer", "MMAC",
              "golden ms", "prev ms", "oracle ms", "speedup", "vs oracle",
              "check");
  double min_speedup = 1e30;
  const auto report = [&](const std::string& name,
                          const std::vector<LegTiming>& t, bool ok,
                          double at_least = 0) {
    const std::string key = "golden." + name;
    const double speedup = t[1].ratio;
    min_speedup = std::min(min_speedup, speedup);
    reg.gauge(key + ".golden_s", t[1].seconds);
    reg.gauge(key + ".previous_s", t[0].seconds);
    reg.gauge(key + ".speedup", speedup);
    reg.flag(key + ".output_ok", ok);
    gates.floor_vs_committed(key + ".speedup", speedup, 0.5, at_least);
    gates.require(key + ".output_ok", ok, "differs from the oracle");
  };

  std::vector<kernels::ConvLayerData> data;
  for (const NetLayer& l : layers) {
    const auto& d =
        data.emplace_back(kernels::ConvLayerData::random(l.spec, kSeed));
    Golden now, prev, oracle;
    const auto t = interleave(
        {{{},
          [&] {
            prev = golden_pass(d, prev_conv_accumulators, prev_calibrate);
            return u64{1};
          }},
         {{},
          [&] {
            now = golden_pass(
                d,
                [](const auto& in, const auto& w, const auto& s) {
                  return qnn::conv_accumulators(in, w, s);
                },
                qnn::calibrate);
            return u64{1};
          }},
         {{},
          [&] {
            oracle = oracle_pass(d);
            return u64{1};
          }}},
        kRounds, kRoundSeconds);
    const bool ok = same(now, oracle) && same(prev, oracle);
    std::printf("%-10s %8.2f %10.3f %10.3f %10.3f %8.2fx %9.1fx %6s\n",
                l.name, static_cast<double>(l.spec.macs()) * 1e-6,
                t[1].seconds * 1e3, t[0].seconds * 1e3, t[2].seconds * 1e3,
                t[1].ratio, t[2].seconds / t[1].seconds, okstr(ok));
    report(l.name, t, ok);
    reg.gauge("golden." + std::string(l.name) + ".oracle_s", t[2].seconds);
  }

  // requantize alone over every layer's calibrated accumulators: the
  // inlined staircase against the per-element quantize it replaced.
  struct Requant {
    qnn::Tensor acc;
    qnn::ConvSpec spec;
    qnn::LayerThresholds th;
  };
  std::vector<Requant> rq;
  for (const auto& d : data) {
    Requant r{qnn::conv_accumulators(d.input, d.weights, d.spec), d.spec, {}};
    qnn::calibrate(r.acc, r.spec, r.th);
    rq.push_back(std::move(r));
  }
  std::vector<qnn::Tensor> now(rq.size()), prev(rq.size());
  const auto t = interleave(
      {{{},
        [&] {
          for (size_t k = 0; k < rq.size(); ++k) {
            prev[k] = prev_requantize(rq[k].acc, rq[k].th);
          }
          return u64{1};
        }},
       {{},
        [&] {
          for (size_t k = 0; k < rq.size(); ++k) {
            now[k] = qnn::requantize(rq[k].acc, rq[k].spec, rq[k].th);
          }
          return u64{1};
        }}},
      kRounds, kRoundSeconds);
  const bool ok = now == prev;
  std::printf("%-10s %8s %10.3f %10.3f %10s %8.2fx %10s %6s\n", "requantize",
              "-", t[1].seconds * 1e3, t[0].seconds * 1e3, "-", t[1].ratio,
              "-", okstr(ok));
  // Never below 0.78: the paired-ratio median reads requantize at about
  // 1.3x, which a best-of-rounds timing put at 1.56x, so half the committed
  // value alone would lower the floor this row was held to.
  report("requantize", t, ok, 0.78);
  reg.gauge("golden.min_speedup", min_speedup);
  gates.floor_vs_committed("golden.min_speedup", min_speedup, 0.5);
  gates.no_missing_rows("golden", "speedup");
}

// ---- cluster: burst vs reference scheduling ----

/// One paper-layer cluster deployment, planned once and re-run many times.
struct ClusterWorkload {
  int cores = 0;
  const kernels::ConvLayerData* data = nullptr;
  std::vector<xasm::Program> programs;
  kernels::ConvMemLayout layout;
};

std::unique_ptr<cluster::Cluster> fresh_cluster(const ClusterWorkload& w,
                                                cluster::SchedulerMode m) {
  cluster::ClusterConfig cfg;
  cfg.num_cores = w.cores;
  cfg.scheduler = m;
  auto cl = std::make_unique<cluster::Cluster>(cfg);
  kernels::load_conv_data(*w.data, w.layout, cl->memory());
  cl->load(w.programs);
  return cl;
}

u64 cluster_instructions(const cluster::Cluster& cl, int cores) {
  u64 n = 0;
  for (int c = 0; c < cores; ++c) n += cl.core(c).perf().instructions;
  return n;
}

/// Both schedulers on every width and core count: the burst speedup, and
/// one more run of each proving them exact (stats, golden output, lane
/// logs within their bound, no demotion to reference scheduling). The
/// gated figure is the worst 8-core speedup of the 8- and 4-bit layers.
void cluster_schedulers(obs::Registry& reg, Gates& gates) {
  using cluster::SchedulerMode;
  std::printf("\nCluster schedulers: reference interleaving vs burst "
              "(superblocks on; median of 5 rounds)\n");
  std::printf("%-8s %9s %10s %9s %8s %8s %8s %7s\n", "row", "ref-MIPS",
              "burst-MIPS", "speedup", "burst%", "ns/acc", "log-cap", "check");
  double speedup_8core = 1e30;
  for (unsigned bits : {8u, 4u, 2u}) {
    const auto data =
        kernels::ConvLayerData::random(qnn::ConvSpec::paper_layer(bits), kSeed);
    const auto gold = data.golden();
    const ConvVariant v =
        bits == 8 ? ConvVariant::kXpulpV2_8b : ConvVariant::kXpulpNN_HwQ;
    for (const int n : {1, 2, 4, 8, 16}) {
      ClusterWorkload w{n, &data, {}, {}};
      const auto ks = cluster::make_parallel_conv_kernels(data.spec, v, n);
      w.layout = ks.front().layout;
      for (const auto& k : ks) w.programs.push_back(k.program);

      std::unique_ptr<cluster::Cluster> cl;
      std::vector<Leg> legs;
      for (const SchedulerMode m :
           {SchedulerMode::kReference, SchedulerMode::kBurst}) {
        legs.push_back({[&, m] { cl = fresh_cluster(w, m); },
                        [&] {
                          cl->run();
                          return cluster_instructions(*cl, n);
                        }});
      }
      const auto t = interleave(legs, 5, 0.15);
      cl.reset();

      const auto ref = fresh_cluster(w, SchedulerMode::kReference);
      const auto burst = fresh_cluster(w, SchedulerMode::kBurst);
      const cluster::ClusterStats rs = ref->run();
      const cluster::ClusterStats bs = burst->run();
      const bool exact = rs.makespan == bs.makespan &&
                         rs.bank_conflicts == bs.bank_conflicts &&
                         rs.data_accesses == bs.data_accesses;
      const bool output_ok =
          kernels::read_conv_output(data.spec, w.layout, burst->memory()) ==
          gold;
      const cluster::ClusterBurstStats& b = burst->burst_stats();
      const size_t cap = burst->burst_log_capacity();
      const size_t bound = burst->burst_log_capacity_bound();
      const double speedup = t[1].ratio;
      const double merge_ns =
          b.replayed_accesses ? b.host_merge_seconds * 1e9 /
                                    static_cast<double>(b.replayed_accesses)
                              : 0;
      if (n == 8 && bits != 2) speedup_8core = std::min(speedup_8core, speedup);

      const std::string row = "b" + std::to_string(bits) + ".c" +
                              std::to_string(n);
      const std::string key = "cluster." + row;
      const bool ok = exact && output_ok && cap <= bound &&
                      b.fallback_runs == 0;
      std::printf("%-8s %9.2f %10.2f %8.2fx %7.1f%% %8.2f %8zu %7s\n",
                  row.c_str(), t[0].rate / 1e6, t[1].rate / 1e6, speedup,
                  100 * ratio(b.burst_instructions,
                              b.burst_instructions + b.reference_instructions),
                  merge_ns, cap, okstr(ok));
      reg.gauge(key + ".reference.mips", t[0].rate / 1e6);
      reg.gauge(key + ".burst.mips", t[1].rate / 1e6);
      reg.gauge(key + ".burst.speedup", speedup);
      cluster::add_burst_stats(reg, key + ".burst", b);
      reg.gauge(key + ".burst.merge_ns_per_access", merge_ns);
      reg.flag(key + ".exact", exact);
      reg.flag(key + ".output_ok", output_ok);
      reg.counter(key + ".burst_log_capacity", cap);
      reg.counter(key + ".burst_log_capacity_bound", bound);
      gates.require(key + ".exact", exact,
                    "burst and reference schedulers disagree");
      gates.require(key + ".output_ok", output_ok,
                    "differs from the golden model");
      gates.require(key + ".burst_log_capacity", cap <= bound,
                    "a burst lane log outgrew burst_log_capacity_bound()");
      gates.require(key + ".burst.fallback_runs", b.fallback_runs == 0,
                    "the run fell back to reference scheduling");
    }
  }
  std::printf("8-core burst speedup (worst of 8b/4b): %.2fx\n", speedup_8core);
  reg.gauge("cluster.speedup_8core", speedup_8core);
  gates.floor_vs_committed("cluster.speedup_8core", speedup_8core, 0.5);
}

// ---- streaming: streamed vs resident ----

/// The 4-bit paper layer streamed in 8-channel tiles against the same
/// layer run resident: both execute the same modelled work, so the ratio
/// prices the per-tile codegen, load and core reset streaming adds.
void streaming(obs::Registry& reg, Gates& gates) {
  const auto conv =
      kernels::ConvLayerData::random(qnn::ConvSpec::paper_layer(4), kSeed);
  const auto gold = conv.golden();
  const sim::CoreConfig cfg = sim::CoreConfig::extended();
  soc::StreamedConvResult s;
  kernels::ConvRunResult c;
  const auto t = interleave(
      {{{},
        [&] {
          s = soc::run_conv_streamed(conv, ConvVariant::kXpulpNN_HwQ, cfg, 8);
          return u64{1};
        }},
       {{},
        [&] {
          c = kernels::run_conv_layer(conv, ConvVariant::kXpulpNN_HwQ, cfg);
          return u64{1};
        }}},
      15, 0.05);
  const bool ok = s.output == gold && c.output == gold;

  // Engine coverage of one more streamed run: the fused share of its
  // instructions (the core's perf counts across tiles, its engine stats per
  // tile), the plans its tiles compiled, and its decodes (decode() calls,
  // and of those the words decoded afresh past the per-thread memo).
  u64 instr = 0, fused = 0, compiled = 0;
  const isa::DecodeStats d0 = isa::decode_stats();
  soc::run_conv_streamed(conv, ConvVariant::kXpulpNN_HwQ, cfg, 8, true, 4,
                         nullptr, {},
                         [&](sim::Core& core, const kernels::ConvKernel&) {
                           instr = core.perf().instructions;
                           fused += core.superblock_stats().fused_instructions;
                           compiled += core.superblock_stats().blocks_compiled;
                         });
  const isa::DecodeStats d1 = isa::decode_stats();
  const double fused_frac = ratio(fused, instr);
  const double x = t[1].ratio;
  std::printf("\nStreamed vs resident 4-bit paper layer (median of 15 "
              "rounds)\n");
  std::printf("  streamed (8-ch tiles) %8.2f ms\n", t[0].seconds * 1e3);
  std::printf("  resident              %8.2f ms\n", t[1].seconds * 1e3);
  std::printf("  streamed / resident   %8.2fx %s\n", x, okstr(ok));
  std::printf("  streamed run: %.3f fused, %llu plans compiled, %llu decodes "
              "(%llu fresh)\n",
              fused_frac, static_cast<unsigned long long>(compiled),
              static_cast<unsigned long long>(d1.calls - d0.calls),
              static_cast<unsigned long long>(d1.fresh - d0.fresh));
  reg.gauge("streaming.streamed_s", t[0].seconds);
  reg.gauge("streaming.resident_s", t[1].seconds);
  reg.gauge("streaming.streamed_over_resident_x", x);
  reg.flag("streaming.output_ok", ok);
  reg.gauge("streaming.streamed_fused_frac", fused_frac);
  reg.counter("streaming.streamed_blocks_compiled", compiled);
  reg.counter("streaming.streamed_decodes", d1.calls - d0.calls);
  reg.counter("streaming.streamed_fresh_decodes", d1.fresh - d0.fresh);
  gates.require("streaming.output_ok", ok, "differs from the golden model");
  // Never above 1.93 (1.2x a measured 1.61), so a baseline committed from
  // a noisier run cannot loosen the ceiling.
  gates.ceiling_vs_committed("streaming.streamed_over_resident_x", x, 1.2,
                             1.93);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> baseline;
  if (argc == 3 && !std::strcmp(argv[1], "--baseline")) {
    std::error_code ec;
    if (std::filesystem::equivalent(argv[2], "BENCH_host.json", ec)) {
      std::fprintf(stderr,
                   "bench_host: %s would be overwritten by this run's "
                   "BENCH_host.json; run from another directory\n",
                   argv[2]);
      return 2;
    }
    std::ifstream f(argv[2], std::ios::binary);
    std::stringstream ss;
    ss << f.rdbuf();
    baseline = flatten(ss.str());
    if (baseline.empty()) {
      std::fprintf(stderr, "bench_host: no baseline in %s\n", argv[2]);
      return 2;
    }
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--baseline BENCH_host.json]\n", argv[0]);
    return 2;
  }
  Gates gates(std::move(baseline));
  obs::Registry reg;

  const sim::CoreConfig ext = sim::CoreConfig::extended();
  std::vector<Workload> workloads;
  workloads.push_back(make_workload(paper_layer(8, 8), ConvVariant::kXpulpV2_8b,
                                    sim::CoreConfig::ri5cy()));
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
  workloads.push_back(make_workload(layer(32, 8, 16, 8, 4, 4),
                                    ConvVariant::kXpulpNN_Mixed, ext, "net1"));
  workloads.push_back(make_workload(layer(16, 32, 32, 2, 2, 2),
                                    ConvVariant::kXpulpNN_HwQ, ext, "net4"));

  throughput(workloads, reg, gates);
  sampler(workloads[1], reg, gates);  // the 4-bit extended-core row
  golden(reg, gates);
  cluster_schedulers(reg, gates);
  streaming(reg, gates);

  if (!save_bench_json(reg, "BENCH_host.json")) return 1;
  if (gates.failures() > 0) {
    std::fprintf(stderr, "bench_host: %d gate(s) failed\n", gates.failures());
    return 1;
  }
  std::printf("bench_host: every gate holds\n");
  return 0;
}
