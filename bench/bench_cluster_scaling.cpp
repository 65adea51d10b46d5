// Extension bench: multi-core scaling of the XpulpNN convolution kernels
// on a PULP cluster with shared banked TCDM (row-partitioned parallelism).
// The paper's conclusion points at cluster integration as the scaling path;
// PULP-NN reports near-linear speedups on 8-core clusters.
//
// Two sections:
//   1. Simulated makespan scaling (cycles) across core counts — the
//      architecture-level result.
//   2. Host throughput of the cluster schedulers: per-instruction reference
//      interleaving vs deferred-arbitration burst scheduling with
//      superblocks (DESIGN.md §15). Both are bit-identical by construction
//      (test_cluster_sched); this section quantifies the host speed bought
//      by bursts, records the burst merge's host cost (seconds and ns per
//      replayed access) and the largest burst lane log against its bound
//      per width and core count, and gates CI on the 8-core paper-layer
//      speedup.
//
// Emits BENCH_cluster.json (obs::Registry JSON). --min-speedup X exits
// nonzero when the 8-core burst speedup falls below X.
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "bench_util.hpp"
#include "cluster/parallel_conv.hpp"

using namespace xpulp;
using namespace xpulp::bench;
using kernels::ConvVariant;

namespace {

struct Measurement {
  u64 instructions = 0;
  double host_seconds = 0;
  double merge_seconds = 0;  // burst merge share of host_seconds
  u64 replayed_accesses = 0;
  double mips() const {
    return host_seconds > 0
               ? static_cast<double>(instructions) / host_seconds / 1e6
               : 0;
  }
  double merge_ns_per_access() const {
    return replayed_accesses ? merge_seconds * 1e9 /
                                   static_cast<double>(replayed_accesses)
                             : 0;
  }
};

/// One paper-layer cluster workload, planned once and re-run many times.
struct ClusterWorkload {
  unsigned bits = 0;
  int cores = 0;
  const kernels::ConvLayerData* data = nullptr;
  std::vector<xasm::Program> programs;
  kernels::ConvMemLayout layout;
};

ClusterWorkload make_workload(const kernels::ConvLayerData& data,
                              ConvVariant v, unsigned bits, int cores) {
  ClusterWorkload w;
  w.bits = bits;
  w.cores = cores;
  w.data = &data;
  const auto kernels = cluster::make_parallel_conv_kernels(data.spec, v, cores);
  w.layout = kernels.front().layout;
  for (const auto& k : kernels) w.programs.push_back(k.program);
  return w;
}

struct BurstCapture {
  cluster::ClusterBurstStats stats;
  size_t log_capacity = 0;  // Cluster::burst_log_capacity() after the run
  size_t log_bound = 0;     // Cluster::burst_log_capacity_bound()
};

/// One timed repetition: fresh cluster, time only Cluster::run().
/// Returns the run's ClusterStats; `out_burst` (optional) receives the
/// burst-engine counters and lane-log sizes, `out_output` the result
/// tensor.
cluster::ClusterStats one_rep(const ClusterWorkload& w,
                              cluster::SchedulerMode sched, Measurement& m,
                              BurstCapture* out_burst = nullptr,
                              qnn::Tensor* out_output = nullptr) {
  cluster::ClusterConfig cfg;
  cfg.num_cores = w.cores;
  cfg.scheduler = sched;
  cluster::Cluster cl(cfg);
  kernels::load_conv_data(*w.data, w.layout, cl.memory());
  cl.load(w.programs);

  const auto t0 = std::chrono::steady_clock::now();
  const cluster::ClusterStats stats = cl.run();
  const auto t1 = std::chrono::steady_clock::now();
  m.host_seconds += std::chrono::duration<double>(t1 - t0).count();
  for (int c = 0; c < w.cores; ++c) {
    m.instructions += cl.core(c).perf().instructions;
  }
  m.merge_seconds += cl.burst_stats().host_merge_seconds;
  m.replayed_accesses += cl.burst_stats().replayed_accesses;
  if (out_burst) {
    *out_burst = {cl.burst_stats(), cl.burst_log_capacity(),
                  cl.burst_log_capacity_bound()};
  }
  if (out_output) {
    *out_output =
        kernels::read_conv_output(w.data->spec, w.layout, cl.memory());
  }
  return stats;
}

struct SchedResults {
  Measurement ref, burst;
  BurstCapture burst_capture;
  bool exact = false;      // both schedulers produced identical stats
  bool output_ok = false;  // burst output matches the golden tensor
};

/// Measure both schedulers in alternating rounds, keeping each scheduler's
/// best round (same noise discipline as bench_sim_throughput: interleaved
/// rounds cancel slow host drift, best-of discards downward scheduler
/// noise symmetrically, first rep of each round is an uncounted warm-up).
SchedResults measure_schedulers(const ClusterWorkload& w,
                                const qnn::Tensor& golden,
                                double round_seconds = 0.15, int rounds = 5) {
  SchedResults out;
  cluster::ClusterStats ref_stats, burst_stats;
  qnn::Tensor burst_out;
  for (int r = 0; r < rounds; ++r) {
    for (int mode = 0; mode < 2; ++mode) {
      const auto sched = mode == 0 ? cluster::SchedulerMode::kReference
                                   : cluster::SchedulerMode::kBurst;
      Measurement warm;
      if (mode == 0) {
        ref_stats = one_rep(w, sched, warm);
      } else {
        burst_stats = one_rep(w, sched, warm, &out.burst_capture, &burst_out);
      }
      Measurement round;
      while (round.host_seconds < round_seconds) one_rep(w, sched, round);
      Measurement& best = mode == 0 ? out.ref : out.burst;
      if (round.mips() > best.mips()) best = round;
    }
  }
  out.exact = ref_stats.makespan == burst_stats.makespan &&
              ref_stats.bank_conflicts == burst_stats.bank_conflicts &&
              ref_stats.data_accesses == burst_stats.data_accesses;
  out.output_ok = burst_out == golden;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  // --min-speedup X: exit nonzero when the 8-core burst-over-reference
  // host speedup of any paper workload falls below X (the CI gate).
  double required_speedup = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc) {
      required_speedup = std::atof(argv[++i]);
    }
  }

  print_header("Cluster scaling -- XpulpNN cores on a shared banked TCDM");
  obs::Registry reg;

  bool all_ok = true;
  for (unsigned bits : {8u, 4u, 2u}) {
    const auto spec = qnn::ConvSpec::paper_layer(bits);
    const auto data = kernels::ConvLayerData::random(spec, kSeed);
    const auto gold = data.golden();
    const ConvVariant v = (bits == 8) ? ConvVariant::kXpulpV2_8b
                                      : ConvVariant::kXpulpNN_HwQ;

    std::printf("\n%u-bit kernel:\n", bits);
    std::printf("%7s %12s %9s %9s %11s %14s %7s\n", "cores", "makespan",
                "speedup", "MAC/cyc", "conflicts", "conflict-rate", "check");
    cycles_t single = 0;
    for (const int n : {1, 2, 4, 8, 16}) {
      cluster::ClusterConfig cfg;
      cfg.num_cores = n;
      const auto res = cluster::run_parallel_conv(data, v, cfg);
      if (n == 1) single = res.stats.makespan;
      bool ok = true;
      for (int i = 0; i < gold.elems() && ok; ++i) {
        ok = gold.flat(i) == res.output.flat(i);
      }
      all_ok = all_ok && ok;
      std::printf("%7d %12llu %8.2fx %9.2f %11llu %13.2f%% %7s\n", n,
                  static_cast<unsigned long long>(res.stats.makespan),
                  static_cast<double>(single) / res.stats.makespan,
                  res.macs_per_cycle(),
                  static_cast<unsigned long long>(res.stats.bank_conflicts),
                  100.0 * res.stats.conflict_rate(), okstr(ok));
      const std::string p =
          "scaling.b" + std::to_string(bits) + ".c" + std::to_string(n);
      reg.counter(p + ".makespan", res.stats.makespan);
      reg.counter(p + ".bank_conflicts", res.stats.bank_conflicts);
      reg.gauge(p + ".speedup_vs_1core",
                static_cast<double>(single) / res.stats.makespan);
      reg.gauge(p + ".macs_per_cycle", res.macs_per_cycle());
      reg.flag(p + ".output_ok", ok);
    }
  }
  std::printf("\n(PULP-NN reports near-linear scaling on 8-core clusters;\n");
  std::printf(" conflicts stay low because the TCDM has 2 banks per core.)\n");

  std::printf("\nHost throughput: reference interleaving vs burst "
              "scheduling (superblocks on)\n");
  double speedup_8core = 1e30;
  for (unsigned bits : {8u, 4u, 2u}) {
    const auto data =
        kernels::ConvLayerData::random(qnn::ConvSpec::paper_layer(bits), kSeed);
    const auto gold = data.golden();
    const ConvVariant v = (bits == 8) ? ConvVariant::kXpulpV2_8b
                                      : ConvVariant::kXpulpNN_HwQ;
    std::printf("\n%u-bit kernel:\n", bits);
    std::printf("%7s %11s %9s %11s %9s %9s %8s %9s %8s %8s %7s\n", "cores",
                "ref-MIPS", "ref-s", "burst-MIPS", "burst-s", "speedup",
                "burst%", "merge-s", "ns/acc", "log-cap", "check");
    for (const int n : {1, 2, 4, 8, 16}) {
      const ClusterWorkload w = make_workload(data, v, bits, n);
      const SchedResults r = measure_schedulers(w, gold);
      const double speedup =
          r.ref.mips() > 0 ? r.burst.mips() / r.ref.mips() : 0;
      const BurstCapture& b = r.burst_capture;
      const u64 total_instr =
          b.stats.burst_instructions + b.stats.reference_instructions;
      const double burst_frac =
          total_instr ? 100.0 *
                            static_cast<double>(b.stats.burst_instructions) /
                            static_cast<double>(total_instr)
                      : 0;
      const bool log_bounded = b.log_capacity <= b.log_bound;
      const bool ok = r.exact && r.output_ok && log_bounded &&
                      b.stats.fallback_runs == 0;
      all_ok = all_ok && ok;
      if (n == 8 && bits != 2) {
        speedup_8core = std::min(speedup_8core, speedup);
      }
      std::printf(
          "%7d %11.2f %8.3fs %11.2f %8.3fs %8.2fx %7.1f%% %8.3fs %8.2f "
          "%8zu %7s\n",
          n, r.ref.mips(), r.ref.host_seconds, r.burst.mips(),
          r.burst.host_seconds, speedup, burst_frac, r.burst.merge_seconds,
          r.burst.merge_ns_per_access(), b.log_capacity, okstr(ok));

      const std::string p =
          "host.b" + std::to_string(bits) + ".c" + std::to_string(n);
      reg.counter(p + ".reference.instructions", r.ref.instructions);
      reg.gauge(p + ".reference.host_seconds", r.ref.host_seconds);
      reg.gauge(p + ".reference.mips", r.ref.mips());
      reg.counter(p + ".burst.instructions", r.burst.instructions);
      reg.gauge(p + ".burst.host_seconds", r.burst.host_seconds);
      reg.gauge(p + ".burst.mips", r.burst.mips());
      reg.gauge(p + ".burst.speedup", speedup);
      cluster::add_burst_stats(reg, p + ".burst", b.stats);
      reg.gauge(p + ".burst.merge_seconds", r.burst.merge_seconds);
      reg.gauge(p + ".burst.merge_ns_per_access",
                r.burst.merge_ns_per_access());
      reg.flag(p + ".exact", r.exact);
      reg.flag(p + ".output_ok", r.output_ok);
      reg.counter(p + ".burst_log_capacity", b.log_capacity);
      reg.counter(p + ".burst_log_capacity_bound", b.log_bound);
    }
  }

  // Headline gate metric: the worst 8-core burst speedup across the 8- and
  // 4-bit paper workloads (2-bit rows are recorded, not gated). CI commits
  // this bench's JSON and re-gates at half the committed value.
  reg.gauge("speedup_8core", speedup_8core);
  reg.gauge("required_min_speedup", required_speedup);
  reg.flag("all_ok", all_ok);
  std::printf("\n8-core burst speedup (worst of 8b/4b): %.2fx\n",
              speedup_8core);

  all_ok = save_bench_json(reg, "BENCH_cluster.json") && all_ok;
  if (required_speedup > 0 && speedup_8core < required_speedup) {
    std::fprintf(stderr,
                 "FAIL: 8-core burst speedup %.2fx below required %.2fx\n",
                 speedup_8core, required_speedup);
    return 1;
  }
  return all_ok ? 0 : 1;
}
