// xtel: time-series telemetry for the paper's generated QNN kernels.
//
// Runs a convolution layer (any variant / bit width / dispatch mode) with
// the obs::Sampler attached and reports the sampled counter series — IPC,
// stall mix, MACs/cycle, superblock fused fraction, modeled mW — as
// Perfetto counter tracks, CSV, and registry metrics. The sampled series
// is dispatch-mode independent: reference, fast and superblock runs fire
// at identical cycle boundaries with identical counters (the superblock
// engine repairs mid-burst to the exact boundary, counted as
// sim.superblock.sample_flushes).
//
// A second, traced pass attaches the attribution engine (obs::Profiler)
// and reads its energy views: the power model's picojoules per kernel
// region, checked against the exact reconciliation invariant (see
// DESIGN.md §10); --folded exports the energy flamegraph. Its cycle
// tables are the ones xprof prints for the same run.
//
// --cores N samples every core of a parallel cluster run (one counter
// track set per core) and bins TCDM traffic into the per-bank heatmap,
// whose conflict totals must equal the bank arbiter's counters exactly.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/parallel_conv.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/energy.hpp"
#include "obs/heatmap.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "power/power_model.hpp"
#include "qnn/pack.hpp"
#include "qnn/ref_layers.hpp"

namespace {

using namespace xpulp;
using kernels::ConvVariant;

struct Args {
  unsigned bits = 4;
  ConvVariant variant = ConvVariant::kXpulpNN_HwQ;
  bool ri5cy_core = false;
  std::string mode = "fast";  // reference | fast | superblock
  bool small = false;
  bool check = true;
  bool energy = true;  // run the traced energy-attribution pass
  int cores = 1;
  std::string scheduler = "burst";  // cluster mode: reference | burst
  u64 interval = 4096;
  u64 capacity = 1u << 16;
  std::string trace_path;
  std::string samples_path;      // sample-series CSV
  std::string heatmap_path;      // bank heatmap JSON (cluster mode)
  std::string heatmap_csv_path;  // bank heatmap CSV (cluster mode)
  std::string folded_path;       // energy flamegraph stacks
  std::string json_path;
  std::string csv_path;
};

void usage() {
  std::puts(
      "usage: xtel [options]\n"
      "  --bits N           activation/weight/output width: 8, 4, 2 "
      "(default 4)\n"
      "  --variant V        8b | sub | subshf | swq | hwq (default hwq)\n"
      "  --core C           ri5cy | xpulpnn (default xpulpnn)\n"
      "  --mode M           reference | fast | superblock (default fast)\n"
      "  --interval N       sample interval in cycles (default 4096)\n"
      "  --capacity N       retained sample windows (default 65536)\n"
      "  --small            run a small 6x6x16->8 layer instead of the\n"
      "                     paper's 16x16x32->64 layer\n"
      "  --cores N          sample an N-core cluster run + TCDM heatmap\n"
      "  --scheduler S      cluster scheduler: reference | burst (default\n"
      "                     burst; --check also runs the other scheduler\n"
      "                     and asserts byte-identical telemetry)\n"
      "  --trace FILE       write Perfetto trace with counter tracks\n"
      "  --samples FILE     write the sample series as CSV\n"
      "  --heatmap FILE     write the TCDM bank heatmap as JSON\n"
      "  --heatmap-csv FILE write the TCDM bank heatmap as CSV\n"
      "  --folded FILE      write collapsed energy-flamegraph stacks\n"
      "  --json FILE        write the metrics registry as JSON\n"
      "  --csv FILE         write the metrics registry as CSV\n"
      "  --no-energy        skip the traced energy-attribution pass\n"
      "  --no-check         skip golden-output and reconciliation checks");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "xtel: %s needs a value\n", opt.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    const auto path_opt = [&](std::string& dst) {
      const char* v = need_value();
      if (!v) return false;
      dst = v;
      return true;
    };
    if (opt == "--help" || opt == "-h") {
      usage();
      std::exit(0);
    } else if (opt == "--bits") {
      const char* v = need_value();
      if (!v) return false;
      a.bits = static_cast<unsigned>(std::atoi(v));
    } else if (opt == "--variant") {
      const char* v = need_value();
      if (!v || !kernels::parse_variant(v, a.variant)) return false;
    } else if (opt == "--core") {
      const char* v = need_value();
      if (!v) return false;
      if (!std::strcmp(v, "ri5cy")) a.ri5cy_core = true;
      else if (std::strcmp(v, "xpulpnn")) return false;
    } else if (opt == "--mode") {
      const char* v = need_value();
      if (!v) return false;
      a.mode = v;
      if (a.mode != "reference" && a.mode != "fast" &&
          a.mode != "superblock") {
        return false;
      }
    } else if (opt == "--interval") {
      const char* v = need_value();
      if (!v) return false;
      a.interval = static_cast<u64>(std::atoll(v));
    } else if (opt == "--capacity") {
      const char* v = need_value();
      if (!v) return false;
      a.capacity = static_cast<u64>(std::atoll(v));
    } else if (opt == "--small") {
      a.small = true;
    } else if (opt == "--check") {
      a.check = true;
    } else if (opt == "--no-check") {
      a.check = false;
    } else if (opt == "--no-energy") {
      a.energy = false;
    } else if (opt == "--cores") {
      const char* v = need_value();
      if (!v) return false;
      a.cores = std::atoi(v);
    } else if (opt == "--scheduler") {
      const char* v = need_value();
      if (!v) return false;
      a.scheduler = v;
      if (a.scheduler != "reference" && a.scheduler != "burst") return false;
    } else if (opt == "--trace") {
      if (!path_opt(a.trace_path)) return false;
    } else if (opt == "--samples") {
      if (!path_opt(a.samples_path)) return false;
    } else if (opt == "--heatmap") {
      if (!path_opt(a.heatmap_path)) return false;
    } else if (opt == "--heatmap-csv") {
      if (!path_opt(a.heatmap_csv_path)) return false;
    } else if (opt == "--folded") {
      if (!path_opt(a.folded_path)) return false;
    } else if (opt == "--json") {
      if (!path_opt(a.json_path)) return false;
    } else if (opt == "--csv") {
      if (!path_opt(a.csv_path)) return false;
    } else {
      std::fprintf(stderr, "xtel: unknown option %s\n", opt.c_str());
      return false;
    }
  }
  return true;
}

bool write_text_file(const std::string& path, const std::string& body,
                     const char* what) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "xtel: cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  f << body;
  std::printf("wrote %s: %s\n", what, path.c_str());
  return true;
}

void print_series_summary(const obs::Sampler& sampler,
                          const sim::CoreConfig& cfg) {
  const auto samples = sampler.samples();
  std::printf("sample windows: %llu recorded, %llu dropped (interval %llu "
              "cycles)\n",
              static_cast<unsigned long long>(sampler.recorded()),
              static_cast<unsigned long long>(sampler.dropped()),
              static_cast<unsigned long long>(sampler.interval()));
  if (samples.empty()) return;
  double ipc_min = 1e30, ipc_max = 0, macs_peak = 0, mw_peak = 0;
  for (const obs::Sample& s : samples) {
    const obs::SampleMetrics m = obs::Sampler::derive(s, cfg);
    if (s.perf.cycles == 0) continue;
    ipc_min = std::min(ipc_min, m.ipc);
    ipc_max = std::max(ipc_max, m.ipc);
    macs_peak = std::max(macs_peak, m.macs_per_cycle);
    mw_peak = std::max(mw_peak, m.soc_mw);
  }
  std::printf("  IPC %.3f..%.3f  peak MACs/cycle %.3f  peak SoC %.2f mW\n",
              ipc_min, ipc_max, macs_peak, mw_peak);
}

int run_single(const Args& args, const qnn::ConvSpec& spec,
               const kernels::ConvLayerData& data, sim::CoreConfig cfg,
               obs::Registry& reg, std::unique_ptr<obs::Timeline>& timeline) {
  kernels::ConvKernel kernel =
      kernels::generate_conv_kernel(spec, args.variant, 0x40000);

  mem::Memory mem;
  kernel.program.load(mem);
  kernels::load_conv_data(data, kernel.layout, mem);

  sim::Core core(mem, cfg);
  core.reset(kernel.program.entry(),
             kernel.program.base() + kernel.program.size_bytes());

  obs::Sampler::Options sopts;
  sopts.interval_cycles = args.interval;
  sopts.capacity = args.capacity;
  sopts.track_prefix = "core0";
  if (timeline) {
    sopts.timeline = timeline.get();
    timeline->set_track_name(0, "core0");
  }
  obs::Sampler sampler(core, sopts);
  core.run(600'000'000);
  sampler.finalize();

  if (core.halt_reason() != sim::HaltReason::kEcall) {
    std::fprintf(stderr, "xtel: kernel did not run to completion\n");
    return 1;
  }

  bool ok = true;
  if (args.check) {
    std::vector<u8> out_bytes(kernel.layout.output_bytes);
    mem.read_block(kernel.layout.output, out_bytes);
    const qnn::Tensor out = qnn::unpack_tensor(
        out_bytes, {spec.out_h(), spec.out_w(), spec.out_c}, spec.out_bits,
        /*is_signed=*/false);
    if (!(out == data.golden())) {
      std::fprintf(stderr, "xtel: output does not match the golden model\n");
      ok = false;
    }
    const std::string inv = sim::perf_invariant_violation(core.perf());
    if (!inv.empty()) {
      std::fprintf(stderr, "xtel: perf invariant violated: %s\n", inv.c_str());
      ok = false;
    }
  }

  const sim::PerfCounters& perf = core.perf();
  std::printf("\n== %s, %u-bit, %dx%dx%d -> %d (%s dispatch) ==\n",
              kernels::variant_name(args.variant), args.bits, spec.in_h,
              spec.in_w, spec.in_c, spec.out_c, args.mode.c_str());
  std::printf("cycles %llu  instructions %llu\n",
              static_cast<unsigned long long>(perf.cycles),
              static_cast<unsigned long long>(perf.instructions));
  print_series_summary(sampler, cfg);
  if (args.mode == "superblock") {
    const sim::SuperblockStats& sb = core.superblock_stats();
    std::printf("  superblock: %llu fused instructions, %llu sample "
                "flushes\n",
                static_cast<unsigned long long>(sb.fused_instructions),
                static_cast<unsigned long long>(sb.sample_flushes));
    obs::add_superblock_stats(reg, "sim.superblock", sb, perf.instructions);
  }

  // Registry: workload identity, counters, series summary, power.
  reg.text("workload.kernel", kernels::variant_name(args.variant));
  reg.counter("workload.bits", args.bits);
  reg.text("workload.core", cfg.name);
  reg.text("workload.dispatch", args.mode);
  reg.counter("workload.macs", spec.macs());
  reg.flag("workload.output_ok", ok);
  obs::add_perf_counters(reg, "perf", perf);
  obs::add_mem_stats(reg, "mem", mem.stats());
  sampler.add_to_registry(reg, "xtel.samples");
  const power::SocPower pw = power::estimate_power(
      perf, core.dotp_unit().activity(), mem.stats(), cfg);
  obs::add_soc_power(reg, "sim.power", pw);
  reg.gauge("power.gmac_per_s_per_w",
            power::gmac_per_s_per_w(spec.macs(), perf.cycles, pw.soc_mw()));

  if (!args.samples_path.empty()) {
    std::ostringstream os;
    sampler.write_csv(os);
    write_text_file(args.samples_path, os.str(), "sample series CSV");
  }

  if (args.energy) {
    // Energy attribution needs the trace hook (which keeps the superblock
    // engine cold), so it runs as a second pass on a fresh core. Its
    // counters must land exactly on the sampled run's — every dispatch
    // path is bit-identical.
    mem::Memory emem;
    kernel.program.load(emem);
    kernels::load_conv_data(data, kernel.layout, emem);
    sim::Core ecore(emem, cfg);
    ecore.reset(kernel.program.entry(),
                kernel.program.base() + kernel.program.size_bytes());
    obs::Profiler eprof(ecore, kernel.regions, {.track_pc = false});
    ecore.run(600'000'000);
    eprof.finalize();

    const std::string rec = eprof.reconciliation_violation();
    if (args.check) {
      if (ecore.perf().cycles != perf.cycles ||
          ecore.perf().instructions != perf.instructions) {
        std::fprintf(stderr,
                     "xtel: energy pass diverged from the sampled run "
                     "(cycles %llu vs %llu)\n",
                     static_cast<unsigned long long>(ecore.perf().cycles),
                     static_cast<unsigned long long>(perf.cycles));
        ok = false;
      }
      if (!rec.empty()) {
        std::fprintf(stderr, "xtel: energy reconciliation failed: %s\n",
                     rec.c_str());
        ok = false;
      }
    }

    std::printf("\nper-region energy attribution:\n");
    std::printf("  %-12s %14s %14s %12s\n", "region", "soc_pj", "core_pj",
                "cycles");
    const obs::EnergyCell total = eprof.energy_total();
    for (const obs::RegionEnergy& r : eprof.region_energies()) {
      if (r.cell.perf.instructions == 0) continue;
      std::printf("  %-12s %14.1f %14.1f %12llu\n", r.name.c_str(),
                  r.cell.energy.soc_pj(), r.cell.energy.core_pj(),
                  static_cast<unsigned long long>(r.cell.perf.cycles));
    }
    std::printf("  %-12s %14.1f %14.1f %12llu  -> %s\n", "total",
                total.energy.soc_pj(), total.energy.core_pj(),
                static_cast<unsigned long long>(total.perf.cycles),
                rec.empty() ? "reconciled" : "MISMATCH");
    eprof.add_energy_to_registry(reg, "energy");
    reg.flag("energy.reconciled", rec.empty());
    if (!args.folded_path.empty()) {
      write_text_file(args.folded_path, eprof.energy_stacks("core0"),
                      "energy flamegraph stacks");
    }
  }
  return ok ? 0 : 1;
}

/// One cluster run under a given scheduler with the full telemetry stack
/// attached. Samplers outlive the cluster; only their recorded series is
/// touched afterwards.
struct ClusterPass {
  cluster::ParallelConvResult res;
  std::unique_ptr<obs::BankHeatmap> heatmap;
  std::vector<std::unique_ptr<obs::Sampler>> samplers;
  cluster::ClusterBurstStats burst;
};

ClusterPass run_cluster_pass(const Args& args, const kernels::ConvLayerData& data,
                             const sim::CoreConfig& cfg,
                             cluster::SchedulerMode sched,
                             obs::Timeline* timeline) {
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = args.cores;
  ccfg.core = cfg;
  ccfg.scheduler = sched;
  const u32 banks = static_cast<u32>(args.cores) * ccfg.banks_per_core;

  obs::BankHeatmap::Options hopts;
  hopts.window_cycles = args.interval;
  ClusterPass pass;
  pass.heatmap =
      std::make_unique<obs::BankHeatmap>(banks, args.cores, hopts);

  const auto instrument = [&](cluster::Cluster& cl,
                              const std::vector<kernels::ConvKernel>&) {
    obs::BankHeatmap& heatmap = *pass.heatmap;
    cl.set_access_observer([&heatmap](int c, cycles_t cycle, addr_t,
                                      addr_t addr, unsigned, bool,
                                      unsigned stalls) {
      heatmap.observe(c, cycle, addr, stalls);
    });
    for (int c = 0; c < cl.num_cores(); ++c) {
      obs::Sampler::Options sopts;
      sopts.interval_cycles = args.interval;
      sopts.capacity = args.capacity;
      sopts.track = static_cast<u8>(c);
      sopts.track_prefix = "core" + std::to_string(c);
      sopts.mem_stats = &cl.memory().stats();  // shared TCDM
      if (timeline) {
        sopts.timeline = timeline;
        timeline->set_track_name(static_cast<u8>(c),
                                 "core" + std::to_string(c));
      }
      pass.samplers.push_back(
          std::make_unique<obs::Sampler>(cl.core(c), sopts));
    }
  };

  pass.res = cluster::run_parallel_conv(
      data, args.variant, ccfg, instrument,
      [&](cluster::Cluster& cl, const std::vector<kernels::ConvKernel>&) {
        for (auto& s : pass.samplers) s->finalize();
        pass.burst = cl.burst_stats();
      });
  return pass;
}

std::string heatmap_json(const obs::BankHeatmap& h) {
  std::ostringstream os;
  h.write_json(os);
  return os.str();
}

/// Architectural sample fields must be scheduler-exact; `sb` is a host
/// superblock-engine diagnostic and is excluded by design.
bool sample_series_match(const obs::Sampler& a, const obs::Sampler& b) {
  const auto sa = a.samples();
  const auto sb = b.samples();
  if (sa.size() != sb.size()) return false;
  for (size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].ts_cycles != sb[i].ts_cycles ||
        std::memcmp(&sa[i].perf, &sb[i].perf, sizeof sa[i].perf) != 0 ||
        std::memcmp(&sa[i].mem, &sb[i].mem, sizeof sa[i].mem) != 0 ||
        std::memcmp(&sa[i].dotp, &sb[i].dotp, sizeof sa[i].dotp) != 0) {
      return false;
    }
  }
  return true;
}

int run_cluster(const Args& args, const qnn::ConvSpec& /*spec*/,
                const kernels::ConvLayerData& data,
                const sim::CoreConfig& cfg, obs::Registry& reg,
                std::unique_ptr<obs::Timeline>& timeline) {
  const bool burst_primary = args.scheduler == "burst";
  const cluster::SchedulerMode primary_mode =
      burst_primary ? cluster::SchedulerMode::kBurst
                    : cluster::SchedulerMode::kReference;
  ClusterPass pass =
      run_cluster_pass(args, data, cfg, primary_mode, timeline.get());
  const cluster::ParallelConvResult& res = pass.res;
  obs::BankHeatmap& heatmap = *pass.heatmap;
  std::vector<std::unique_ptr<obs::Sampler>>& samplers = pass.samplers;

  bool ok = true;
  if (args.check && !(res.output == data.golden())) {
    std::fprintf(stderr, "xtel: cluster output does not match golden\n");
    ok = false;
  }
  if (args.check) {
    // Scheduler parity: the burst engine must be telemetry-invisible.
    // Re-run under the other scheduler and require byte-identical bank
    // heatmaps and per-core sampled counter tracks.
    const cluster::SchedulerMode other_mode =
        burst_primary ? cluster::SchedulerMode::kReference
                      : cluster::SchedulerMode::kBurst;
    const ClusterPass other =
        run_cluster_pass(args, data, cfg, other_mode, nullptr);
    bool parity = heatmap_json(heatmap) == heatmap_json(*other.heatmap) &&
                  res.stats.makespan == other.res.stats.makespan &&
                  res.stats.bank_conflicts == other.res.stats.bank_conflicts &&
                  res.stats.data_accesses == other.res.stats.data_accesses &&
                  res.output == other.res.output;
    for (int c = 0; parity && c < args.cores; ++c) {
      parity = sample_series_match(*samplers[static_cast<size_t>(c)],
                                   *other.samplers[static_cast<size_t>(c)]);
    }
    if (!parity) {
      std::fprintf(stderr,
                   "xtel: telemetry differs between burst and reference "
                   "cluster scheduling\n");
      ok = false;
    }
    reg.flag("xtel.scheduler_parity", parity);
  }
  if (args.check && (heatmap.total_conflicts() != res.stats.bank_conflicts ||
                     heatmap.total_accesses() != res.stats.data_accesses)) {
    std::fprintf(stderr,
                 "xtel: heatmap totals do not match the bank arbiter "
                 "(conflicts %llu vs %llu, accesses %llu vs %llu)\n",
                 static_cast<unsigned long long>(heatmap.total_conflicts()),
                 static_cast<unsigned long long>(res.stats.bank_conflicts),
                 static_cast<unsigned long long>(heatmap.total_accesses()),
                 static_cast<unsigned long long>(res.stats.data_accesses));
    ok = false;
  }

  std::printf("\n== %s, %u-bit on %d cores ==\n",
              kernels::variant_name(args.variant), args.bits, args.cores);
  std::printf("makespan %llu cycles  bank conflicts %llu (%.3f%% of %llu "
              "accesses)\n",
              static_cast<unsigned long long>(res.stats.makespan),
              static_cast<unsigned long long>(res.stats.bank_conflicts),
              100.0 * res.stats.conflict_rate(),
              static_cast<unsigned long long>(res.stats.data_accesses));
  for (int c = 0; c < args.cores; ++c) {
    std::printf("core %d: ", c);
    print_series_summary(*samplers[static_cast<size_t>(c)], cfg);
    samplers[static_cast<size_t>(c)]->add_to_registry(
        reg, "cores.core" + std::to_string(c) + ".samples");
  }

  reg.text("workload.kernel", kernels::variant_name(args.variant));
  reg.counter("workload.bits", args.bits);
  reg.counter("workload.cores", static_cast<u64>(args.cores));
  reg.flag("workload.output_ok", ok);
  reg.counter("cluster.makespan", res.stats.makespan);
  reg.counter("cluster.bank_conflicts", res.stats.bank_conflicts);
  reg.counter("cluster.data_accesses", res.stats.data_accesses);
  reg.text("cluster.scheduler", args.scheduler);
  if (burst_primary) {
    reg.counter("cluster.burst.epochs", pass.burst.epochs);
    reg.counter("cluster.burst.bursts", pass.burst.bursts);
    reg.counter("cluster.burst.burst_instructions",
                pass.burst.burst_instructions);
    reg.counter("cluster.burst.reference_instructions",
                pass.burst.reference_instructions);
    reg.counter("cluster.burst.replayed_accesses",
                pass.burst.replayed_accesses);
    reg.counter("cluster.burst.fallback_runs", pass.burst.fallback_runs);
  }
  heatmap.add_to_registry(reg, "xtel.heatmap");
  reg.flag("xtel.heatmap.reconciled",
           heatmap.total_conflicts() == res.stats.bank_conflicts);

  if (timeline) heatmap.add_to_timeline(*timeline);
  if (!args.heatmap_path.empty()) {
    std::ostringstream os;
    heatmap.write_json(os);
    write_text_file(args.heatmap_path, os.str(), "bank heatmap JSON");
  }
  if (!args.heatmap_csv_path.empty()) {
    std::ostringstream os;
    heatmap.write_csv(os);
    write_text_file(args.heatmap_csv_path, os.str(), "bank heatmap CSV");
  }
  if (!args.samples_path.empty()) {
    std::ostringstream os;
    for (int c = 0; c < args.cores; ++c) {
      os << "# core " << c << "\n";
      samplers[static_cast<size_t>(c)]->write_csv(os);
    }
    write_text_file(args.samples_path, os.str(), "sample series CSV");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }
  if (args.bits != 8 && args.bits != 4 && args.bits != 2) {
    std::fprintf(stderr, "xtel: --bits must be 8, 4 or 2\n");
    return 2;
  }
  if (args.interval == 0) {
    std::fprintf(stderr, "xtel: --interval must be nonzero\n");
    return 2;
  }

  sim::CoreConfig cfg =
      args.ri5cy_core ? sim::CoreConfig::ri5cy() : sim::CoreConfig::extended();
  cfg.reference_dispatch = (args.mode == "reference");
  cfg.superblock = (args.mode == "superblock");

  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(args.bits);
  if (args.small) {
    spec.in_h = spec.in_w = 6;
    spec.in_c = 16;
    spec.out_c = 8;
  }

  try {
    if (!kernels::variant_supported(args.variant, cfg)) {
      std::fprintf(stderr, "xtel: variant %s is not supported on core %s\n",
                   kernels::variant_name(args.variant), cfg.name.c_str());
      return 2;
    }
    const auto data = kernels::ConvLayerData::random(spec, /*seed=*/7);
    // random() calibrates spec.requant_shift for 8-bit outputs; generate
    // the kernel from the calibrated spec (see run_conv_layer).
    spec = data.spec;

    std::unique_ptr<obs::Timeline> timeline;
    if (!args.trace_path.empty()) {
      timeline = std::make_unique<obs::Timeline>();
    }

    obs::Registry reg;
    const int rc =
        args.cores > 1
            ? run_cluster(args, spec, data, cfg, reg, timeline)
            : run_single(args, spec, data, cfg, reg, timeline);

    if (timeline) {
      std::ofstream f(args.trace_path);
      if (!f) {
        std::fprintf(stderr, "xtel: cannot write trace to %s\n",
                     args.trace_path.c_str());
        return 1;
      }
      timeline->write_chrome_json(f);
      std::printf(
          "wrote Perfetto trace: %s (%llu counter points, %llu dropped)\n",
          args.trace_path.c_str(),
          static_cast<unsigned long long>(timeline->counters_recorded()),
          static_cast<unsigned long long>(timeline->counters_dropped()));
    }
    if (!args.json_path.empty() && reg.save_json(args.json_path)) {
      std::printf("wrote metrics JSON: %s\n", args.json_path.c_str());
    }
    if (!args.csv_path.empty() && reg.save_csv(args.csv_path)) {
      std::printf("wrote metrics CSV: %s\n", args.csv_path.c_str());
    }
    return rc;
  } catch (const SimError& e) {
    std::fprintf(stderr, "xtel: %s\n", e.what());
    return 1;
  }
}
