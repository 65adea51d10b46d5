// xtel: profiling and telemetry for the paper's generated QNN kernels.
//
// Runs a convolution layer (any variant / bit width / dispatch mode)
// through the public layer runners, checks it against the golden model
// and reports where the cycles, stalls and picojoules went and how the
// counters evolved over time. A single core makes two runs:
//   - a sampled pass at --mode (obs::Sampler): IPC, stall mix,
//     MACs/cycle, fused fraction and modeled mW as Perfetto counter
//     tracks, CSV and registry metrics, plus superblock coverage and
//     power. The series is dispatch-mode independent (the superblock
//     engine repairs mid-burst to each exact boundary);
//   - a profiled pass (obs::Profiler): region, mnemonic and hotspot
//     cycle/stall tables that reconcile exactly with PerfCounters (the
//     paper's Fig. 6 breakdown), the per-region pJ table under the energy
//     reconciliation invariant (DESIGN.md §10), flamegraph stacks and
//     timeline slices. Its trace hook keeps the superblock engine cold,
//     hence a separate pass; both passes must agree on the counters.
// --cores N runs the row-partitioned cluster layer: per-core counter
// tracks, the TCDM bank heatmap (reconciled against the bank arbiter),
// and per-core region tables from the pass that runs the reference
// scheduler (an attached profiler would demote a burst run to it).
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/parallel_conv.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/energy.hpp"
#include "obs/heatmap.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"
#include "power/power_model.hpp"
#include "qnn/ref_layers.hpp"

namespace {

using namespace xpulp;
using kernels::ConvVariant;

constexpr u32 kBlockInstructions = 64;       // per timeline block slice
constexpr size_t kSampleCapacity = 1u << 16;  // retained sample windows

struct Args {
  unsigned bits = 4;
  ConvVariant variant = ConvVariant::kXpulpNN_HwQ;
  bool ri5cy_core = false;
  std::string mode = "superblock";  // reference | fast | superblock
  bool hwloops = true;
  bool small = false;
  bool check = true;
  bool profile = true;  // run the profiled attribution pass
  int cores = 1;
  std::string scheduler = "burst";  // cluster mode: reference | burst
  u64 interval = 4096;
  int top = 10;
  std::string trace_path;
  std::string samples_path;        // sample-series CSV
  std::string heatmap_path;        // bank heatmap JSON (cluster mode)
  std::string heatmap_csv_path;    // bank heatmap CSV (cluster mode)
  std::string folded_path;         // energy flamegraph stacks
  std::string folded_cycles_path;  // cycle flamegraph stacks
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
      "  --mode M           reference | fast | superblock (default superblock)\n"
      "  --no-hwloops       generate without hardware loops\n"
      "  --interval N       sample interval in cycles (default 4096)\n"
      "  --top N            mnemonic and hotspot rows to print (default 10)\n"
      "  --small            run a small 6x6x16->8 layer instead of the\n"
      "                     paper's 16x16x32->64 layer\n"
      "  --cores N          run an N-core cluster (1-64): per-core samples,\n"
      "                     TCDM heatmap and per-core region tables\n"
      "  --scheduler S      cluster scheduler: reference | burst (default\n"
      "                     burst; --check also runs the other scheduler\n"
      "                     and asserts byte-identical telemetry)\n"
      "  --trace FILE       write Perfetto trace (counter tracks + slices)\n"
      "  --samples FILE     write the sample series as CSV\n"
      "  --heatmap FILE     write the TCDM bank heatmap as JSON\n"
      "  --heatmap-csv FILE write the TCDM bank heatmap as CSV\n"
      "  --folded FILE      write collapsed energy-flamegraph stacks\n"
      "  --folded-cycles FILE  write collapsed cycle-flamegraph stacks\n"
      "  --json FILE        write the metrics registry as JSON\n"
      "  --csv FILE         write the metrics registry as CSV\n"
      "  --no-profile       skip the profiled attribution pass\n"
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
    const auto str_opt = [&](std::string& dst) {
      const char* v = need_value();
      if (!v) return false;
      dst = v;
      return true;
    };
    // The whole value must be a decimal integer in [lo, hi].
    const auto int_opt = [&](long long lo, long long hi, auto& dst) {
      const char* v = need_value();
      if (!v) return false;
      const char* end = v + std::strlen(v);
      long long x = 0;
      const auto [ptr, ec] = std::from_chars(v, end, x);
      if (ec != std::errc() || ptr != end || x < lo || x > hi) {
        std::fprintf(stderr, "xtel: %s expects an integer in [%lld, %lld], "
                     "got '%s'\n", opt.c_str(), lo, hi, v);
        return false;
      }
      dst = static_cast<std::remove_reference_t<decltype(dst)>>(x);
      return true;
    };
    if (opt == "--help" || opt == "-h") {
      usage();
      std::exit(0);
    } else if (opt == "--bits") {
      if (!int_opt(2, 8, a.bits)) return false;
    } else if (opt == "--variant") {
      const char* v = need_value();
      if (!v || !kernels::parse_variant(v, a.variant)) return false;
    } else if (opt == "--core") {
      const char* v = need_value();
      if (!v) return false;
      if (!std::strcmp(v, "ri5cy")) a.ri5cy_core = true;
      else if (std::strcmp(v, "xpulpnn")) return false;
    } else if (opt == "--mode") {
      if (!str_opt(a.mode)) return false;
      if (a.mode != "reference" && a.mode != "fast" &&
          a.mode != "superblock") {
        return false;
      }
    } else if (opt == "--no-hwloops") {
      a.hwloops = false;
    } else if (opt == "--interval") {
      if (!int_opt(1, LLONG_MAX, a.interval)) return false;
    } else if (opt == "--top") {
      if (!int_opt(1, INT_MAX, a.top)) return false;
    } else if (opt == "--small") {
      a.small = true;
    } else if (opt == "--check") {
      a.check = true;  // the default; accepted for explicit CI invocations
    } else if (opt == "--no-check") {
      a.check = false;
    } else if (opt == "--no-profile") {
      a.profile = false;
    } else if (opt == "--cores") {
      if (!int_opt(1, 64, a.cores)) return false;
    } else if (opt == "--scheduler") {
      if (!str_opt(a.scheduler)) return false;
      if (a.scheduler != "reference" && a.scheduler != "burst") return false;
    } else if (opt == "--trace") {
      if (!str_opt(a.trace_path)) return false;
    } else if (opt == "--samples") {
      if (!str_opt(a.samples_path)) return false;
    } else if (opt == "--heatmap") {
      if (!str_opt(a.heatmap_path)) return false;
    } else if (opt == "--heatmap-csv") {
      if (!str_opt(a.heatmap_csv_path)) return false;
    } else if (opt == "--folded") {
      if (!str_opt(a.folded_path)) return false;
    } else if (opt == "--folded-cycles") {
      if (!str_opt(a.folded_cycles_path)) return false;
    } else if (opt == "--json") {
      if (!str_opt(a.json_path)) return false;
    } else if (opt == "--csv") {
      if (!str_opt(a.csv_path)) return false;
    } else {
      std::fprintf(stderr, "xtel: unknown option %s\n", opt.c_str());
      return false;
    }
  }
  return true;
}

/// Report a failed check on stderr and clear `ok`.
__attribute__((format(printf, 2, 3))) void fail(bool& ok, const char* fmt,
                                                 ...) {
  std::fputs("xtel: ", stderr);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
  ok = false;
}

unsigned long long ull(u64 v) { return static_cast<unsigned long long>(v); }

double pct(u64 part, u64 whole) {
  return whole ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
               : 0.0;
}

/// Write `path` through `emit` (nothing when `path` is empty); false when
/// the file cannot be opened.
template <typename Emit>
bool write_file(const std::string& path, const char* what, Emit&& emit) {
  if (path.empty()) return true;
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "xtel: cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  emit(f);
  std::printf("wrote %s: %s\n", what, path.c_str());
  return true;
}

void print_series_summary(const obs::Sampler& sampler,
                          const sim::CoreConfig& cfg) {
  const auto samples = sampler.samples();
  std::printf("sample windows: %llu recorded, %llu dropped (interval %llu "
              "cycles)\n",
              ull(sampler.recorded()), ull(sampler.dropped()),
              ull(sampler.interval()));
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

void print_site_row(const char* name, const obs::SiteStat& s, u64 total_cycles) {
  std::printf("  %-12s %12llu %6.2f%% %12llu %10llu %8llu %8llu %8llu %8llu\n",
              name, ull(s.cycles), pct(s.cycles, total_cycles),
              ull(s.instructions), ull(s.stalls.branch),
              ull(s.stalls.load_use), ull(s.stalls.mem),
              ull(s.stalls.mul_div), ull(s.stalls.qnt));
}

/// Print the per-region cycle table; true when the region cycles
/// partition the core's cycle counter exactly.
bool print_region_table(const obs::Profiler& prof, u64 perf_cycles) {
  std::printf(
      "  %-12s %12s %7s %12s %10s %8s %8s %8s %8s\n", "region", "cycles",
      "share", "instrs", "br-stall", "ld-use", "mem", "muldiv", "qnt");
  u64 region_sum = 0;
  for (const obs::RegionStat& r : prof.region_stats()) {
    region_sum += r.stat.cycles;
    if (r.stat.instructions == 0 && r.stat.cycles == 0) continue;
    print_site_row(r.name.c_str(), r.stat, perf_cycles);
  }
  print_site_row("total", prof.total(), perf_cycles);
  const bool reconciled = region_sum == perf_cycles && region_sum != 0;
  std::printf("  region cycle sum: %llu, PerfCounters.cycles: %llu -> %s\n",
              ull(region_sum), ull(perf_cycles),
              reconciled ? "reconciled" : "MISMATCH");
  return reconciled;
}

void print_mnemonic_table(const obs::Profiler& prof, int top) {
  struct Row {
    isa::Mnemonic op;
    obs::SiteStat s;
  };
  std::vector<Row> rows;
  const auto& by_op = prof.by_mnemonic();
  for (size_t m = 0; m < by_op.size(); ++m) {
    if (by_op[m].instructions == 0) continue;
    rows.push_back({static_cast<isa::Mnemonic>(m), by_op[m]});
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.s.cycles > b.s.cycles;
  });
  rows.resize(std::min(rows.size(), static_cast<size_t>(top)));
  std::printf("  %-14s %12s %7s %12s %10s\n", "mnemonic", "cycles", "share",
              "instrs", "stalls");
  const u64 total = prof.total().cycles;
  for (const Row& r : rows) {
    std::printf("  %-14s %12llu %6.2f%% %12llu %10llu\n",
                std::string(isa::mnemonic_name(r.op)).c_str(), ull(r.s.cycles),
                pct(r.s.cycles, total), ull(r.s.instructions),
                ull(r.s.stalls.total()));
  }
}

/// A hot pc with its disassembly, decoded while the core's memory lives.
struct Hotspot {
  obs::PcStat at;
  std::string disasm;
};

std::vector<Hotspot> decode_hotspots(const obs::Profiler& prof,
                                     mem::Memory& mem, int top) {
  std::vector<Hotspot> rows;
  for (const obs::PcStat& h : prof.hotspots(static_cast<size_t>(top))) {
    std::string disasm = "?";
    try {
      const u16 low = mem.load_u16(h.pc);
      const isa::Instr in =
          (low & 3u) == 3u
              ? isa::decode(
                    (static_cast<u32>(mem.load_u16(h.pc + 2)) << 16) | low,
                    h.pc)
              : isa::decode_compressed(low, h.pc);
      disasm = isa::disassemble(in, h.pc);
    } catch (const SimError&) {
      // Unreadable / no longer decodable pc: keep the placeholder.
    }
    rows.push_back({h, disasm});
  }
  return rows;
}

void print_hotspots(const std::vector<Hotspot>& rows, u64 total) {
  if (rows.empty()) return;
  std::printf("  %-10s %12s %7s %12s  %s\n", "pc", "cycles", "share",
              "instrs", "instruction");
  for (const Hotspot& h : rows) {
    std::printf("  0x%08x %12llu %6.2f%% %12llu  %s\n", h.at.pc,
                ull(h.at.stat.cycles), pct(h.at.stat.cycles, total),
                ull(h.at.stat.instructions), h.disasm.c_str());
  }
}

/// Print the per-region energy table; returns the reconciliation
/// diagnostic (empty when the three layers hold).
std::string print_energy_table(const obs::Profiler& prof) {
  const std::string rec = prof.reconciliation_violation();
  std::printf("\nper-region energy attribution:\n");
  std::printf("  %-12s %14s %14s %12s\n", "region", "soc_pj", "core_pj",
              "cycles");
  for (const obs::RegionEnergy& r : prof.region_energies()) {
    if (r.cell.perf.instructions == 0) continue;
    std::printf("  %-12s %14.1f %14.1f %12llu\n", r.name.c_str(),
                r.cell.energy.soc_pj(), r.cell.energy.core_pj(),
                ull(r.cell.perf.cycles));
  }
  const obs::EnergyCell total = prof.energy_total();
  std::printf("  %-12s %14.1f %14.1f %12llu  -> %s\n", "total",
              total.energy.soc_pj(), total.energy.core_pj(),
              ull(total.perf.cycles), rec.empty() ? "reconciled" : "MISMATCH");
  return rec;
}

void add_workload(obs::Registry& reg, const Args& args,
                  const qnn::ConvSpec& spec) {
  reg.text("workload.kernel", kernels::variant_name(args.variant));
  reg.counter("workload.bits", args.bits);
  reg.counter("workload.macs", spec.macs());
}

/// The profiled single-core pass: cycle, stall, mnemonic, hotspot and pJ
/// tables, flamegraph stacks and timeline slices. `perf` is the sampled
/// pass's counters, which this pass must reproduce exactly.
void profile_single(const Args& args, const kernels::ConvLayerData& data,
                    const sim::CoreConfig& cfg,
                    const kernels::ConvGenOptions& gopts,
                    const sim::PerfCounters& perf, obs::Registry& reg,
                    obs::Timeline* timeline, bool& ok) {
  std::optional<obs::Profiler> prof;
  std::vector<Hotspot> hot;
  const kernels::ConvRunResult res = kernels::run_conv_layer(
      data, args.variant, cfg, gopts,
      [&](sim::Core& core, const kernels::ConvKernel& k) {
        prof.emplace(core, k.regions,
                     obs::Profiler::Options{
                         .timeline = timeline,
                         .block_instructions = kBlockInstructions});
      },
      [&](sim::Core& core, const kernels::ConvKernel&) {
        prof->finalize();
        hot = decode_hotspots(*prof, core.memory(), args.top);
      });

  std::puts("\nper-region cycle attribution:");
  const bool reconciled = print_region_table(*prof, perf.cycles);
  std::printf("\ntop mnemonics:\n");
  print_mnemonic_table(*prof, args.top);
  std::printf("\nhotspots:\n");
  print_hotspots(hot, prof->total().cycles);
  const std::string rec = print_energy_table(*prof);

  if (args.check) {
    if (res.perf.cycles != perf.cycles ||
        res.perf.instructions != perf.instructions) {
      fail(ok, "profiled pass diverged from the sampled run (cycles %llu vs "
           "%llu)", ull(res.perf.cycles), ull(perf.cycles));
    }
    if (!reconciled) {
      fail(ok, "region totals do not reconcile with the core's cycle counter");
    }
    if (!rec.empty()) fail(ok, "energy reconciliation failed: %s", rec.c_str());
  }

  prof->add_to_registry(reg, "profile");
  prof->add_energy_to_registry(reg, "energy");
  reg.flag("energy.reconciled", rec.empty());
  write_file(args.folded_cycles_path, "cycle flamegraph stacks",
             [&](std::ostream& os) { os << prof->collapsed_stacks("core0"); });
  write_file(args.folded_path, "energy flamegraph stacks",
             [&](std::ostream& os) { os << prof->energy_stacks("core0"); });
}

int run_single(const Args& args, const kernels::ConvLayerData& data,
               const sim::CoreConfig& cfg, obs::Registry& reg,
               obs::Timeline* timeline) {
  const qnn::ConvSpec& spec = data.spec;
  kernels::ConvGenOptions gopts;
  gopts.use_hwloops = args.hwloops;
  if (timeline) timeline->set_track_name(0, "core0");

  std::optional<obs::Sampler> sampler;
  sim::SuperblockStats sb;
  const kernels::ConvRunResult res = kernels::run_conv_layer(
      data, args.variant, cfg, gopts,
      [&](sim::Core& core, const kernels::ConvKernel&) {
        obs::Sampler::Options sopts;
        sopts.interval_cycles = args.interval;
        sopts.capacity = kSampleCapacity;
        sopts.timeline = timeline;
        sampler.emplace(core, sopts);
      },
      [&](sim::Core& core, const kernels::ConvKernel&) {
        sampler->finalize();
        sb = core.superblock_stats();
      });

  bool ok = true;
  const sim::PerfCounters& perf = res.perf;
  if (args.check) {
    if (!(res.output == data.golden())) {
      fail(ok, "output does not match the golden model");
    }
    const std::string inv = sim::perf_invariant_violation(perf);
    if (!inv.empty()) fail(ok, "perf invariant violated: %s", inv.c_str());
  }

  std::printf("\n== %s, %u-bit, %dx%dx%d -> %d (%s dispatch) ==\n",
              kernels::variant_name(args.variant), args.bits, spec.in_h,
              spec.in_w, spec.in_c, spec.out_c, args.mode.c_str());
  std::printf("cycles %llu  instructions %llu  IPC %.3f  MACs/cycle %.3f\n",
              ull(perf.cycles), ull(perf.instructions),
              perf.cycles ? static_cast<double>(perf.instructions) /
                                static_cast<double>(perf.cycles)
                          : 0.0,
              res.macs_per_cycle());
  print_series_summary(*sampler, cfg);
  if (args.mode == "superblock") {
    std::printf("  superblock: %llu fused instructions (%.2f%%), %llu sample "
                "flushes\n",
                ull(sb.fused_instructions),
                pct(sb.fused_instructions, perf.instructions),
                ull(sb.sample_flushes));
    obs::add_superblock_stats(reg, "sim.superblock", sb, perf.instructions);
  }

  add_workload(reg, args, spec);
  reg.text("workload.core", cfg.name);
  reg.text("workload.dispatch", args.mode);
  obs::add_perf_counters(reg, "perf", perf);
  obs::add_mem_stats(reg, "mem", res.mem_stats);
  sampler->add_to_registry(reg, "xtel.samples");
  const power::SocPower pw =
      power::estimate_power(perf, res.activity, res.mem_stats, cfg);
  obs::add_soc_power(reg, "sim.power", pw);
  reg.gauge("power.gmac_per_s_per_w",
            power::gmac_per_s_per_w(spec.macs(), perf.cycles, pw.soc_mw()));
  write_file(args.samples_path, "sample series CSV",
             [&](std::ostream& os) { sampler->write_csv(os); });

  if (args.profile) {
    profile_single(args, data, cfg, gopts, perf, reg, timeline, ok);
  }
  reg.flag("workload.output_ok", ok);
  return ok ? 0 : 1;
}

/// One cluster run under a given scheduler with the telemetry stack
/// attached. Samplers and profilers outlive the cluster; only their
/// recorded series and finalized views are touched afterwards.
struct ClusterPass {
  cluster::ParallelConvResult res;
  std::unique_ptr<obs::BankHeatmap> heatmap;
  std::vector<std::unique_ptr<obs::Sampler>> samplers;
  std::vector<std::unique_ptr<obs::Profiler>> profilers;  // when profiled
  cluster::ClusterBurstStats burst;
};

/// `primary` streams the samplers' counter tracks to `timeline`;
/// `profile` attaches one profiler per core, with its slices on
/// `timeline`.
ClusterPass run_cluster_pass(const Args& args, const kernels::ConvLayerData& data,
                             const sim::CoreConfig& cfg,
                             cluster::SchedulerMode sched,
                             obs::Timeline* timeline, bool primary,
                             bool profile) {
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = args.cores;
  ccfg.core = cfg;
  ccfg.scheduler = sched;
  const u32 banks = static_cast<u32>(args.cores) * cluster::kBanksPerCore;

  obs::BankHeatmap::Options hopts;
  hopts.window_cycles = args.interval;
  ClusterPass pass;
  pass.heatmap =
      std::make_unique<obs::BankHeatmap>(banks, args.cores, hopts);

  const auto instrument = [&](cluster::Cluster& cl,
                              const std::vector<kernels::ConvKernel>& ks) {
    obs::BankHeatmap& heatmap = *pass.heatmap;
    cl.set_access_observer([&heatmap](int c, cycles_t cycle, addr_t,
                                      addr_t addr, unsigned, bool,
                                      unsigned stalls) {
      heatmap.observe(c, cycle, addr, stalls);
    });
    for (int c = 0; c < cl.num_cores(); ++c) {
      const u8 track = static_cast<u8>(c);
      const std::string name = "core" + std::to_string(c);
      if (timeline) timeline->set_track_name(track, name);
      obs::Sampler::Options sopts;
      sopts.interval_cycles = args.interval;
      sopts.capacity = kSampleCapacity;
      sopts.track = track;
      sopts.track_prefix = name;
      sopts.mem_stats = &cl.memory().stats();  // shared TCDM
      sopts.timeline = primary ? timeline : nullptr;
      pass.samplers.push_back(
          std::make_unique<obs::Sampler>(cl.core(c), sopts));
      if (profile) {
        pass.profilers.push_back(std::make_unique<obs::Profiler>(
            cl.core(c), ks[static_cast<size_t>(c)].regions,
            obs::Profiler::Options{.timeline = timeline,
                                   .track = track,
                                   .block_instructions = kBlockInstructions}));
      }
    }
  };

  pass.res = cluster::run_parallel_conv(
      data, args.variant, ccfg, instrument,
      [&](cluster::Cluster& cl, const std::vector<kernels::ConvKernel>&) {
        for (auto& s : pass.samplers) s->finalize();
        for (auto& p : pass.profilers) p->finalize();
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

int run_cluster(const Args& args, const kernels::ConvLayerData& data,
                const sim::CoreConfig& cfg, obs::Registry& reg,
                obs::Timeline* timeline) {
  const bool burst_primary = args.scheduler == "burst";
  const cluster::SchedulerMode primary_mode =
      burst_primary ? cluster::SchedulerMode::kBurst
                    : cluster::SchedulerMode::kReference;
  // An attached profiler demotes a burst run to the reference scheduler,
  // so the profilers ride the pass that runs the reference scheduler: the
  // primary one, or the parity pass under --check.
  const ClusterPass pass =
      run_cluster_pass(args, data, cfg, primary_mode, timeline,
                       /*primary=*/true, args.profile && !burst_primary);
  const cluster::ParallelConvResult& res = pass.res;
  const obs::BankHeatmap& heatmap = *pass.heatmap;

  bool ok = true;
  std::optional<ClusterPass> other;
  if (args.check) {
    if (!(res.output == data.golden())) {
      fail(ok, "cluster output does not match golden");
    }
    // Scheduler parity: the burst engine must be telemetry-invisible.
    // Re-run under the other scheduler and require byte-identical bank
    // heatmaps and per-core sampled counter tracks.
    other = run_cluster_pass(
        args, data, cfg,
        burst_primary ? cluster::SchedulerMode::kReference
                      : cluster::SchedulerMode::kBurst,
        timeline, /*primary=*/false, args.profile && burst_primary);
    bool parity = heatmap_json(heatmap) == heatmap_json(*other->heatmap) &&
                  res.stats.makespan == other->res.stats.makespan &&
                  res.stats.bank_conflicts == other->res.stats.bank_conflicts &&
                  res.stats.data_accesses == other->res.stats.data_accesses &&
                  res.output == other->res.output;
    for (int c = 0; parity && c < args.cores; ++c) {
      parity = sample_series_match(*pass.samplers[static_cast<size_t>(c)],
                                   *other->samplers[static_cast<size_t>(c)]);
    }
    if (!parity) {
      fail(ok, "telemetry differs between burst and reference cluster "
           "scheduling");
    }
    reg.flag("xtel.scheduler_parity", parity);
    if (heatmap.total_conflicts() != res.stats.bank_conflicts ||
        heatmap.total_accesses() != res.stats.data_accesses) {
      fail(ok, "heatmap totals do not match the bank arbiter (conflicts %llu "
           "vs %llu, accesses %llu vs %llu)",
           ull(heatmap.total_conflicts()), ull(res.stats.bank_conflicts),
           ull(heatmap.total_accesses()), ull(res.stats.data_accesses));
    }
  }

  std::printf("\n== %s, %u-bit on %d cores ==\n",
              kernels::variant_name(args.variant), args.bits, args.cores);
  std::printf("makespan %llu cycles  MACs/cycle %.3f  bank conflicts %llu "
              "(%.3f%% of %llu accesses)\n",
              ull(res.stats.makespan), res.macs_per_cycle(),
              ull(res.stats.bank_conflicts), 100.0 * res.stats.conflict_rate(),
              ull(res.stats.data_accesses));
  for (int c = 0; c < args.cores; ++c) {
    std::printf("core %d: ", c);
    print_series_summary(*pass.samplers[static_cast<size_t>(c)], cfg);
    pass.samplers[static_cast<size_t>(c)]->add_to_registry(
        reg, "cores.core" + std::to_string(c) + ".samples");
  }

  const ClusterPass& profiled =
      other && !other->profilers.empty() ? *other : pass;
  std::string folded;
  for (size_t c = 0; c < profiled.profilers.size(); ++c) {
    const obs::Profiler& prof = *profiled.profilers[c];
    const u64 core_cycles = profiled.res.stats.core_cycles[c];
    std::printf("\ncore %zu (%llu cycles):\n", c, ull(core_cycles));
    if (!print_region_table(prof, core_cycles) && args.check) {
      fail(ok, "core %zu attribution does not reconcile", c);
    }
    const std::string name = "core" + std::to_string(c);
    prof.add_to_registry(reg, "cores." + name);
    folded += prof.collapsed_stacks(name);
  }
  if (args.profile && profiled.profilers.empty()) {
    std::puts("(per-core region tables need --check or --scheduler "
              "reference)");
  }
  write_file(args.folded_cycles_path, "cycle flamegraph stacks",
             [&](std::ostream& os) { os << folded; });

  add_workload(reg, args, data.spec);
  reg.counter("workload.cores", static_cast<u64>(args.cores));
  reg.flag("workload.output_ok", ok);
  reg.counter("cluster.makespan", res.stats.makespan);
  reg.counter("cluster.bank_conflicts", res.stats.bank_conflicts);
  reg.counter("cluster.data_accesses", res.stats.data_accesses);
  reg.text("cluster.scheduler", args.scheduler);
  if (burst_primary) cluster::add_burst_stats(reg, "cluster.burst", pass.burst);
  heatmap.add_to_registry(reg, "xtel.heatmap");
  reg.flag("xtel.heatmap.reconciled",
           heatmap.total_conflicts() == res.stats.bank_conflicts);

  if (timeline) heatmap.add_to_timeline(*timeline);
  write_file(args.heatmap_path, "bank heatmap JSON",
             [&](std::ostream& os) { heatmap.write_json(os); });
  write_file(args.heatmap_csv_path, "bank heatmap CSV",
             [&](std::ostream& os) { heatmap.write_csv(os); });
  write_file(args.samples_path, "sample series CSV", [&](std::ostream& os) {
    for (int c = 0; c < args.cores; ++c) {
      os << "# core " << c << "\n";
      pass.samplers[static_cast<size_t>(c)]->write_csv(os);
    }
  });
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
  if ((args.variant == ConvVariant::kXpulpV2_8b) != (args.bits == 8)) {
    std::fprintf(stderr, "xtel: --bits 8 goes with --variant 8b, the "
                         "sub-byte variants need --bits 4 or 2\n");
    return 2;
  }
  if (!args.hwloops && args.cores > 1) {
    std::fprintf(stderr, "xtel: --no-hwloops is single-core only\n");
    return 2;
  }

  sim::CoreConfig cfg =
      args.ri5cy_core ? sim::CoreConfig::ri5cy() : sim::CoreConfig::extended();
  cfg.reference_dispatch = (args.mode == "reference");
  cfg.superblock = (args.mode == "superblock");
  cfg.hwloops = args.hwloops;

  const qnn::ConvSpec spec = args.small
                                ? qnn::ConvSpec::small_layer(args.bits)
                                : qnn::ConvSpec::paper_layer(args.bits);

  try {
    // random() calibrates the spec's requant_shift for 8-bit outputs; the
    // runners generate the kernel from data.spec.
    const auto data = kernels::ConvLayerData::random(spec, /*seed=*/7);

    std::unique_ptr<obs::Timeline> timeline;
    if (!args.trace_path.empty()) {
      timeline = std::make_unique<obs::Timeline>();
    }

    obs::Registry reg;
    const int rc = args.cores > 1
                       ? run_cluster(args, data, cfg, reg, timeline.get())
                       : run_single(args, data, cfg, reg, timeline.get());

    if (!write_file(args.trace_path, "Perfetto trace", [&](std::ostream& os) {
          timeline->write_chrome_json(os);
        })) {
      return 1;
    }
    if (timeline) {
      std::printf("  %llu events, %llu counter points, %llu dropped\n",
                  ull(timeline->size()), ull(timeline->counters_recorded()),
                  ull(timeline->dropped() + timeline->counters_dropped()));
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
