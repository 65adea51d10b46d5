// xprof: cycle-attribution profiler for the paper's generated QNN kernels.
//
// Generates a convolution kernel (any variant / bit width), runs it on the
// simulated core with the obs::Profiler attached, verifies the output
// against the golden model, and reports where the cycles went:
//   - a per-region table (im2col / matmul / quant / other) whose cycle
//     totals reconcile exactly with PerfCounters.cycles (the paper's
//     Fig. 6 breakdown, but for any kernel);
//   - per-mnemonic and per-pc hotspot tables with stall breakdowns;
//   - optional exports: Chrome/Perfetto trace.json, collapsed flamegraph
//     stacks, and the full metrics registry as JSON/CSV.
// --cores N profiles a parallel cluster run with one timeline lane and one
// region table per core.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster/parallel_conv.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "qnn/pack.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/energy.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "power/power_model.hpp"
#include "qnn/ref_layers.hpp"

namespace {

using namespace xpulp;
using kernels::ConvVariant;

struct Args {
  unsigned bits = 4;
  ConvVariant variant = ConvVariant::kXpulpNN_HwQ;
  bool ri5cy_core = false;
  bool reference_dispatch = false;
  bool superblock = false;  // untraced second pass with fusion coverage
  bool hwloops = true;
  bool small = false;       // small layer for smoke tests
  bool check = true;        // verify output + reconciliation, exit 1 on fail
  int cores = 1;            // >1: cluster mode
  int top = 10;
  u32 block = 64;
  std::string trace_path;   // Chrome/Perfetto trace.json
  std::string folded_path;  // collapsed stacks
  std::string json_path;    // registry JSON
  std::string csv_path;     // registry CSV
};

void usage() {
  std::puts(
      "usage: xprof [options]\n"
      "  --bits N           activation/weight/output width: 8, 4, 2 "
      "(default 4)\n"
      "  --variant V        8b | sub | subshf | swq | hwq (default hwq)\n"
      "  --core C           ri5cy | xpulpnn (default xpulpnn)\n"
      "  --reference        use the legacy reference dispatch loop\n"
      "  --superblock       rerun untraced with the superblock engine and\n"
      "                     report fusion coverage (sim.superblock.* "
      "metrics)\n"
      "  --no-hwloops       generate without hardware loops\n"
      "  --small            profile a small 6x6x16->8 layer instead of the\n"
      "                     paper's 16x16x32->64 layer\n"
      "  --cores N          profile an N-core cluster run (per-core lanes)\n"
      "  --top N            hotspot rows to print (default 10)\n"
      "  --block N          instructions per timeline block slice "
      "(default 64)\n"
      "  --trace FILE       write Chrome/Perfetto trace JSON\n"
      "  --folded FILE      write collapsed flamegraph stacks\n"
      "  --json FILE        write the metrics registry as JSON\n"
      "  --csv FILE         write the metrics registry as CSV\n"
      "  --no-check         skip golden-output and reconciliation checks");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "xprof: %s needs a value\n", opt.c_str());
        return nullptr;
      }
      return argv[++i];
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
    } else if (opt == "--reference") {
      a.reference_dispatch = true;
    } else if (opt == "--superblock") {
      a.superblock = true;
    } else if (opt == "--no-hwloops") {
      a.hwloops = false;
    } else if (opt == "--small") {
      a.small = true;
    } else if (opt == "--check") {
      a.check = true;  // the default; accepted for explicit CI invocations
    } else if (opt == "--no-check") {
      a.check = false;
    } else if (opt == "--cores") {
      const char* v = need_value();
      if (!v) return false;
      a.cores = std::atoi(v);
    } else if (opt == "--top") {
      const char* v = need_value();
      if (!v) return false;
      a.top = std::atoi(v);
    } else if (opt == "--block") {
      const char* v = need_value();
      if (!v) return false;
      a.block = static_cast<u32>(std::atoi(v));
    } else if (opt == "--trace") {
      const char* v = need_value();
      if (!v) return false;
      a.trace_path = v;
    } else if (opt == "--folded") {
      const char* v = need_value();
      if (!v) return false;
      a.folded_path = v;
    } else if (opt == "--json") {
      const char* v = need_value();
      if (!v) return false;
      a.json_path = v;
    } else if (opt == "--csv") {
      const char* v = need_value();
      if (!v) return false;
      a.csv_path = v;
    } else {
      std::fprintf(stderr, "xprof: unknown option %s\n", opt.c_str());
      return false;
    }
  }
  return true;
}

double pct(u64 part, u64 whole) {
  return whole ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
               : 0.0;
}

void print_site_row(const char* name, const obs::SiteStat& s, u64 total_cycles) {
  std::printf("  %-12s %12llu %6.2f%% %12llu %10llu %8llu %8llu %8llu %8llu\n",
              name, static_cast<unsigned long long>(s.cycles),
              pct(s.cycles, total_cycles),
              static_cast<unsigned long long>(s.instructions),
              static_cast<unsigned long long>(s.stalls.branch),
              static_cast<unsigned long long>(s.stalls.load_use),
              static_cast<unsigned long long>(s.stalls.mem),
              static_cast<unsigned long long>(s.stalls.mul_div),
              static_cast<unsigned long long>(s.stalls.qnt));
}

void print_region_table(const obs::Profiler& prof, u64 perf_cycles) {
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
  std::printf("  region cycle sum: %llu, PerfCounters.cycles: %llu -> %s\n",
              static_cast<unsigned long long>(region_sum),
              static_cast<unsigned long long>(perf_cycles),
              region_sum == perf_cycles ? "reconciled" : "MISMATCH");
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
  if (rows.size() > static_cast<size_t>(top)) {
    rows.resize(static_cast<size_t>(top));
  }
  std::printf("  %-14s %12s %7s %12s %10s\n", "mnemonic", "cycles", "share",
              "instrs", "stalls");
  const u64 total = prof.total().cycles;
  for (const Row& r : rows) {
    std::printf("  %-14s %12llu %6.2f%% %12llu %10llu\n",
                std::string(isa::mnemonic_name(r.op)).c_str(),
                static_cast<unsigned long long>(r.s.cycles),
                pct(r.s.cycles, total),
                static_cast<unsigned long long>(r.s.instructions),
                static_cast<unsigned long long>(r.s.stalls.total()));
  }
}

void print_hotspots(const obs::Profiler& prof, mem::Memory& mem, int top) {
  const auto spots = prof.hotspots(static_cast<size_t>(top));
  if (spots.empty()) return;
  std::printf("  %-10s %12s %7s %12s  %s\n", "pc", "cycles", "share",
              "instrs", "instruction");
  const u64 total = prof.total().cycles;
  for (const obs::PcStat& h : spots) {
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
    std::printf("  0x%08x %12llu %6.2f%% %12llu  %s\n", h.pc,
                static_cast<unsigned long long>(h.stat.cycles),
                pct(h.stat.cycles, total),
                static_cast<unsigned long long>(h.stat.instructions),
                disasm.c_str());
  }
}

bool write_text_file(const std::string& path, const std::string& body,
                     const char* what) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "xprof: cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  f << body;
  std::printf("wrote %s: %s\n", what, path.c_str());
  return true;
}

int run_single(const Args& args, const qnn::ConvSpec& spec,
               const kernels::ConvLayerData& data, sim::CoreConfig cfg,
               obs::Registry& reg, std::unique_ptr<obs::Timeline>& timeline) {
  kernels::ConvGenOptions gopts;
  gopts.use_hwloops = args.hwloops;
  kernels::ConvKernel kernel =
      kernels::generate_conv_kernel(spec, args.variant, 0x40000, gopts);

  mem::Memory mem;
  kernel.program.load(mem);
  kernels::load_conv_data(data, kernel.layout, mem);

  sim::Core core(mem, cfg);
  core.reset(kernel.program.entry(),
             kernel.program.base() + kernel.program.size_bytes());

  obs::Profiler::Options popts;
  popts.block_instructions = args.block;
  if (timeline) {
    popts.timeline = timeline.get();
    timeline->set_track_name(0, "core0");
  }
  obs::Profiler prof(core, kernel.regions, popts);
  core.run(600'000'000);
  prof.finalize();

  if (core.halt_reason() != sim::HaltReason::kEcall) {
    std::fprintf(stderr, "xprof: kernel did not run to completion\n");
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
      std::fprintf(stderr, "xprof: output does not match the golden model\n");
      ok = false;
    }
    const std::string inv = sim::perf_invariant_violation(core.perf());
    if (!inv.empty()) {
      std::fprintf(stderr, "xprof: perf invariant violated: %s\n",
                   inv.c_str());
      ok = false;
    }
  }

  const sim::PerfCounters& perf = core.perf();
  std::printf("\n== %s, %u-bit, %dx%dx%d -> %d (%s dispatch) ==\n",
              kernels::variant_name(args.variant), args.bits, spec.in_h,
              spec.in_w, spec.in_c, spec.out_c,
              args.reference_dispatch ? "reference" : "fast");
  std::printf("cycles %llu  instructions %llu  IPC %.3f  MACs/cycle %.3f\n\n",
              static_cast<unsigned long long>(perf.cycles),
              static_cast<unsigned long long>(perf.instructions),
              perf.cycles ? static_cast<double>(perf.instructions) /
                                static_cast<double>(perf.cycles)
                          : 0.0,
              perf.cycles ? static_cast<double>(spec.macs()) /
                                static_cast<double>(perf.cycles)
                          : 0.0);

  std::puts("per-region cycle attribution:");
  print_region_table(prof, perf.cycles);
  u64 region_sum = 0;
  u64 nonzero_regions = 0;
  for (const obs::RegionStat& r : prof.region_stats()) {
    region_sum += r.stat.cycles;
    if (r.stat.cycles != 0) ++nonzero_regions;
  }
  if (args.check && (region_sum != perf.cycles || nonzero_regions == 0)) {
    std::fprintf(stderr,
                 "xprof: region totals do not reconcile with the core's "
                 "cycle counter\n");
    ok = false;
  }

  std::printf("\ntop mnemonics:\n");
  print_mnemonic_table(prof, args.top);
  std::printf("\nhotspots:\n");
  print_hotspots(prof, mem, args.top);

  if (args.superblock) {
    // The profiler's trace hook keeps the superblock engine cold, so the
    // fusion-coverage numbers come from a second, untraced pass. Its
    // counters must land exactly on the profiled run's — fused bursts are
    // bit-identical to the interpreter.
    sim::CoreConfig sb_cfg = cfg;
    sb_cfg.reference_dispatch = false;
    sb_cfg.superblock = true;
    mem::Memory sb_mem;
    kernel.program.load(sb_mem);
    kernels::load_conv_data(data, kernel.layout, sb_mem);
    sim::Core sb_core(sb_mem, sb_cfg);
    sb_core.reset(kernel.program.entry(),
                  kernel.program.base() + kernel.program.size_bytes());
    sb_core.run(600'000'000);

    const sim::SuperblockStats& sb = sb_core.superblock_stats();
    const sim::PerfCounters& sp = sb_core.perf();
    std::printf("\nsuperblock engine (untraced pass):\n");
    std::printf("  %-22s %12llu\n", "blocks compiled",
                static_cast<unsigned long long>(sb.blocks_compiled));
    std::printf("  %-22s %12llu\n", "compile rejects",
                static_cast<unsigned long long>(sb.compile_rejects));
    std::printf("  %-22s %12llu  (rejects %llu)\n", "bursts entered",
                static_cast<unsigned long long>(sb.entries),
                static_cast<unsigned long long>(sb.entry_rejects));
    std::printf("  %-22s %12llu\n", "fused iterations",
                static_cast<unsigned long long>(sb.fused_iterations));
    std::printf("  %-22s %12llu  (%.2f%% of instructions)\n",
                "fused instructions",
                static_cast<unsigned long long>(sb.fused_instructions),
                pct(sb.fused_instructions, sp.instructions));
    std::printf("  %-22s %12llu\n", "smc bails",
                static_cast<unsigned long long>(sb.smc_bails));
    std::printf("  %-22s %12llu\n", "trap bails",
                static_cast<unsigned long long>(sb.trap_bails));
    std::printf("  %-22s %12llu\n", "invalidations",
                static_cast<unsigned long long>(sb.invalidations));
    if (args.check &&
        (sp.cycles != perf.cycles || sp.instructions != perf.instructions)) {
      std::fprintf(stderr,
                   "xprof: superblock pass diverged from the profiled run "
                   "(cycles %llu vs %llu)\n",
                   static_cast<unsigned long long>(sp.cycles),
                   static_cast<unsigned long long>(perf.cycles));
      ok = false;
    }
    obs::add_superblock_stats(reg, "sim.superblock", sb, sp.instructions);
  }

  // Registry: workload identity, raw counters, attribution, power.
  reg.text("workload.kernel", kernels::variant_name(args.variant));
  reg.counter("workload.bits", args.bits);
  reg.text("workload.core", cfg.name);
  reg.text("workload.dispatch",
           args.reference_dispatch ? "reference" : "fast");
  reg.counter("workload.macs", spec.macs());
  reg.flag("workload.output_ok", ok);
  obs::add_perf_counters(reg, "perf", perf);
  obs::add_mem_stats(reg, "mem", mem.stats());
  prof.add_to_registry(reg, "profile");
  // Flatten the per-region table to a compact regions.* block (the CI
  // smoke test reads these).
  for (const obs::RegionStat& r : prof.region_stats()) {
    reg.counter("regions." + r.name + ".cycles", r.stat.cycles);
    reg.counter("regions." + r.name + ".instructions", r.stat.instructions);
  }
  const power::SocPower pw = power::estimate_power(
      perf, core.dotp_unit().activity(), mem.stats(), cfg);
  reg.gauge("power.core_mw", pw.core.core_mw());
  reg.gauge("power.soc_mw", pw.soc_mw());
  reg.gauge("power.gmac_per_s_per_w",
            power::gmac_per_s_per_w(spec.macs(), perf.cycles, pw.soc_mw()));
  // Full component breakdown under the shared sim.power.* keys (same
  // helper xtel uses, so both tools publish identical layouts).
  obs::add_soc_power(reg, "sim.power", pw);

  if (!args.folded_path.empty()) {
    write_text_file(args.folded_path, prof.collapsed_stacks("core0"),
                    "collapsed stacks");
  }
  return ok ? 0 : 1;
}

int run_cluster(const Args& args, const qnn::ConvSpec& spec,
                const kernels::ConvLayerData& data,
                const sim::CoreConfig& cfg, obs::Registry& reg,
                std::unique_ptr<obs::Timeline>& timeline) {
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = args.cores;
  ccfg.core = cfg;

  std::vector<std::unique_ptr<obs::Profiler>> profilers;
  std::string folded;
  const auto instrument = [&](cluster::Cluster& cl,
                              const std::vector<kernels::ConvKernel>& ks) {
    for (int c = 0; c < cl.num_cores(); ++c) {
      obs::Profiler::Options popts;
      popts.block_instructions = args.block;
      popts.track = static_cast<u8>(c);
      if (timeline) {
        popts.timeline = timeline.get();
        timeline->set_track_name(static_cast<u8>(c),
                                 "core" + std::to_string(c));
      }
      profilers.push_back(std::make_unique<obs::Profiler>(
          cl.core(c), ks[static_cast<size_t>(c)].regions, popts));
    }
  };

  // Finalize inside after_run: the profilers must settle against their
  // cores before the cluster is torn down.
  const cluster::ParallelConvResult res = cluster::run_parallel_conv(
      data, args.variant, ccfg, instrument,
      [&](cluster::Cluster&, const std::vector<kernels::ConvKernel>&) {
        for (auto& p : profilers) p->finalize();
      });

  bool ok = true;
  if (args.check && !(res.output == data.golden())) {
    std::fprintf(stderr, "xprof: cluster output does not match golden\n");
    ok = false;
  }

  std::printf("\n== %s, %u-bit on %d cores ==\n",
              kernels::variant_name(args.variant), args.bits, args.cores);
  std::printf(
      "makespan %llu cycles  MACs/cycle %.3f  bank conflicts %llu "
      "(%.3f%% of accesses)\n",
      static_cast<unsigned long long>(res.stats.makespan),
      res.macs_per_cycle(),
      static_cast<unsigned long long>(res.stats.bank_conflicts),
      100.0 * res.stats.conflict_rate());

  reg.text("workload.kernel", kernels::variant_name(args.variant));
  reg.counter("workload.bits", args.bits);
  reg.counter("workload.cores", static_cast<u64>(args.cores));
  reg.counter("workload.macs", spec.macs());
  reg.flag("workload.output_ok", ok);
  reg.counter("cluster.makespan", res.stats.makespan);
  reg.counter("cluster.bank_conflicts", res.stats.bank_conflicts);
  reg.counter("cluster.data_accesses", res.stats.data_accesses);

  for (int c = 0; c < args.cores; ++c) {
    const obs::Profiler& prof = *profilers[static_cast<size_t>(c)];
    const u64 core_cycles =
        res.stats.core_cycles[static_cast<size_t>(c)];
    std::printf("\ncore %d (%llu cycles):\n", c,
                static_cast<unsigned long long>(core_cycles));
    print_region_table(prof, core_cycles);
    if (args.check && prof.total().cycles != core_cycles) {
      std::fprintf(stderr,
                   "xprof: core %d attribution does not reconcile\n", c);
      ok = false;
    }
    prof.add_to_registry(reg, "cores.core" + std::to_string(c));
    folded += prof.collapsed_stacks("core" + std::to_string(c));
  }

  if (!args.folded_path.empty()) {
    write_text_file(args.folded_path, folded, "collapsed stacks");
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
    std::fprintf(stderr, "xprof: --bits must be 8, 4 or 2\n");
    return 2;
  }
  if (args.variant == ConvVariant::kXpulpV2_8b && args.bits != 8) {
    std::fprintf(stderr, "xprof: variant 8b requires --bits 8\n");
    return 2;
  }
  if (args.variant != ConvVariant::kXpulpV2_8b && args.bits == 8) {
    std::fprintf(stderr, "xprof: sub-byte variants need --bits 4 or 2\n");
    return 2;
  }

  sim::CoreConfig cfg =
      args.ri5cy_core ? sim::CoreConfig::ri5cy() : sim::CoreConfig::extended();
  cfg.reference_dispatch = args.reference_dispatch;
  cfg.hwloops = args.hwloops;

  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(args.bits);
  if (args.small) {
    spec.in_h = spec.in_w = 6;
    spec.in_c = 16;
    spec.out_c = 8;
  }

  try {
    if (!kernels::variant_supported(args.variant, cfg)) {
      std::fprintf(stderr, "xprof: variant %s is not supported on core %s\n",
                   kernels::variant_name(args.variant), cfg.name.c_str());
      return 2;
    }
    const auto data = kernels::ConvLayerData::random(spec, /*seed=*/7);
    // random() calibrates spec.requant_shift for 8-bit outputs; the kernel
    // must be generated from the calibrated spec or requantization shifts
    // by the wrong amount.
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
        std::fprintf(stderr, "xprof: cannot write trace to %s\n",
                     args.trace_path.c_str());
        return 1;
      }
      timeline->write_chrome_json(f);
      std::printf("wrote Perfetto trace: %s (%llu events, %llu dropped)\n",
                  args.trace_path.c_str(),
                  static_cast<unsigned long long>(timeline->size()),
                  static_cast<unsigned long long>(timeline->dropped()));
    }
    if (!args.json_path.empty() && reg.save_json(args.json_path)) {
      std::printf("wrote metrics JSON: %s\n", args.json_path.c_str());
    }
    if (!args.csv_path.empty() && reg.save_csv(args.csv_path)) {
      std::printf("wrote metrics CSV: %s\n", args.csv_path.c_str());
    }
    return rc;
  } catch (const SimError& e) {
    std::fprintf(stderr, "xprof: %s\n", e.what());
    return 1;
  }
}
