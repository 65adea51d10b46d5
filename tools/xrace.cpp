// xrace — cross-core TCDM race analyzer for the parallel XpulpNN kernels.
//
// Two phases over the same deployments:
//   --static     prove per-core footprints pairwise disjoint (strided-
//                interval abstraction, src/analysis/footprint.hpp)
//   --shadow     run the deployment on the cluster with a byte-granular
//                shadow memory attached and flag real conflicts at their
//                exact pc pair and cycle, then cross-validate: every
//                observed conflict must have been predicted statically
//
//   xrace --static --kernels      sweep every parallel kernel deployment
//                                 (conv row-partitioned, linear channel-
//                                 tiled, pooling) at 1/2/4/8 cores
//   xrace --shadow                shadow one 4-bit XpulpNN-HwQ parallel
//                                 conv run (the paper's headline variant)
//
// Options:
//   --cores N    restrict the static sweep / shadow run to N cores
//   --json FILE  write metrics (sim.race.* / per-config) as JSON
//
// Exit status: 0 clean, 1 conflicts/unprovable/validation failure,
// 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/race.hpp"
#include "analysis/shadow.hpp"
#include "cluster/parallel_conv.hpp"
#include "common/error.hpp"
#include "obs/registry.hpp"

namespace {

using namespace xpulp;

int usage() {
  std::cerr << "usage: xrace (--static [--kernels] | --shadow) "
               "[--cores N] [--json FILE]\n";
  return 2;
}

std::string metric_key(std::string name) {
  for (char& c : name) {
    if (c == '/' || c == '.') c = '_';
  }
  return name;
}

int run_static(const std::vector<int>& core_counts, obs::Registry& reg) {
  int dirty = 0;
  const auto checks = analysis::analyze_parallel_kernels(core_counts);
  for (const analysis::RaceCheck& c : checks) {
    size_t accesses = 0;
    for (const auto& fp : c.report.footprints) accesses += fp.accesses.size();
    const std::string key = "xrace.static." + metric_key(c.name) + ".c" +
                            std::to_string(c.cores);
    analysis::add_race_stats(reg, key, c.report);
    if (c.report.clean()) {
      std::printf("  OK    %-40s cores=%d  (%zu accesses, %zu unprovable)\n",
                  c.name.c_str(), c.cores, accesses,
                  c.report.unprovable.size());
    } else {
      ++dirty;
      std::printf("  FAIL  %-40s cores=%d\n", c.name.c_str(), c.cores);
      std::cout << c.report.to_string();
    }
  }
  std::printf("%zu/%zu parallel deployments prove race-free\n",
              checks.size() - static_cast<size_t>(dirty), checks.size());
  reg.counter("xrace.static.configs", checks.size());
  reg.counter("xrace.static.dirty", static_cast<u64>(dirty));
  return dirty ? 1 : 0;
}

int run_shadow(int cores, obs::Registry& reg) {
  const qnn::ConvSpec spec = qnn::ConvSpec::small_layer(4);
  const auto v = kernels::ConvVariant::kXpulpNN_HwQ;

  // Static prediction for the exact programs the cluster will run.
  const auto ks = cluster::make_parallel_conv_kernels(spec, v, cores);
  std::vector<xasm::Program> programs;
  for (const auto& k : ks) programs.push_back(k.program);
  const analysis::RaceReport srep = analysis::analyze_races(programs);

  const auto data = kernels::ConvLayerData::random(spec, 0x5eed);
  analysis::ShadowMemory shadow;
  cluster::ClusterConfig cfg;
  cfg.num_cores = cores;
  const auto res = cluster::run_parallel_conv(
      data, v, cfg, [&shadow](cluster::Cluster& cl, const auto&) {
        analysis::attach_shadow(cl, shadow);
      });
  const bool output_ok = res.output.data() == data.golden().data();

  std::string why;
  const bool validated = analysis::validate_against_shadow(srep, shadow, &why);
  std::cout << "shadow run: conv/xpulpnn_hwq/4b cores=" << cores << "\n"
            << "  " << shadow.to_string()
            << "  static: " << srep.conflicts.size() << " conflicts, "
            << srep.unprovable.size() << " unprovable\n"
            << "  output vs golden: " << (output_ok ? "match" : "MISMATCH")
            << "\n  cross-validation: " << (validated ? "ok" : why) << "\n";

  analysis::add_race_stats(reg, "sim.race", srep);
  analysis::add_shadow_stats(reg, "sim.race.shadow", shadow);
  reg.flag("sim.race.shadow.validated", validated);
  reg.flag("sim.race.output_match", output_ok);
  return shadow.clean() && validated && output_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_static = false;
  bool do_shadow = false;
  bool kernels = false;
  int cores = 0;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--static") {
      do_static = true;
    } else if (arg == "--shadow") {
      do_shadow = true;
    } else if (arg == "--kernels") {
      kernels = true;
    } else if (arg == "--cores") {
      const char* v = next();
      if (!v) return usage();
      cores = std::atoi(v);
      if (cores < 1 || cores > 64) return usage();
    } else if (arg == "--json") {
      const char* v = next();
      if (!v) return usage();
      json_path = v;
    } else {
      return usage();
    }
  }
  if (!do_static && !do_shadow) return usage();
  if (do_static && !kernels) {
    // File-mode static analysis is not wired up; the sweep is the product.
    std::cerr << "xrace: --static requires --kernels\n";
    return usage();
  }

  obs::Registry reg;
  int rc = 0;
  try {
    if (do_static) {
      const std::vector<int> counts =
          cores ? std::vector<int>{cores} : std::vector<int>{1, 2, 4, 8};
      rc |= run_static(counts, reg);
    }
    if (do_shadow) rc |= run_shadow(cores ? cores : 4, reg);
  } catch (const SimError& e) {
    std::cerr << "xrace: " << e.what() << '\n';
    return 1;
  }
  if (!json_path.empty()) {
    if (json_path == "-") {
      std::cout << reg.json() << '\n';
    } else if (!reg.save_json(json_path)) {
      std::cerr << "xrace: cannot write " << json_path << '\n';
      return 2;
    }
  }
  return rc;
}
