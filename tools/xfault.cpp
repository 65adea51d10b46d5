// xfault: deterministic fault-injection and recovery campaigns over the
// generated QNN kernels (DESIGN.md §11).
//
// Runs a seeded campaign of single-fault trials against one conv layer:
// each trial snapshots the simulation periodically, injects one fault
// (TCDM bit flip, register bit flip, stall-model perturbation or ISA
// degradation) at a random instruction, detects the fault through the
// stacked detectors (trap, watchdog, PerfCounters invariant, output
// mismatch, final-memory scrub) and recovers by restore-and-retry or by
// graceful degradation to an XpulpV2 kernel variant. Prints a per-outcome
// summary and optionally the full metrics registry as JSON; exit status
// reflects the --min-detected / --min-recovered gates so CI can assert
// campaign quality directly.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ckpt/fault.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/registry.hpp"
#include "qnn/ref_layers.hpp"

namespace {

using namespace xpulp;
using kernels::ConvVariant;

struct Args {
  int inject = 100;        // trials
  u64 seed = 1;
  int retry = 2;           // restore-and-retry attempts per detected fault
  bool fallback_isa = true;
  u64 ckpt_every = 5000;   // instructions between checkpoints
  unsigned bits = 4;
  ConvVariant variant = ConvVariant::kXpulpNN_HwQ;
  std::vector<ckpt::FaultKind> kinds;  // empty = tcdm only
  unsigned persistent_chance = 64;     // x/256 stuck-at probability
  bool small = false;
  std::string json_path;
  double min_detected = -1.0;   // gate on detection_rate when >= 0
  double min_recovered = -1.0;  // gate on recovery_rate when >= 0
};

void usage() {
  std::puts(
      "usage: xfault [options]\n"
      "  --inject N         number of fault trials (default 100)\n"
      "  --seed S           campaign seed; same seed => same report\n"
      "  --retry N          restore-and-retry attempts per detected fault\n"
      "                     (default 2)\n"
      "  --no-fallback-isa  disable XpulpV2 fallback recovery for ISA\n"
      "                     degradation faults\n"
      "  --ckpt-every N     instructions between checkpoints (default 5000)\n"
      "  --bits N           layer width: 8, 4, 2 (default 4)\n"
      "  --variant V        8b | sub | subshf | swq | hwq (default hwq)\n"
      "  --kinds LIST       comma list of tcdm,reg,stall,isa (default tcdm)\n"
      "  --persistent N     stuck-at probability, N/256 (default 64)\n"
      "  --small            use a small 6x6x16->8 layer\n"
      "  --json FILE        write the metrics registry as JSON\n"
      "  --min-detected R   exit 1 unless detection rate >= R (0..1)\n"
      "  --min-recovered R  exit 1 unless recovery rate >= R (0..1)");
}

bool parse_kinds(const char* s, std::vector<ckpt::FaultKind>& kinds) {
  std::string item;
  for (const char* p = s;; ++p) {
    if (*p != ',' && *p != '\0') {
      item += *p;
      continue;
    }
    if (item == "tcdm") kinds.push_back(ckpt::FaultKind::kTcdmBitFlip);
    else if (item == "reg") kinds.push_back(ckpt::FaultKind::kRegisterBitFlip);
    else if (item == "stall") kinds.push_back(ckpt::FaultKind::kStallPerturb);
    else if (item == "isa") kinds.push_back(ckpt::FaultKind::kIsaDegrade);
    else return false;
    item.clear();
    if (*p == '\0') return !kinds.empty();
  }
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "xfault: %s needs a value\n", opt.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (opt == "--help" || opt == "-h") {
      usage();
      std::exit(0);
    } else if (opt == "--inject") {
      const char* v = need_value();
      if (!v) return false;
      a.inject = std::atoi(v);
    } else if (opt == "--seed") {
      const char* v = need_value();
      if (!v) return false;
      a.seed = std::strtoull(v, nullptr, 0);
    } else if (opt == "--retry") {
      const char* v = need_value();
      if (!v) return false;
      a.retry = std::atoi(v);
    } else if (opt == "--no-fallback-isa") {
      a.fallback_isa = false;
    } else if (opt == "--fallback-isa") {
      a.fallback_isa = true;  // the default; accepted for explicit scripts
    } else if (opt == "--ckpt-every") {
      const char* v = need_value();
      if (!v) return false;
      a.ckpt_every = std::strtoull(v, nullptr, 0);
    } else if (opt == "--bits") {
      const char* v = need_value();
      if (!v) return false;
      a.bits = static_cast<unsigned>(std::atoi(v));
    } else if (opt == "--variant") {
      const char* v = need_value();
      if (!v || !kernels::parse_variant(v, a.variant)) return false;
    } else if (opt == "--kinds") {
      const char* v = need_value();
      if (!v || !parse_kinds(v, a.kinds)) return false;
    } else if (opt == "--persistent") {
      const char* v = need_value();
      if (!v) return false;
      a.persistent_chance = static_cast<unsigned>(std::atoi(v));
    } else if (opt == "--small") {
      a.small = true;
    } else if (opt == "--json") {
      const char* v = need_value();
      if (!v) return false;
      a.json_path = v;
    } else if (opt == "--min-detected") {
      const char* v = need_value();
      if (!v) return false;
      a.min_detected = std::atof(v);
    } else if (opt == "--min-recovered") {
      const char* v = need_value();
      if (!v) return false;
      a.min_recovered = std::atof(v);
    } else {
      std::fprintf(stderr, "xfault: unknown option %s\n", opt.c_str());
      return false;
    }
  }
  return true;
}

void print_report(const ckpt::CampaignReport& rep) {
  std::printf("campaign: %d faults into a %llu-instruction run\n",
              rep.injected,
              static_cast<unsigned long long>(rep.reference_instructions));
  std::printf("  detected    %4d  (%.1f%% of effective faults)\n",
              rep.detected, 100.0 * rep.detection_rate());
  std::printf("  recovered   %4d  (%.1f%% of detected)\n", rep.recovered,
              100.0 * rep.recovery_rate());
  std::printf("  unrecovered %4d\n", rep.unrecovered);
  std::printf("  masked      %4d\n", rep.masked);
  std::printf("  undetected  %4d\n", rep.undetected);

  u64 by_detector[6] = {};
  for (const ckpt::FaultRecord& r : rep.records) {
    by_detector[static_cast<size_t>(r.detector)] += 1;
  }
  std::printf("first detector:");
  for (int d = 1; d < 6; ++d) {
    if (by_detector[d] == 0) continue;
    std::printf("  %s=%llu",
                ckpt::detector_name(static_cast<ckpt::Detector>(d)),
                static_cast<unsigned long long>(by_detector[d]));
  }
  std::printf("\nfingerprint: %016llx\n",
              static_cast<unsigned long long>(rep.fingerprint()));
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    usage();
    return 2;
  }

  ckpt::CampaignConfig cfg;
  cfg.seed = args.seed;
  cfg.num_faults = args.inject;
  cfg.max_retries = args.retry;
  cfg.ckpt_every = args.ckpt_every;
  cfg.fallback_isa = args.fallback_isa;
  cfg.persistent_chance = args.persistent_chance;
  if (!args.kinds.empty()) cfg.kinds = args.kinds;
  cfg.spec = args.small ? qnn::ConvSpec::small_layer(args.bits)
                        : qnn::ConvSpec::paper_layer(args.bits);
  cfg.variant = args.variant;

  try {
    const ckpt::CampaignReport rep = ckpt::run_campaign(cfg);
    print_report(rep);

    if (!args.json_path.empty()) {
      obs::Registry reg;
      reg.text("campaign.variant", kernels::variant_name(cfg.variant));
      reg.counter("campaign.seed", cfg.seed);
      reg.counter("campaign.bits", args.bits);
      rep.publish(reg, "campaign");
      if (!reg.save_json(args.json_path)) {
        std::fprintf(stderr, "xfault: cannot write %s\n",
                     args.json_path.c_str());
        return 2;
      }
    }

    int rc = 0;
    if (args.min_detected >= 0.0 && rep.detection_rate() < args.min_detected) {
      std::fprintf(stderr, "xfault: detection rate %.3f below gate %.3f\n",
                   rep.detection_rate(), args.min_detected);
      rc = 1;
    }
    if (args.min_recovered >= 0.0 && rep.recovery_rate() < args.min_recovered) {
      std::fprintf(stderr, "xfault: recovery rate %.3f below gate %.3f\n",
                   rep.recovery_rate(), args.min_recovered);
      rc = 1;
    }
    return rc;
  } catch (const SimError& e) {
    std::fprintf(stderr, "xfault: %s\n", e.what());
    return 2;
  }
}
