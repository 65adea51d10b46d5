// Deterministic fault-injection campaigns over the conv kernels, built on
// the snapshot/restore machinery (DESIGN.md §11).
//
// A campaign runs N seeded trials of one conv layer. Each trial injects a
// single fault at a random instruction index:
//
//   TcdmBitFlip     flip one bit of a *persistent* TCDM region (code,
//                   input, weights or thresholds — regions the kernel
//                   never rewrites, so an unrecovered flip is always
//                   visible in the final image). Transient flips model
//                   SEUs; persistent ones model stuck-at cells that
//                   reassert after every restore.
//   RegisterBitFlip flip one bit of one architectural register. May be
//                   masked (dead register) — counted as kNoEffect.
//   StallPerturb    perturb the cycle counter, modeling a stall-model
//                   glitch. Caught by perf_invariant_violation().
//   IsaDegrade      drop the core's ISA to XpulpV2 mid-run, modeling a
//                   partial functional-unit failure. The degradation
//                   survives restores; recovery requires falling back to
//                   an XpulpV2 kernel variant.
//
// Detection stacks five independent checks, reported as the *first* one
// that fired: guest trap, watchdog (instruction budget), PerfCounters
// invariant, output-vs-reference mismatch, and a final full-memory scrub
// against the fault-free run's final image. The scrub guarantees 100%
// detection for TCDM flips in persistent regions: either the run diverged
// observably or the flipped bit is still there.
//
// Recovery restores the last checkpoint taken *before* the injection
// point and re-runs. Transient faults are not re-applied and the retry
// reconverges to the reference image (verified, not assumed). Persistent
// faults reassert and exhaust the retry budget. IsaDegrade recovers by
// regenerating the layer with a degraded-ISA-compatible variant
// (graceful degradation), when the policy allows it.
//
// Everything is derived from CampaignConfig::seed through splitmix64 —
// identical configs produce identical reports (fingerprint()), which the
// CI smoke campaign and the determinism tests rely on.
#pragma once

#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/registry.hpp"
#include "qnn/ref_layers.hpp"
#include "sim/core.hpp"

namespace xpulp::ckpt {

enum class FaultKind {
  kTcdmBitFlip,
  kRegisterBitFlip,
  kStallPerturb,
  kIsaDegrade,
};
const char* fault_kind_name(FaultKind k);

enum class Detector {
  kNone,
  kTrap,            // guest fault (memory fault, illegal instruction)
  kWatchdog,        // instruction budget exceeded / abnormal halt
  kPerfInvariant,   // perf_invariant_violation() non-empty
  kOutputMismatch,  // packed output differs from the fault-free run
  kMemScrub,        // final TCDM image differs from the fault-free run
};
const char* detector_name(Detector d);

enum class FaultOutcome {
  /// Fault injected but the run finished bit-identical to the fault-free
  /// run (architecturally masked). Possible for register flips only.
  kMasked,
  kDetectedRecovered,
  kDetectedUnrecovered,
  /// Output wrong yet nothing fired — an escape. The smoke campaign
  /// asserts this never happens.
  kUndetected,
};
const char* outcome_name(FaultOutcome o);

/// One concrete fault, fully determined by the campaign seed.
struct FaultSpec {
  FaultKind kind = FaultKind::kTcdmBitFlip;
  /// Inject immediately before the instruction with this retire index.
  u64 at_instruction = 0;

  // kTcdmBitFlip
  addr_t addr = 0;
  unsigned bit = 0;  // 0..7 within the byte
  /// Stuck-at cell: the flip reasserts after every restore.
  bool persistent = false;

  // kRegisterBitFlip
  unsigned reg = 0;      // 1..31 (x0 is hardwired)
  unsigned reg_bit = 0;  // 0..31

  // kStallPerturb
  i64 cycle_delta = 0;
};

struct CampaignConfig {
  u64 seed = 1;
  int num_faults = 100;
  /// Restore-and-retry attempts per detected fault.
  int max_retries = 2;
  /// Instructions between checkpoints (the last checkpoint at or before
  /// the injection point is the recovery point).
  u64 ckpt_every = 5000;
  /// Allow IsaDegrade recovery via an XpulpV2 fallback kernel.
  bool fallback_isa = true;
  /// Probability (x/256) that a TCDM flip is persistent (stuck-at).
  unsigned persistent_chance = 64;
  std::vector<FaultKind> kinds = {FaultKind::kTcdmBitFlip};

  // Workload: one conv layer, run to completion each trial.
  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(4);
  kernels::ConvVariant variant = kernels::ConvVariant::kXpulpNN_HwQ;
  sim::CoreConfig core = sim::CoreConfig::extended();
};

struct FaultRecord {
  FaultSpec spec;
  FaultOutcome outcome = FaultOutcome::kMasked;
  Detector detector = Detector::kNone;
  int retries_used = 0;
  bool used_fallback = false;
  /// Detected faults only: "detector <name>[: <first wrong output
  /// element>]; retries <n>[; fallback kernel ran]". Not fingerprinted.
  std::string note;
};

struct CampaignReport {
  std::vector<FaultRecord> records;

  // Aggregates (filled by run_campaign).
  int injected = 0;
  int masked = 0;
  int detected = 0;
  int recovered = 0;
  int unrecovered = 0;
  int undetected = 0;

  /// Instructions the fault-free reference run retires.
  u64 reference_instructions = 0;
  /// Instructions the trials retired inside fused superblock bursts,
  /// retries included (0 with CoreConfig::superblock off).
  u64 fused_instructions = 0;

  double detection_rate() const {
    const int effective = injected - masked;
    return effective ? static_cast<double>(detected) / effective : 1.0;
  }
  double recovery_rate() const {
    return detected ? static_cast<double>(recovered) / detected : 1.0;
  }

  /// Order-sensitive hash of every record (kind, site, outcome, detector,
  /// retries). Two runs of the same config must produce equal
  /// fingerprints — the determinism gate in tests and CI.
  u64 fingerprint() const;

  /// Publish aggregates plus per-detector counts under `prefix`.
  void publish(obs::Registry& reg, std::string_view prefix) const;
};

/// Run a full campaign. Deterministic: no wall-clock, no global state.
CampaignReport run_campaign(const CampaignConfig& cfg);

}  // namespace xpulp::ckpt
