#include "ckpt/fault.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <string>

#include "common/rng.hpp"

namespace xpulp::ckpt {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kTcdmBitFlip: return "tcdm_bit_flip";
    case FaultKind::kRegisterBitFlip: return "register_bit_flip";
    case FaultKind::kStallPerturb: return "stall_perturb";
    case FaultKind::kIsaDegrade: return "isa_degrade";
  }
  return "?";
}

const char* detector_name(Detector d) {
  switch (d) {
    case Detector::kNone: return "none";
    case Detector::kTrap: return "trap";
    case Detector::kWatchdog: return "watchdog";
    case Detector::kPerfInvariant: return "perf_invariant";
    case Detector::kOutputMismatch: return "output_mismatch";
    case Detector::kMemScrub: return "mem_scrub";
  }
  return "?";
}

const char* outcome_name(FaultOutcome o) {
  switch (o) {
    case FaultOutcome::kMasked: return "masked";
    case FaultOutcome::kDetectedRecovered: return "detected_recovered";
    case FaultOutcome::kDetectedUnrecovered: return "detected_unrecovered";
    case FaultOutcome::kUndetected: return "undetected";
  }
  return "?";
}

namespace {

/// The campaign workload, generated once per campaign.
struct Workload {
  kernels::ConvLayerData data;
  kernels::ConvKernel kernel;
  qnn::Tensor golden;
  addr_t code_lo = 0, code_hi = 0;  // program image
  addr_t data_lo = 0, data_hi = 0;  // persistent tensors [input, buf0)
};

/// The fault-free run's observable end state — every trial is judged
/// against it.
struct ReferenceRun {
  u64 instructions = 0;
  std::vector<u8> final_image;
  std::vector<u8> output_bytes;
};

void load_workload(const Workload& wl, mem::Memory& mem) {
  wl.kernel.program.load(mem);
  kernels::load_conv_data(wl.data, wl.kernel.layout, mem);
}

void reset_core(const Workload& wl, sim::Core& core) {
  core.reset(wl.kernel.program.entry(),
             wl.kernel.program.base() + wl.kernel.program.size_bytes());
}

Workload make_workload(const CampaignConfig& cfg) {
  kernels::ConvLayerData data = kernels::ConvLayerData::random(cfg.spec, cfg.seed);
  kernels::ConvKernel kernel = kernels::generate_conv_kernel(cfg.spec, cfg.variant);
  qnn::Tensor golden = data.golden();
  Workload wl{std::move(data), std::move(kernel), std::move(golden)};
  wl.code_lo = wl.kernel.program.base();
  wl.code_hi = wl.code_lo + wl.kernel.program.size_bytes();
  wl.data_lo = wl.kernel.layout.input;
  wl.data_hi = wl.kernel.layout.buf0;
  return wl;
}

/// The fault-free run, through the layer pipeline (which checks the
/// halt); after_run captures the final image while the core is alive.
ReferenceRun make_reference(const Workload& wl, const CampaignConfig& cfg) {
  ReferenceRun ref;
  const kernels::ConvRunResult res = kernels::run_conv_layer(
      wl.data, cfg.variant, cfg.core, {}, {},
      [&ref](sim::Core& core, const kernels::ConvKernel&) {
        ref.final_image.resize(core.memory().size());
        core.memory().read_block(0, ref.final_image);
      });
  // The campaign's ground truth must itself be correct.
  if (res.output != wl.golden) {
    throw CkptError("reference run output disagrees with golden model");
  }
  ref.instructions = res.perf.instructions;
  const auto out = ref.final_image.begin() + wl.kernel.layout.output;
  ref.output_bytes.assign(out, out + wl.kernel.layout.output_bytes);
  return ref;
}

void flip_tcdm_bit(mem::Memory& mem, addr_t addr, unsigned bit) {
  std::array<u8, 1> b{};
  mem.read_block(addr, b);
  b[0] ^= static_cast<u8>(1u << bit);
  mem.write_block(addr, b);
}

/// Apply the fault to a core paused at an instruction boundary.
void inject(const FaultSpec& fs, sim::Core& core, mem::Memory& mem) {
  switch (fs.kind) {
    case FaultKind::kTcdmBitFlip:
      flip_tcdm_bit(mem, fs.addr, fs.bit);
      // The flip may hit code the core has already predecoded.
      core.invalidate_decode_cache();
      break;
    case FaultKind::kRegisterBitFlip:
      core.set_reg(fs.reg, core.reg(fs.reg) ^ (1u << fs.reg_bit));
      break;
    case FaultKind::kStallPerturb: {
      sim::CoreState s = core.save_state();
      const u64 mag = static_cast<u64>(fs.cycle_delta < 0 ? -fs.cycle_delta
                                                          : fs.cycle_delta);
      if (fs.cycle_delta < 0 && s.perf.cycles < mag) {
        s.perf.cycles += mag;  // keep the counter in range, still perturbed
      } else {
        s.perf.cycles = static_cast<cycles_t>(
            static_cast<i64>(s.perf.cycles) + fs.cycle_delta);
      }
      core.restore_state(s);
      break;
    }
    case FaultKind::kIsaDegrade:
      // Sub-byte SIMD and pv.qnt disappear; XpulpV2 survives.
      core.set_isa_features(/*xpulpv2=*/true, /*xpulpnn=*/false,
                            /*hwloops=*/true);
      break;
  }
}

/// Run the core to completion (or the watchdog budget), checkpointing
/// every `ckpt_every` instructions while still before the injection point.
/// `fault` == nullptr runs plain (retry attempts). The core advances with
/// run_steps, which pauses on exact instruction indices with the
/// superblock engine active, so trials fuse hot loops like any other run.
/// Returns the detector that fired during execution, or kNone if the run
/// ended in a clean ecall.
Detector execute(sim::Core& core, mem::Memory& mem, u64 budget,
                 const FaultSpec* fault, u64 ckpt_every,
                 Snapshot* pre_fault_ckpt) {
  try {
    while (!core.halted()) {
      const u64 n = core.perf().instructions;
      if (fault != nullptr) {
        if (n == fault->at_instruction) {
          inject(*fault, core, mem);
          fault = nullptr;  // single-shot
        } else if (ckpt_every != 0 && n % ckpt_every == 0 &&
                   pre_fault_ckpt != nullptr) {
          // Only pre-injection states are valid recovery points.
          *pre_fault_ckpt = capture(core, mem);
        }
      }
      if (n >= budget) return Detector::kWatchdog;
      // Pause at the next index the checks above act on.
      u64 next_stop = budget;
      if (fault != nullptr) {
        if (fault->at_instruction > n) {
          next_stop = std::min(next_stop, fault->at_instruction);
        }
        if (ckpt_every != 0 && pre_fault_ckpt != nullptr) {
          next_stop = std::min(next_stop, (n / ckpt_every + 1) * ckpt_every);
        }
      }
      core.run_steps(next_stop - n);
    }
  } catch (const SimError&) {
    // Guest trap: memory fault, illegal instruction, …
    return Detector::kTrap;
  }
  if (core.halt_reason() != sim::HaltReason::kEcall) {
    return Detector::kWatchdog;
  }
  return Detector::kNone;
}

/// Post-completion checks, in severity order. The memory scrub compares
/// the whole final TCDM image against the fault-free run's image, so any
/// surviving bit flip — even one that never influenced the output — is
/// caught.
Detector check_end_state(const sim::Core& core, const mem::Memory& mem,
                         const Workload& wl, const ReferenceRun& ref) {
  if (!sim::perf_invariant_violation(core.perf()).empty()) {
    return Detector::kPerfInvariant;
  }
  std::vector<u8> out(wl.kernel.layout.output_bytes);
  mem.read_block(wl.kernel.layout.output, out);
  if (out != ref.output_bytes) return Detector::kOutputMismatch;
  std::vector<u8> image(mem.size());
  mem.read_block(0, image);
  if (image != ref.final_image) return Detector::kMemScrub;
  return Detector::kNone;
}

/// IsaDegrade recovery: the hardware stays degraded, so rerunning the
/// XpulpNN kernel is futile. Regenerate the layer with a variant the
/// degraded ISA still supports and check it against the golden model.
bool run_fallback(const Workload& wl, const CampaignConfig& cfg) {
  sim::CoreConfig degraded = cfg.core;
  degraded.xpulpnn = false;
  const kernels::ConvVariant fallback =
      cfg.spec.out_bits == 8 ? kernels::ConvVariant::kXpulpV2_8b
                             : kernels::ConvVariant::kXpulpV2_Sub;
  try {
    const kernels::ConvRunResult res =
        kernels::run_conv_layer(wl.data, fallback, degraded);
    return res.output == wl.golden;
  } catch (const SimError&) {
    return false;
  }
}

/// One trial on a freshly loaded `core`: inject, detect, recover. Every
/// detected record's note names the detector that fired first (with the
/// first wrong output element when that was the output check), the
/// retries used and whether the fallback kernel ran.
FaultRecord run_trial(sim::Core& core, mem::Memory& mem, const Workload& wl,
                      const ReferenceRun& ref, const CampaignConfig& cfg,
                      const FaultSpec& fs) {
  FaultRecord rec;
  rec.spec = fs;
  const u64 budget = 4 * ref.instructions + 10'000;

  // Recovery point: the freshly loaded state, refined by periodic
  // checkpoints up to the injection point during the first attempt.
  Snapshot ckpt = capture(core, mem);

  Detector det = execute(core, mem, budget, &fs, cfg.ckpt_every, &ckpt);
  if (det == Detector::kNone) det = check_end_state(core, mem, wl, ref);
  if (det == Detector::kNone) {
    rec.outcome = FaultOutcome::kMasked;
    return rec;
  }
  rec.detector = det;
  rec.note = std::string("detector ") + detector_name(det);
  if (det == Detector::kOutputMismatch) {
    const std::optional<qnn::Mismatch> m = qnn::first_mismatch(
        kernels::read_conv_output(wl.data.spec, wl.kernel.layout, mem),
        wl.golden);
    if (m) rec.note += ": " + m->to_string();
  }
  const auto finish = [&rec](FaultOutcome outcome) {
    rec.outcome = outcome;
    rec.note += "; retries " + std::to_string(rec.retries_used) +
                (rec.used_fallback ? "; fallback kernel ran" : "");
    return rec;
  };

  if (fs.kind == FaultKind::kIsaDegrade) {
    // Restoring a checkpoint cannot undo a hardware degradation; retries
    // would trap on the same missing instructions. Graceful degradation
    // instead: fall back to an XpulpV2 kernel variant, if allowed.
    if (cfg.fallback_isa && run_fallback(wl, cfg)) {
      rec.used_fallback = true;
      return finish(FaultOutcome::kDetectedRecovered);
    }
    return finish(FaultOutcome::kDetectedUnrecovered);
  }

  for (int attempt = 1; attempt <= cfg.max_retries; ++attempt) {
    rec.retries_used = attempt;
    apply(ckpt, core, mem);
    if (fs.kind == FaultKind::kTcdmBitFlip && fs.persistent) {
      // Stuck-at cell: the restore rewrote the byte, the defect reasserts.
      flip_tcdm_bit(mem, fs.addr, fs.bit);
      core.invalidate_decode_cache();
    }
    det = execute(core, mem, budget, nullptr, 0, nullptr);
    if (det == Detector::kNone) det = check_end_state(core, mem, wl, ref);
    if (det == Detector::kNone) return finish(FaultOutcome::kDetectedRecovered);
  }
  return finish(FaultOutcome::kDetectedUnrecovered);
}

/// Derive trial `i`'s fault from the campaign seed. Every random draw
/// happens unconditionally in a fixed order so the sequence of specs is a
/// pure function of (seed, i) regardless of kind mix.
FaultSpec make_fault(const CampaignConfig& cfg, const Workload& wl,
                     const ReferenceRun& ref, int i) {
  Rng rng(cfg.seed ^ (0x9e3779b97f4a7c15ull * static_cast<u64>(i + 1)));
  FaultSpec fs;
  fs.kind = cfg.kinds[rng.next_u64() % cfg.kinds.size()];
  // Not the very first or last instruction: the fault lands strictly
  // inside the run so checkpoints and detection both have room.
  fs.at_instruction = 1 + rng.next_u64() % (ref.instructions - 2);

  // TCDM target: a persistent region, weighted by size (code image or the
  // packed tensors). Flips there survive to the final-image scrub.
  const u64 code_len = wl.code_hi - wl.code_lo;
  const u64 data_len = wl.data_hi - wl.data_lo;
  const u64 off = rng.next_u64() % (code_len + data_len);
  fs.addr = off < code_len ? wl.code_lo + static_cast<addr_t>(off)
                           : wl.data_lo + static_cast<addr_t>(off - code_len);
  fs.bit = static_cast<unsigned>(rng.next_u64() % 8);
  fs.persistent = (rng.next_u64() & 0xff) < cfg.persistent_chance;

  fs.reg = 1 + static_cast<unsigned>(rng.next_u64() % 31);
  fs.reg_bit = static_cast<unsigned>(rng.next_u64() % 32);

  const i64 mag = 1 + static_cast<i64>(rng.next_u64() % 1000);
  fs.cycle_delta = (rng.next_u64() & 1) ? mag : -mag;
  return fs;
}

}  // namespace

u64 CampaignReport::fingerprint() const {
  // FNV-1a over the discriminating fields of every record, in order.
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const FaultRecord& r : records) {
    mix(static_cast<u64>(r.spec.kind));
    mix(r.spec.at_instruction);
    mix(r.spec.addr);
    mix(r.spec.bit);
    mix(r.spec.persistent ? 1 : 0);
    mix(r.spec.reg);
    mix(r.spec.reg_bit);
    mix(static_cast<u64>(r.spec.cycle_delta));
    mix(static_cast<u64>(r.outcome));
    mix(static_cast<u64>(r.detector));
    mix(static_cast<u64>(r.retries_used));
    mix(r.used_fallback ? 1 : 0);
  }
  return h;
}

void CampaignReport::publish(obs::Registry& reg, std::string_view prefix) const {
  const std::string p(prefix);
  reg.counter(p + ".injected", static_cast<u64>(injected));
  reg.counter(p + ".masked", static_cast<u64>(masked));
  reg.counter(p + ".detected", static_cast<u64>(detected));
  reg.counter(p + ".recovered", static_cast<u64>(recovered));
  reg.counter(p + ".unrecovered", static_cast<u64>(unrecovered));
  reg.counter(p + ".undetected", static_cast<u64>(undetected));
  reg.gauge(p + ".detection_rate", detection_rate());
  reg.gauge(p + ".recovery_rate", recovery_rate());
  reg.counter(p + ".reference_instructions", reference_instructions);
  reg.counter(p + ".fused_instructions", fused_instructions);

  u64 by_detector[6] = {};
  u64 by_kind[4] = {};
  u64 fallbacks = 0;
  for (const FaultRecord& r : records) {
    by_detector[static_cast<size_t>(r.detector)] += 1;
    by_kind[static_cast<size_t>(r.spec.kind)] += 1;
    if (r.used_fallback) fallbacks += 1;
  }
  for (int d = 1; d < 6; ++d) {
    reg.counter(p + ".detector." + detector_name(static_cast<Detector>(d)),
                by_detector[d]);
  }
  for (int k = 0; k < 4; ++k) {
    reg.counter(p + ".kind." + fault_kind_name(static_cast<FaultKind>(k)),
                by_kind[static_cast<size_t>(k)]);
  }
  reg.counter(p + ".fallback_recoveries", fallbacks);
  reg.counter(p + ".fingerprint", fingerprint());
}

CampaignReport run_campaign(const CampaignConfig& cfg) {
  if (cfg.kinds.empty()) throw CkptError("campaign needs at least one kind");
  if (cfg.num_faults < 0) throw CkptError("negative fault count");
  if (!kernels::variant_supported(cfg.variant, cfg.core)) {
    throw CkptError("campaign variant unsupported by core config");
  }

  const Workload wl = make_workload(cfg);
  const ReferenceRun ref = make_reference(wl, cfg);
  if (ref.instructions < 3) throw CkptError("workload too short to inject");

  CampaignReport rep;
  rep.reference_instructions = ref.instructions;
  rep.records.reserve(static_cast<size_t>(cfg.num_faults));

  for (int i = 0; i < cfg.num_faults; ++i) {
    const FaultSpec fs = make_fault(cfg, wl, ref, i);
    mem::Memory mem;
    sim::Core core(mem, cfg.core);
    load_workload(wl, mem);
    reset_core(wl, core);
    rep.records.push_back(run_trial(core, mem, wl, ref, cfg, fs));
    rep.fused_instructions += core.superblock_stats().fused_instructions;
    const FaultRecord& r = rep.records.back();
    rep.injected += 1;
    switch (r.outcome) {
      case FaultOutcome::kMasked: rep.masked += 1; break;
      case FaultOutcome::kDetectedRecovered:
        rep.detected += 1;
        rep.recovered += 1;
        break;
      case FaultOutcome::kDetectedUnrecovered:
        rep.detected += 1;
        rep.unrecovered += 1;
        break;
      case FaultOutcome::kUndetected: rep.undetected += 1; break;
    }
  }
  return rep;
}

}  // namespace xpulp::ckpt
