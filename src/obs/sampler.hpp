// Time-series counter sampler (xtel, DESIGN.md §14). Attaches to a
// Core's sampling hook (Core::set_sampler), which fires at the first
// instruction boundary at or past each multiple of the sample interval —
// on every dispatch path (reference, fast, superblock), with identical
// boundaries and identical counter state, so the sampled series is a
// dispatch-mode-independent artifact of the workload.
//
// Each firing snapshots PerfCounters / MemStats / DotpActivity /
// SuperblockStats and stores the *window delta* since the previous
// boundary in a fixed-capacity ring (oldest windows drop first). When a
// Timeline is attached, derived metrics (IPC, stall fraction, MACs/cycle,
// fused fraction, core/SoC mW from the power model) stream out as
// Perfetto counter tracks at fire time, named "<prefix>/<metric>" so
// per-core tracks in cluster runs stay separate.
//
// A core with no sampler attached pays nothing: the detached run loops
// are compiled without the deadline compare (see Core::set_sampler docs;
// guarded by bench_host's sampler section).
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "mem/memory.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "power/power_model.hpp"
#include "sim/core.hpp"

namespace xpulp::obs {

/// One sampled window: raw counter deltas between two consecutive sample
/// boundaries. `ts_cycles` is the cycle count at the window's *end*
/// boundary (the first instruction boundary at or past a multiple of the
/// interval — the last window of a run may also end off-grid at halt).
struct Sample {
  u64 ts_cycles = 0;
  sim::PerfCounters perf;
  mem::MemStats mem;
  sim::DotpActivity dotp;
  sim::SuperblockStats sb;
};

/// Metrics derived from one window, matching the streamed counter tracks.
struct SampleMetrics {
  double ipc = 0;
  double stall_frac = 0;       // all stall causes / window cycles
  double macs_per_cycle = 0;   // SIMD lanes * dotp ops + scalar MACs
  double fused_frac = 0;       // superblock-fused instruction fraction
  double core_mw = 0;
  double soc_mw = 0;
};

class Sampler {
 public:
  struct Options {
    /// Sample boundary spacing in cycles (the due-threshold contract:
    /// a sample fires at the first instruction boundary where the cycle
    /// counter reached the next multiple of this).
    cycles_t interval_cycles = 4096;
    /// Retained-window ring capacity; oldest windows drop first.
    size_t capacity = 1u << 16;
    /// Optional counter-track sink (streamed at fire time, so dropped
    /// ring windows still appear in the trace up to its own capacity).
    Timeline* timeline = nullptr;
    u8 track = 0;
    /// Counter-track name prefix, e.g. "core0" -> "core0/ipc".
    std::string track_prefix = "core0";
    /// Capture MemStats deltas from this source; defaults to the core's
    /// own memory. Cluster callers pass the shared TCDM's stats.
    const mem::MemStats* mem_stats = nullptr;
    /// Operating point for the streamed mW tracks.
    power::OperatingPoint op{};
  };

  /// Attaches to `core`'s sampling hook (displacing any other sampler —
  /// one owner at a time). Attach at an instruction boundary, outside
  /// run().
  Sampler(sim::Core& core, const Options& opts);
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Capture the trailing partial window (if any cycles elapsed past the
  /// last boundary) and detach from the core. Idempotent; the sample
  /// series is stable afterwards and the views below no longer touch the
  /// core, so the sampler may outlive it.
  void finalize();

  /// Retained windows, oldest first.
  std::vector<Sample> samples() const;
  u64 recorded() const { return recorded_; }
  u64 dropped() const {
    return recorded_ <= capacity_ ? 0 : recorded_ - capacity_;
  }
  cycles_t interval() const { return opts_.interval_cycles; }

  /// Derived metrics of one window under `cfg` / `op` — the same numbers
  /// the counter tracks stream.
  static SampleMetrics derive(const Sample& s, const sim::CoreConfig& cfg,
                              const power::OperatingPoint& op = {});

  /// One row per retained window: ts plus the derived metrics and the
  /// headline raw counters.
  void write_csv(std::ostream& os) const;

  /// Publish series summary (window count, drops, interval, totals over
  /// the retained windows) under `prefix`.
  void add_to_registry(Registry& r, std::string_view prefix) const;

 private:
  void fire();
  Sample capture(u64 ts);
  void push(const Sample& s);
  void stream(const Sample& s);

  sim::Core& core_;
  sim::CoreConfig cfg_;  // the core's config at attach, then at finalize()
  Options opts_;
  size_t capacity_;
  const mem::MemStats* mem_src_;

  std::vector<Sample> ring_;
  size_t head_ = 0;
  u64 recorded_ = 0;

  // Previous-boundary totals the next window diffs against.
  sim::PerfCounters last_perf_;
  mem::MemStats last_mem_;
  sim::DotpActivity last_dotp_;
  sim::SuperblockStats last_sb_;

  bool attached_ = false;
  bool finalized_ = false;

  // Interned counter-track names (valid when opts_.timeline != nullptr).
  u16 name_ipc_ = 0;
  u16 name_stall_ = 0;
  u16 name_macs_ = 0;
  u16 name_fused_ = 0;
  u16 name_core_mw_ = 0;
  u16 name_soc_mw_ = 0;
};

}  // namespace xpulp::obs
