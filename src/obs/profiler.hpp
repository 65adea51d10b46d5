// Region attribution engine. Attaches to a Core's trace hook (the hook
// fires at the *start* of each instruction, before its stalls are
// charged) and answers two questions from one pass: where did the cycles
// and stalls go (per pc, mnemonic, ExecClass and RegionMap region), and
// where did the picojoules go (per region, priced by the power model).
// Works identically on the predecoded fast path and the legacy reference
// interpreter: both fire the same hook, and a core with no hook attached
// pays nothing (the templated trace-free loop never tests for a profiler).
//
// Per instruction, the hook snapshots the cycle and stall counters and
// settles the previous instruction's delta into the pc / mnemonic / class
// histograms. Per region, the engine keeps one cell of full counters
// (PerfCounters, DotpActivity, MemStats), settled only at region
// transitions: a cell gains diff(snapshot at the first hook of the next
// region, snapshot at the first hook of this one). Per-instruction deltas
// over a contiguous run of one region telescope to that difference, so
// the cells partition the run exactly. The cycle tables and the energy
// tables (priced with power::estimate_energy at the default
// OperatingPoint) are views over these cells; see DESIGN.md §10.
//
// Attach to a freshly reset core and call finalize() (or destroy the
// profiler) after the run: total().cycles then equals the core's
// PerfCounters.cycles, and the per-region cycle totals partition it.
// Energy views are meaningful for single-core runs only: a cluster core's
// MemStats are the shared TCDM's, so its cells would include the other
// cores' accesses.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "isa/instruction.hpp"
#include "mem/memory.hpp"
#include "obs/region.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "power/power_model.hpp"
#include "sim/core.hpp"

namespace xpulp::obs {

/// Per-site stall attribution, one field per PerfCounters stall cause.
struct StallBreakdown {
  u64 branch = 0;
  u64 load_use = 0;
  u64 mem = 0;
  u64 mul_div = 0;
  u64 qnt = 0;

  u64 total() const { return branch + load_use + mem + mul_div + qnt; }
  StallBreakdown& operator+=(const StallBreakdown& o) {
    branch += o.branch;
    load_use += o.load_use;
    mem += o.mem;
    mul_div += o.mul_div;
    qnt += o.qnt;
    return *this;
  }
};

/// Accumulated cost of one attribution site (a pc, a mnemonic, a class or
/// a region). stalls.total() <= cycles; cycles - stalls = active cycles.
/// `instructions` counts trace-hook firings, so an instruction that traps
/// counts here although it never retires into PerfCounters.instructions.
struct SiteStat {
  u64 instructions = 0;
  u64 cycles = 0;
  StallBreakdown stalls;
};

struct RegionStat {
  std::string name;
  SiteStat stat;
};

struct PcStat {
  addr_t pc = 0;
  SiteStat stat;
};

/// The integer activity counters charged to one region (or the run).
struct CounterCell {
  sim::PerfCounters perf;
  sim::DotpActivity dotp;
  mem::MemStats mem;
};

/// A counter cell plus the energy its counters cost under the power model.
struct EnergyCell : CounterCell {
  power::EnergyBreakdown energy;
};

struct RegionEnergy {
  std::string name;
  EnergyCell cell;
};

class Profiler {
 public:
  struct Options {
    /// Optional timeline sink: region begin/end slices, stall instants and
    /// coalesced instruction blocks are recorded on `track`.
    Timeline* timeline = nullptr;
    u8 track = 0;
    /// Keep the per-PC histogram (off saves memory on huge images).
    bool track_pc = true;
    /// Coalesce this many instructions per timeline block slice.
    u32 block_instructions = 64;
  };

  /// Attaches to `core`'s trace hook (displacing any other hook — one
  /// owner at a time). `regions` maps pcs to named regions; unmatched pcs
  /// fall into the trailing "other" bucket.
  Profiler(sim::Core& core, const RegionMap& regions, const Options& opts);
  Profiler(sim::Core& core, const RegionMap& regions)
      : Profiler(core, regions, Options{}) {}
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Settle the still-pending instruction and the open region cell against
  /// the final counter state, close open timeline slices and detach from
  /// the core. Idempotent; the views below are complete afterwards and no
  /// longer touch the core, so the profiler may outlive it.
  void finalize();

  // ---- Cycle views --------------------------------------------------------

  /// The whole observed run: the counter delta from the first hook to
  /// finalize(), with the hook count as `instructions`.
  SiteStat total() const;

  /// Per-region totals in RegionMap order plus a final "other" bucket.
  /// The cycle fields partition total().cycles exactly.
  std::vector<RegionStat> region_stats() const;
  /// Cycles attributed to the regions named `name` (0 when none).
  u64 region_cycles(std::string_view name) const;

  const std::array<SiteStat, static_cast<size_t>(isa::Mnemonic::kCount)>&
  by_mnemonic() const {
    return by_mnemonic_;
  }
  const std::array<SiteStat, static_cast<size_t>(isa::ExecClass::kCount)>&
  by_class() const {
    return by_class_;
  }

  /// Hottest pcs by attributed cycles, descending; empty if track_pc off.
  std::vector<PcStat> hotspots(size_t top_n) const;

  /// Collapsed flamegraph stacks ("root;region;mnemonic cycles" lines),
  /// consumable by flamegraph.pl / speedscope / inferno.
  std::string collapsed_stacks(std::string_view root) const;

  /// Publish totals + per-region stats under `prefix`.
  void add_to_registry(Registry& r, std::string_view prefix) const;

  // ---- Energy views (energy.cpp) ------------------------------------------

  /// Counter deltas of the whole observed run plus their energy.
  EnergyCell energy_total() const;

  /// Per-region cells in RegionMap order plus a final "other" bucket.
  /// Every integer counter field partitions energy_total() exactly.
  std::vector<RegionEnergy> region_energies() const;

  /// Check the three-layer energy reconciliation invariant (obs/energy.hpp).
  /// Returns an empty string when it holds, else a diagnostic naming the
  /// first violated field. Call after finalize().
  std::string reconciliation_violation() const;

  /// Collapsed flamegraph stacks ("root;region;component picojoules"
  /// lines, energy rounded to integer pJ).
  std::string energy_stacks(std::string_view root) const;

  /// Publish total + per-region energies (pJ) and headline counters under
  /// `prefix`.
  void add_energy_to_registry(Registry& r, std::string_view prefix) const;

 private:
  /// Cycle and stall counters: the per-instruction hot-path snapshot.
  struct Snapshot {
    u64 cycles = 0;
    u64 branch = 0;
    u64 load_use = 0;
    u64 mem = 0;
    u64 mul_div = 0;
    u64 qnt = 0;
  };

  Snapshot snap() const;
  CounterCell counters() const;
  bool on_instr(addr_t pc, const isa::Instr& in);
  void settle(const Snapshot& now);
  /// Settle the open segment into its region's cell and open a segment
  /// for `region` (-1: none, from finalize()).
  void enter_region(int region);
  int region_of(addr_t pc) const {
    const size_t parcel = pc >> 1;
    if (parcel < region_index_.size() && region_index_[parcel] >= 0) {
      return region_index_[parcel];
    }
    return n_regions_;  // "other"
  }
  EnergyCell priced(const CounterCell& c) const;
  void flush_block(u64 end_ts);

  sim::Core& core_;
  sim::CoreConfig cfg_;  // the core's configuration at finalize(), for pricing
  std::vector<int> region_index_;
  int n_regions_;
  std::vector<std::string> region_names_;  // includes "other"

  bool attached_ = false;
  bool finalized_ = false;

  Snapshot last_{};
  bool pending_valid_ = false;
  addr_t pending_pc_ = 0;
  isa::Mnemonic pending_op_ = isa::Mnemonic::kInvalid;
  isa::ExecClass pending_cls_ = isa::ExecClass::kIllegal;
  int pending_region_ = 0;

  /// Region of the open segment; -1 until the first hook fires.
  int cur_region_ = -1;
  CounterCell run_start_;  // counters at the first hook
  CounterCell run_end_;    // counters at finalize()
  CounterCell seg_start_;  // counters at the open segment's first hook
  std::vector<CounterCell> cells_;  // n_regions_ + 1 ("other" last)
  std::vector<u64> region_hooks_;   // hook count per region

  std::vector<SiteStat> pc_stats_;  // indexed by pc >> 1
  std::array<SiteStat, static_cast<size_t>(isa::Mnemonic::kCount)>
      by_mnemonic_{};
  std::array<SiteStat, static_cast<size_t>(isa::ExecClass::kCount)>
      by_class_{};
  /// Region x mnemonic cycles for the collapsed-stack export.
  std::vector<std::array<u64, static_cast<size_t>(isa::Mnemonic::kCount)>>
      region_mnem_cycles_;

  Timeline* tl_;
  u8 track_;
  bool track_pc_;
  u32 block_limit_;
  int open_region_ = -1;  // -1: nothing open yet on the timeline
  std::vector<u16> region_name_ids_;
  u16 block_name_id_ = 0;
  u16 stall_name_id_ = 0;
  u64 block_start_ = 0;
  u32 block_instrs_ = 0;
};

}  // namespace xpulp::obs
