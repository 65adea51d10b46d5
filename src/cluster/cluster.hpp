// Multi-core PULP cluster model — the scaling path the paper's conclusion
// points to (the XpulpNN core was subsequently integrated into 8-core PULP
// clusters; PULP-NN reports near-linear kernel scaling on such clusters).
//
// N XpulpNN cores share one L1 TCDM through a logarithmic interconnect with
// word-interleaved banks (PULP convention: 2 banks per core). The model:
//   - cores execute event-driven, always advancing the core with the
//     smallest local cycle count, so cross-core cycle ordering is exact;
//   - each data access claims its bank for the issuing cycle; when another
//     core holds the bank in the same cycle the access retries one cycle
//     later (round-robin arbitration), which is exactly one stall cycle
//     per conflict in RI5CY's blocking LSU;
//   - instruction fetches are served by per-core prefetch buffers
//     (PULP cluster I$) and do not touch the interconnect.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/error.hpp"

#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "xasm/program.hpp"

namespace xpulp::obs {
class Registry;
}

namespace xpulp::cluster {

/// Scheduling policy of Cluster::run()/run_steps().
///  - kReference: interleave one instruction at a time, always stepping the
///    core with the smallest (local clock, core index) — the event-driven
///    reference whose cross-core ordering every other mode is measured
///    against.
///  - kBurst: deferred-arbitration burst scheduling (DESIGN.md §15). Cores
///    execute bounded bursts at full dispatch speed (fast path +
///    superblocks) while their TCDM accesses are logged instead of
///    arbitrated; a merge then replays the log through the bank arbiter in
///    provably-reference order and folds the resulting stalls back into
///    the cores' counters. Bit-identical to kReference for race-free
///    programs (xrace's pre-load gate is the safety precondition; programs
///    that read the cycle CSR, traced cores, or a contention injector
///    demote the run to kReference automatically).
enum class SchedulerMode { kReference, kBurst };

/// PULP TCDM banking factor: the arbiter has num_cores * kBanksPerCore
/// word-interleaved banks.
inline constexpr u32 kBanksPerCore = 2;

struct ClusterConfig {
  int num_cores = 8;
  sim::CoreConfig core = sim::CoreConfig::extended();
  SchedulerMode scheduler = SchedulerMode::kReference;
  /// Burst scheduling epoch width in cycles: each epoch advances every
  /// core to a common cycle horizon `min local clock + burst_horizon`
  /// before replaying the deferred accesses. Purely a host-performance
  /// knob — exactness never depends on it.
  u32 burst_horizon = 1536;
};

/// Host-side counters of the burst scheduler (zeroed by load()).
struct ClusterBurstStats {
  u64 epochs = 0;             // burst rounds completed
  u64 bursts = 0;             // per-core run_burst() calls
  u64 burst_instructions = 0; // instructions retired inside bursts
  u64 reference_instructions = 0;  // retired on reference segments
  u64 replayed_accesses = 0;  // accesses replayed through the merge
  u64 deferred_stall_cycles = 0;  // arbiter stalls assigned by the merge
  u64 fallback_runs = 0;      // whole runs demoted to reference scheduling
  double host_burst_seconds = 0;  // host time inside core bursts (phase 1)
  double host_merge_seconds = 0;  // host time replaying logs (phase 2)
};

/// The field list of ClusterBurstStats (common/counters.hpp).
template <typename F, CounterRef<ClusterBurstStats>... S>
constexpr void for_each_counter(F&& f, S&&... s) {
  f("epochs", s.epochs...);
  f("bursts", s.bursts...);
  f("burst_instructions", s.burst_instructions...);
  f("reference_instructions", s.reference_instructions...);
  f("replayed_accesses", s.replayed_accesses...);
  f("deferred_stall_cycles", s.deferred_stall_cycles...);
  f("fallback_runs", s.fallback_runs...);
  f("host_burst_seconds", s.host_burst_seconds...);
  f("host_merge_seconds", s.host_merge_seconds...);
}
static_assert(counter_slots<ClusterBurstStats>() * 8 ==
              sizeof(ClusterBurstStats));

/// Publish every ClusterBurstStats field under `prefix` (e.g.
/// "cluster.burst"): counts as counters, host seconds as gauges.
void add_burst_stats(obs::Registry& r, std::string_view prefix,
                     const ClusterBurstStats& s);

struct ClusterStats {
  cycles_t makespan = 0;           // cycles until the last core halted
  std::vector<cycles_t> core_cycles;
  u64 bank_conflicts = 0;
  u64 data_accesses = 0;

  double conflict_rate() const {
    return data_accesses ? static_cast<double>(bank_conflicts) /
                               static_cast<double>(data_accesses)
                         : 0.0;
  }
};

/// Serializable arbiter state: per-bank booking tables plus the cumulative
/// counters (src/ckpt carries this inside a cluster snapshot).
struct BankArbiterState {
  std::vector<cycles_t> last_cycle;
  std::vector<int> last_core;
  u64 conflicts = 0;
  u64 accesses = 0;
};

/// Word-interleaved TCDM bank arbiter.
class BankArbiter {
 public:
  explicit BankArbiter(u32 banks)
      : banks_(banks),
        // Power-of-two bank counts (every PULP configuration: cores x
        // banking factor) select the bank with a mask; the modulo below
        // is a per-access integer divide, which the burst merge replays
        // millions of times.
        bank_mask_((banks & (banks - 1)) == 0 ? banks - 1 : 0),
        last_cycle_(banks, ~0ull),
        last_core_(banks, -1) {}

  /// Core `core` accesses `addr` at its local `cycle`; returns stall
  /// cycles (0 or 1) and books the bank.
  unsigned access(int core, cycles_t cycle, addr_t addr) {
    ++accesses_;
    const u32 w = addr >> 2;
    const u32 b = bank_mask_ != 0 || banks_ == 1 ? (w & bank_mask_)
                                                 : w % banks_;
    if (last_cycle_[b] == cycle && last_core_[b] != core) {
      // Bank busy this cycle: retry next cycle.
      ++conflicts_;
      last_cycle_[b] = cycle + 1;
      last_core_[b] = core;
      return 1;
    }
    if (last_cycle_[b] == ~0ull || last_cycle_[b] < cycle ||
        last_core_[b] == core) {
      last_cycle_[b] = cycle;
      last_core_[b] = core;
      return 0;
    }
    // Bank already booked past this cycle (cascaded conflict).
    ++conflicts_;
    const unsigned stall = static_cast<unsigned>(last_cycle_[b] + 1 - cycle);
    last_cycle_[b] += 1;
    last_core_[b] = core;
    return stall;
  }

  u64 conflicts() const { return conflicts_; }
  u64 accesses() const { return accesses_; }

  /// Forget every bank booking (cumulative counters stay). Cores restart
  /// from local cycle 0 on a reload; stale bookings from a previous run
  /// would otherwise read as far-future reservations and charge absurd
  /// cascaded-conflict stalls.
  void reset_booking() {
    std::fill(last_cycle_.begin(), last_cycle_.end(), ~0ull);
    std::fill(last_core_.begin(), last_core_.end(), -1);
  }

  BankArbiterState state() const {
    return BankArbiterState{last_cycle_, last_core_, conflicts_, accesses_};
  }
  void restore(const BankArbiterState& s) {
    if (s.last_cycle.size() != banks_ || s.last_core.size() != banks_) {
      throw SimError("bank arbiter state does not match bank count");
    }
    last_cycle_ = s.last_cycle;
    last_core_ = s.last_core;
    conflicts_ = s.conflicts;
    accesses_ = s.accesses;
  }

 private:
  u32 banks_;
  u32 bank_mask_;
  std::vector<cycles_t> last_cycle_;
  std::vector<int> last_core_;
  u64 conflicts_ = 0;
  u64 accesses_ = 0;
};

/// Serializable cluster scheduling state: every core's architectural state
/// (whose perf.cycles are the scheduler's local clocks) plus the arbiter's
/// bank bookings. The shared memory is captured separately by src/ckpt.
struct ClusterState {
  std::vector<sim::CoreState> cores;
  BankArbiterState arbiter;
};

/// Scheduler pick key: a (clock, core) pair packed as (clock << 6) | core,
/// so one u64 compare orders picks exactly like the reference scheduler —
/// smallest clock first, ties to the lower core index. Clocks stay far
/// below 2^58 under the 2e9-instruction budget.
struct ClockCoreKey {
  static u64 pack(cycles_t clock, int core) {
    return (clock << 6) | static_cast<u64>(core);
  }
  static cycles_t clock(u64 k) { return k >> 6; }
  static int core(u64 k) { return static_cast<int>(k & 63); }
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg = {});

  int num_cores() const { return static_cast<int>(cores_.size()); }
  mem::Memory& memory() { return mem_; }
  const mem::Memory& memory() const { return mem_; }
  sim::Core& core(int i) { return *cores_[static_cast<size_t>(i)]; }
  const sim::Core& core(int i) const { return *cores_[static_cast<size_t>(i)]; }
  const ClusterConfig& config() const { return cfg_; }

  /// Load one program per core (programs may live at distinct code bases
  /// in the shared memory) and reset every core to its entry point.
  void load(const std::vector<xasm::Program>& programs);

  /// Install a pre-run gate on every core (see sim::Core::PreRunGate);
  /// load() then verifies each per-core program before any of them runs.
  /// Call before load().
  void set_pre_run_gate(const sim::Core::PreRunGate& gate) {
    for (auto& c : cores_) c->set_pre_run_gate(gate);
  }

  /// Whole-cluster gate over the full program set, called by load() before
  /// anything is written to memory. Unlike the per-core pre-run gate this
  /// sees every core's program at once — xrace's static cross-core
  /// footprint check plugs in here (analysis::make_race_gate). Throwing
  /// aborts the load with no state mutated.
  using PreLoadGate = std::function<void(const std::vector<xasm::Program>&)>;
  void set_pre_load_gate(PreLoadGate gate) {
    pre_load_gate_ = std::move(gate);
  }

  /// Observer for every data access made while the cluster runs, invoked
  /// under the event-driven scheduler's exact cycle ordering: issuing core,
  /// its local cycle, the pc of the accessing instruction, the address,
  /// access size in bytes, direction, and the stall cycles the bank
  /// arbiter charged (nonzero exactly when the arbiter counted a
  /// conflict, so summing `conflict_stalls != 0` reproduces
  /// BankArbiter::conflicts() exactly — xtel's bank heatmap relies on
  /// this). xrace's shadow-memory phase plugs in here. Call before
  /// run()/begin_run().
  using AccessObserver = std::function<void(int core, cycles_t cycle,
                                            addr_t pc, addr_t addr,
                                            unsigned size, bool is_store,
                                            unsigned conflict_stalls)>;
  void set_access_observer(AccessObserver obs) {
    observer_ = std::move(obs);
  }

  /// Run event-driven until every core executed its ecall. Throws on any
  /// abnormal halt or if the instruction budget is exceeded. The arbiter
  /// access hook is uninstalled on every exit path (including guest
  /// faults), and a Cluster instance is fully re-runnable: load() again and
  /// run() again, with per-run counters starting fresh.
  ///
  /// Under SchedulerMode::kBurst the budget stays exact: the run throws
  /// at precisely the same total retired-instruction index as the
  /// reference scheduler would, and the state at the trap matches the
  /// reference state at that index.
  ClusterStats run(u64 max_total_instructions = 2'000'000'000);

  /// Execute exactly `n` scheduler steps (total instructions across all
  /// cores, in reference interleaving order), or fewer if every core
  /// halts first. Returns the number actually executed. Under burst
  /// scheduling the stopping state is bit-identical to a reference run
  /// paused at the same index — mid-burst checkpoints are exact, and
  /// run_steps(1) is one reference-order step. Must be bracketed by
  /// begin_run()/end_run(); guest faults propagate with the hook still
  /// installed (call end_run() to clean up).
  u64 run_steps(u64 n);

  /// The scheduling policy of run()/run_steps() (ClusterConfig::scheduler).
  /// Burst scheduling silently demotes to reference when the loaded
  /// programs read the cycle CSR, a core has a trace hook, or memory has
  /// a contention injector (see ClusterBurstStats::fallback_runs).
  SchedulerMode scheduler() const { return cfg_.scheduler; }

  const ClusterBurstStats& burst_stats() const { return burst_stats_; }

  /// The largest deferred-access log buffer over all burst lanes, in
  /// entries (std::vector capacity: what the log keeps allocated).
  size_t burst_log_capacity() const;
  /// What burst_log_capacity() stays within, whatever the run length:
  /// derived from burst_horizon, the burst overshoot and the most accesses
  /// one instruction can log (DESIGN.md §15, "Lane-log lifecycle").
  size_t burst_log_capacity_bound() const;

  /// The core that was stepping when the last run() threw, or -1 (no
  /// throw, or one no single core raised).
  int faulted_core() const { return faulted_core_; }

  // ---- Incremental stepping (checkpointing, fault injection) ----
  // run() is begin_run(); run_steps(budget + 1); end_run(); plus budget
  // and halt-reason policy. External drivers use the pieces directly to
  // pause at arbitrary points, snapshot, restore and resume.

  /// Install the bank-arbiter access hook. Idempotent.
  void begin_run();
  /// Uninstall the hook and clear the active-core latch. Idempotent.
  void end_run();

  /// Aggregate per-core cycle stats plus arbiter deltas against the given
  /// baselines (pass 0,0 for cumulative totals). Unlike run(), does not
  /// require cores to have halted via ecall.
  ClusterStats stats_since(u64 base_conflicts, u64 base_accesses) const;

  // ---- Snapshot/restore (src/ckpt) ----

  ClusterState save_state() const;
  /// Restore scheduling state into this (possibly live) cluster; core
  /// count and bank count must match. Decode caches are invalidated —
  /// callers restoring the shared memory must do that first.
  void restore_state(const ClusterState& s);

 private:
  // One deferred TCDM access, logged during a burst and replayed through
  // the bank arbiter by the merge. `start` is the issuing instruction's
  // start cycle (the scheduler's pick key for that instruction), `cycle`
  // the local cycle at which the access itself issues; both are pre-merge
  // coordinates — the merge adds the lane's pending stall offset. The
  // record type is shared with sim::Core so the superblock engine's slim
  // fast path can append to the lane log directly (set_burst_sink) without
  // a per-access std::function dispatch; interpreter and slow-path
  // accesses reach the same log through the logging hook, preserving
  // program order within each lane.
  using LaneEntry = sim::BurstAccess;

  // Per-core deferred-access log plus the stall bookkeeping that keeps
  // `true local clock = perf.cycles + (assigned - folded)` an invariant:
  // `assigned` counts every arbiter stall the merge charged this lane,
  // `folded` the part already added to the core's counters. Folding only
  // happens when the lane is drained (head == log.size()), because
  // advancing perf.cycles while logged accesses still await replay would
  // corrupt their merge keys. `log[0, head)` is the replayed prefix;
  // compact_lanes() drops it at the epoch boundary, so a lane that never
  // drains still holds only about one epoch's accesses.
  //
  // `cur_start`/`cur_offset` latch the stall offset once per instruction:
  // the reference charges hook stalls at the end of the issuing
  // instruction, so two accesses of the same instruction (pv.qnt's pair
  // of threshold fetches) issue at the same cycle — a stall assigned to
  // the first must not shift the second. Raw start cycles are strictly
  // increasing within a lane (instructions cost at least one cycle, and
  // folding only raises later starts), so `start != cur_start` detects a
  // new instruction exactly.
  struct BurstLane {
    std::vector<LaneEntry> log;
    size_t head = 0;
    u64 assigned = 0;
    u64 folded = 0;
    cycles_t cur_start = ~0ull;
    u64 cur_offset = 0;

    bool drained() const { return head == log.size(); }
    u64 pending_stalls() const { return assigned - folded; }
  };

  // ---- Burst engine (cluster.cpp) ----
  u64 drive(u64 target);
  u64 drive_reference(u64 target);
  u64 drive_burst(u64 target);
  u64 reference_segment(u64 max_steps, u64 budget);
  u64 frontier_key() const;
  u64 merge(u64 frontier);
  void fold_lane(int core);
  void compact_lanes();
  void reset_lanes();
  bool burst_eligible() const;
  cycles_t true_clock(int core) const;

  ClusterConfig cfg_;
  mem::Memory mem_;
  std::vector<std::unique_ptr<sim::Core>> cores_;
  BankArbiter arbiter_;

  // Core currently stepping inside run(). One persistent access hook reads
  // these instead of run() rebuilding a std::function closure every step.
  sim::Core* active_core_ = nullptr;
  int active_core_id_ = -1;
  int faulted_core_ = -1;

  PreLoadGate pre_load_gate_;
  AccessObserver observer_;

  // ---- Burst scheduling state ----
  std::vector<BurstLane> lanes_;
  u64 lanes_pending_ = 0;       // logged-but-unreplayed entries, all lanes
  std::vector<u64> calendar_;   // merge(): per-cycle lane masks, kept zero
  // While true, the shared access hook logs instead of arbitrating (burst
  // phase 1); reference scheduling and reference segments run with it
  // false and arbitrate at access time.
  bool logging_ = false;
  bool programs_use_cycle_csr_ = false;  // set by load()'s opcode scan
  ClusterBurstStats burst_stats_;
};

}  // namespace xpulp::cluster
