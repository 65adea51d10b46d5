#include "cluster/cluster.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace xpulp::cluster {

namespace {

// Burst-scheduler tuning. kSampleMargin is the folded-cycle gap a sampled
// core keeps between its burst horizon and its next sample deadline; it
// must exceed kBurstOvershoot plus the arbiter stalls the core can pick up
// in one epoch, so that sample fires only ever happen on fully-folded
// reference steps (fold_lane trips a SimError if the margin was not
// enough). kBurstOvershoot bounds how far past its horizon a burst can
// run: the longest single instruction or armed superblock op (divide ~35
// cycles, fused ops <= 64) with generous headroom.
constexpr cycles_t kSampleMargin = 2048;
constexpr cycles_t kBurstOvershoot = 256;
// Lane-log capacity bound (Cluster::burst_log_capacity_bound). One burst
// runs at most burst_horizon + kBurstOvershoot instructions (each costs at
// least one cycle) and each logs at most kMaxAccessesPerInstruction
// accesses: pv.qnt walks two threshold trees of up to 4 levels. A lane's
// log holds the entries still pending from the previous epoch (at most one
// epoch's pushes while an epoch's arbiter stalls stay below burst_horizon
// - kBurstOvershoot, so everything logged two epochs back lies behind the
// frontier), a replayed prefix no longer than that pending tail
// (compact_lanes drops it once it reaches half the log), and this epoch's
// pushes: kBurstLogEpochs epochs. std::vector growth at most doubles
// capacity past the largest size reached.
constexpr u64 kMaxAccessesPerInstruction = 2 * 4;
constexpr u64 kBurstLogEpochs = 3;
constexpr u64 kBurstLogGrowth = 2;
// Reference-segment chunk (in scheduler steps, times num_cores) used when
// an epoch could not burst every core — enough to carry a sampler-blocked
// core across its deadline.
constexpr u64 kRefChunk = 512;
// Calendar merge window in cycles: covers one default-horizon epoch plus
// burst overshoot, so an epoch merge usually walks a single window.
constexpr cycles_t kCalendarSlots = 2048;
constexpr u64 kInfKey = ~0ull;

double host_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Conservative scan for reads of the cycle CSR (cycle/cycleh and their
/// machine-mode aliases mcycle/mcycleh). A program that observes its own
/// cycle counter would see deferred (not yet folded) stall cycles mid-
/// burst, so such programs run under reference scheduling. The scan
/// decodes a candidate 32-bit word at every halfword offset — compressed
/// instructions make the stream 2-byte aligned — which can only
/// over-match (data or misaligned views that look like CSR reads demote
/// the run; never the reverse). instret reads are timing-independent
/// (both schedulers retire the identical per-core instruction sequence)
/// and stay eligible.
bool reads_cycle_csr(const xasm::Program& p) {
  const auto words = p.words();
  const u8* bytes = reinterpret_cast<const u8*>(words.data());
  const size_t nb = words.size() * 4;
  for (size_t off = 0; off + 4 <= nb; off += 2) {
    u32 raw;
    std::memcpy(&raw, bytes + off, 4);
    if ((raw & 0x7f) != 0x73) continue;        // SYSTEM major opcode
    if (((raw >> 12) & 0x7) == 0) continue;    // ecall/ebreak/mret, not CSR
    const u32 csr = raw >> 20;
    if (csr == 0xB00 || csr == 0xB80 || csr == 0xC00 || csr == 0xC80) {
      return true;
    }
  }
  return false;
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      arbiter_(static_cast<u32>(cfg.num_cores) * kBanksPerCore) {
  if (cfg_.num_cores < 1 || cfg_.num_cores > 64) {
    throw SimError("cluster size out of range");
  }
  for (int i = 0; i < cfg_.num_cores; ++i) {
    cores_.push_back(std::make_unique<sim::Core>(mem_, cfg_.core));
  }
  lanes_.resize(static_cast<size_t>(cfg_.num_cores));
  calendar_.assign(kCalendarSlots, 0);
}

void Cluster::load(const std::vector<xasm::Program>& programs) {
  if (programs.size() != cores_.size()) {
    throw SimError("need exactly one program per core");
  }
  if (pre_load_gate_) pre_load_gate_(programs);
  for (size_t i = 0; i < programs.size(); ++i) {
    programs[i].load(mem_);
  }
  for (size_t i = 0; i < programs.size(); ++i) {
    cores_[i]->reset(programs[i].entry(),
                     programs[i].base() + programs[i].size_bytes());
  }
  // A reloaded cluster starts a fresh run: local clocks back to zero and
  // no bank bookings carried over. Leaving either in place leaks the
  // previous run's cycle state into the scheduler (stale perf.cycles pick
  // the wrong core; stale bookings charge far-future cascaded-conflict
  // stalls against cores restarting at cycle 0).
  for (auto& c : cores_) c->reset_perf();
  arbiter_.reset_booking();
  mem_.reset_stats();
  // Fresh run: no deferred accesses carried over, burst counters zeroed,
  // and the cycle-CSR eligibility scan redone for the new program set.
  reset_lanes();
  burst_stats_ = ClusterBurstStats{};
  programs_use_cycle_csr_ = false;
  for (const auto& p : programs) {
    if (reads_cycle_csr(p)) {
      programs_use_cycle_csr_ = true;
      break;
    }
  }
}

void Cluster::begin_run() {
  // Route the stepping core's data accesses through the bank arbiter at
  // its current local cycle. Installed once per run; the scheduling loop
  // only updates active_core_/active_core_id_ instead of building a new
  // std::function closure per step.
  mem_.set_access_hook([this](addr_t a, unsigned size,
                              bool is_store) -> unsigned {
    if (logging_) [[unlikely]] {
      // Burst phase 1: defer arbitration. Record the access in the
      // issuing core's lane — instruction start clock (the scheduler's
      // pick key), issue cycle and pc in the core's pre-merge local
      // coordinates (the superblock engine latches exact per-op values
      // when a hook is installed; the interpreter reports live ones) —
      // and charge nothing. merge_replay() later runs the entries
      // through the arbiter in provably-reference order and assigns the
      // stalls to the lane.
      // (The superblock slim path appends to the same per-lane log
      // directly through the core's burst sink; lanes_pending_ is
      // recomputed from the log sizes when the phase ends, so neither
      // path tracks it incrementally here.)
      BurstLane& lane = lanes_[static_cast<size_t>(active_core_id_)];
      const cycles_t start = active_core_->access_start();
      const cycles_t delta = active_core_->access_cycle() - start;
      if (delta > 0xffff) [[unlikely]] {
        throw SimError("internal: access issued >2^16 cycles into its "
                       "instruction; burst log delta overflow");
      }
      lane.log.push_back({start, active_core_->access_pc(), a,
                          static_cast<u16>(delta), static_cast<u8>(size),
                          static_cast<u8>(is_store)});
      return 0;
    }
    const cycles_t cycle = active_core_->perf().cycles;
    // Arbitrate first so the observer sees the stall the access was
    // charged (the arbiter books the bank either way).
    const unsigned stalls = arbiter_.access(active_core_id_, cycle, a);
    if (observer_) {
      observer_(active_core_id_, cycle, active_core_->pc(), a, size,
                is_store, stalls);
    }
    return stalls;
  });
}

void Cluster::end_run() {
  mem_.set_access_hook({});
  active_core_ = nullptr;
  active_core_id_ = -1;
  logging_ = false;
}

// ---------------------------------------------------------------------------
// Burst scheduling (DESIGN.md §15)
//
// The reference scheduler calls the bank arbiter once per access, ordered by
// (issuing instruction's start clock, core index, within-core program
// order). Burst mode reproduces that exact call sequence without stepping
// per instruction: cores run bounded bursts at full dispatch speed while
// their accesses are only logged, then a calendar merge replays the logs
// through the arbiter in that same lexicographic order. Stalls the merge
// assigns are kept as a per-lane offset (`assigned - folded`) and folded
// into the core's counters only once its lane is drained, preserving the
// invariant `true local clock = perf.cycles + pending_stalls`.
// ---------------------------------------------------------------------------

void Cluster::reset_lanes() {
  // Clear in place rather than assign a fresh lane: a reloaded cluster
  // keeps each log's buffer instead of regrowing it.
  for (auto& l : lanes_) {
    l.log.clear();
    l.head = 0;
    l.assigned = l.folded = 0;
    l.cur_start = ~0ull;
    l.cur_offset = 0;
  }
  lanes_pending_ = 0;
  // A merge cut short by a throw leaves its bookings behind.
  std::fill(calendar_.begin(), calendar_.end(), 0);
}

cycles_t Cluster::true_clock(int core) const {
  return cores_[static_cast<size_t>(core)]->perf().cycles +
         lanes_[static_cast<size_t>(core)].pending_stalls();
}

bool Cluster::burst_eligible() const {
  if (programs_use_cycle_csr_) return false;
  if (mem_.contention_period() != 0) return false;
  for (const auto& c : cores_) {
    if (c->has_trace()) return false;
  }
  return true;
}

void Cluster::fold_lane(int core) {
  BurstLane& lane = lanes_[static_cast<size_t>(core)];
  if (!lane.drained()) {
    throw SimError("internal: folding an undrained burst lane");
  }
  lane.log.clear();
  lane.head = 0;
  const u64 pend = lane.pending_stalls();
  if (pend == 0) return;
  sim::Core& c = *cores_[static_cast<size_t>(core)];
  c.charge_deferred_stalls(pend);
  mem_.add_contention_stalls(pend);
  lane.folded = lane.assigned;
  // Sample fires must land on fully-folded boundaries (reference
  // segments); the burst horizon clamp keeps sampled cores kSampleMargin
  // folded cycles short of their deadline so the stalls folded here can
  // never carry them across it. If the program's conflict density defeats
  // the margin, fail loudly rather than emit a late sample.
  if (c.has_sampler() && c.perf().cycles >= c.next_sample_due()) {
    throw SimError(
        "burst scheduling overshot a sample boundary; lower burst_horizon "
        "or raise the sample interval");
  }
}

void Cluster::compact_lanes() {
  // A core running ahead of the frontier never drains its lane, so
  // fold_lane never clears its log; without this the replayed prefix
  // [0, head) would keep every access of the run. Dropping it once half
  // the log is replayed moves each pending entry at most once per
  // doubling, and keeps a lane's log within kBurstLogEpochs epochs of
  // pushes. Only indices into the log change: merge keys, offsets and
  // stall bookkeeping are untouched, and the burst sinks point at the
  // vector object, not its storage.
  for (auto& l : lanes_) {
    if (l.head == 0 || l.head * 2 < l.log.size()) continue;
    l.log.erase(l.log.begin(),
                l.log.begin() + static_cast<std::ptrdiff_t>(l.head));
    l.head = 0;
  }
}

size_t Cluster::burst_log_capacity() const {
  size_t cap = 0;
  for (const auto& l : lanes_) cap = std::max(cap, l.log.capacity());
  return cap;
}

size_t Cluster::burst_log_capacity_bound() const {
  const u64 per_epoch =
      (std::max<u64>(cfg_.burst_horizon, 1) + kBurstOvershoot) *
      kMaxAccessesPerInstruction;
  return static_cast<size_t>(kBurstLogGrowth * kBurstLogEpochs * per_epoch);
}

u64 Cluster::frontier_key() const {
  // The smallest (true clock, core) over live cores: the earliest point at
  // which a new access could still be issued. kInfKey once all halted.
  u64 frontier = kInfKey;
  for (size_t i = 0; i < cores_.size(); ++i) {
    if (cores_[i]->halted()) continue;
    frontier = std::min(frontier,
                        ClockCoreKey::pack(true_clock(static_cast<int>(i)),
                                           static_cast<int>(i)));
  }
  return frontier;
}

u64 Cluster::merge(u64 frontier) {
  // Calendar merge: replay every logged access whose merge key
  // (true instruction start << 6 | core) precedes `frontier`, in key
  // order. Each lane with pending entries books one event, its next
  // instruction's true start, as bit `core` of a per-cycle mask; cycles
  // are visited in ascending order and lanes within a cycle in ascending
  // core order (ctz), which is exactly the key order. A visit replays the
  // whole instruction under one latched offset, then re-books the lane —
  // strictly later, since raw starts strictly increase within a lane and
  // offsets never decrease — so the next lane is read off the calendar
  // instead of found by comparing every lane's key after each arbiter
  // call. Windows of kCalendarSlots cycles start at the earliest event,
  // which bounds the walk for an infinite (all-halted) frontier. Returns
  // the number of accesses replayed; the calendar is all-zero on return.
  if (lanes_pending_ == 0) return 0;
  const cycles_t fc = ClockCoreKey::clock(frontier);
  // Lanes that still precede the frontier at its own cycle `fc`.
  const u64 fc_lanes = (1ull << ClockCoreKey::core(frontier)) - 1;
  cycles_t due[64];
  u64 ready = 0;
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const BurstLane& lane = lanes_[i];
    if (lane.drained()) continue;
    const cycles_t start = lane.log[lane.head].start;
    due[i] = start + (start == lane.cur_start ? lane.cur_offset
                                              : lane.pending_stalls());
    ready |= 1ull << i;
  }
  const bool observe = static_cast<bool>(observer_);
  u64 popped = 0;
  u64 stall_sum = 0;
  // Replay lane i's next instruction at true start due[i]; returns false
  // once the lane drained (and folded), else re-computes due[i]. All its
  // accesses share one offset: the reference charges hook stalls at the
  // issuing instruction's end, so they only shift later instructions.
  const auto visit = [&](int i) -> bool {
    BurstLane& lane = lanes_[static_cast<size_t>(i)];
    const LaneEntry* e = lane.log.data() + lane.head;
    const LaneEntry* const end = lane.log.data() + lane.log.size();
    const cycles_t start = e->start;
    const u64 off = due[i] - start;
    lane.cur_start = start;
    lane.cur_offset = off;
    u64 stalls = 0;
    do {
      const cycles_t cycle = start + e->cycle_delta + off;
      const unsigned s = arbiter_.access(i, cycle, e->addr);
      if (observe) [[unlikely]] {
        observer_(i, cycle, e->pc, e->addr, e->size, e->is_store != 0, s);
      }
      stalls += s;
      ++e;
    } while (e != end && e->start == start);
    const size_t head = static_cast<size_t>(e - lane.log.data());
    popped += head - lane.head;
    stall_sum += stalls;
    lane.head = head;
    lane.assigned += stalls;
    if (e == end) {
      fold_lane(i);
      return false;
    }
    due[i] = e->start + lane.pending_stalls();
    return true;
  };
  while (ready != 0) {
    if ((ready & (ready - 1)) == 0) {
      // A single ready lane needs no ordering: drain it straight through.
      const int i = std::countr_zero(ready);
      while (ClockCoreKey::pack(due[i], i) < frontier && visit(i)) {}
      break;
    }
    u64 first = kInfKey;
    for (u64 m = ready; m != 0; m &= m - 1) {
      const int i = std::countr_zero(m);
      first = std::min(first, ClockCoreKey::pack(due[i], i));
    }
    if (first >= frontier) break;
    const cycles_t base = ClockCoreKey::clock(first);
    const cycles_t end = std::min(base + kCalendarSlots, fc + 1);
    u64* const cal = calendar_.data();
    for (u64 m = ready; m != 0; m &= m - 1) {
      const int i = std::countr_zero(m);
      if (due[i] < end) cal[due[i] - base] |= 1ull << i;
    }
    for (cycles_t c = base; c < end; ++c) {
      u64 m = cal[c - base];
      if (m == 0) continue;
      cal[c - base] = 0;
      if (c == fc) m &= fc_lanes;  // the rest stay ready, unvisited
      for (; m != 0; m &= m - 1) {
        const int i = std::countr_zero(m);
        if (!visit(i)) {
          ready &= ~(1ull << i);
        } else if (due[i] <= c) {
          throw SimError("internal: burst lane re-booked out of order");
        } else if (due[i] < end) {
          cal[due[i] - base] |= 1ull << i;
        }
      }
    }
  }
  lanes_pending_ -= popped;
  burst_stats_.replayed_accesses += popped;
  burst_stats_.deferred_stall_cycles += stall_sum;
  return popped;
}

u64 Cluster::reference_segment(u64 max_steps, u64 budget) {
  // Exact reference stepping interleaved with replay of still-pending
  // burst accesses. Every iteration pops all accesses ordered before the
  // frontier core's next instruction, folds that core's (now drained)
  // lane so its counters are true, then steps it through the arbitrating
  // hook — the global arbiter call sequence stays in lexicographic order
  // throughout. Used for sample deadlines, the band-closing tail of a
  // burst run, and the final drain (all cores halted makes the frontier
  // infinite, so the merge flushes every lane).
  u64 executed = 0;
  const u64 limit = std::min(max_steps, budget);
  while (executed < limit) {
    // Stalls the merge assigns raise true clocks and so the frontier;
    // merging again under the recomputed frontier until nothing pops
    // replays exactly the accesses a per-pop frontier would.
    u64 frontier = frontier_key();
    while (merge(frontier) != 0) frontier = frontier_key();
    if (frontier == kInfKey) break;  // all halted (lanes flushed)
    const int id = ClockCoreKey::core(frontier);
    // All of this core's logged accesses order strictly before its next
    // instruction, so the merge drained its lane; folding makes
    // perf.cycles the true clock before the step issues real accesses.
    fold_lane(id);
    active_core_ = cores_[static_cast<size_t>(id)].get();
    active_core_id_ = id;
    active_core_->step();
    ++executed;
  }
  burst_stats_.reference_instructions += executed;
  return executed;
}

u64 Cluster::drive_burst(u64 target) {
  const u64 n_cores = cores_.size();
  const cycles_t delta = cfg_.burst_horizon != 0 ? cfg_.burst_horizon : 1;
  // Band-closing slack: one epoch retires at most num_cores *
  // (burst_horizon + overshoot) instructions (every instruction costs at
  // least one cycle), and closing the band afterwards costs at most the
  // same again, so stopping the epoch loop this many steps short of the
  // target guarantees the tail reference segment reaches the exact target
  // index with every lane drained — the stopping state is bit-identical
  // to a reference run paused there.
  const u64 slack = 2 * n_cores * (delta + kBurstOvershoot);
  u64 executed = 0;
  // Give every core a direct sink into its lane log so the superblock
  // engine's slim fast path can log accesses without the hook's
  // std::function dispatch (and, crucially, stay slim-eligible at all:
  // has_access_hook() alone would force the armed slow path). The sink
  // must come down on every exit — a stale pointer would dangle into a
  // cleared lane on the next load().
  for (size_t i = 0; i < n_cores; ++i) {
    cores_[i]->set_burst_sink(&lanes_[i].log);
  }
  const auto clear_sinks = [&] {
    for (auto& c : cores_) c->set_burst_sink(nullptr);
  };
  try {
  while (executed + slack < target) {
    const u64 first = frontier_key();
    if (first == kInfKey) break;  // all halted
    cycles_t horizon = ClockCoreKey::clock(first) + delta;
    // Sample boundaries must be crossed on reference steps with every
    // lane advanced in exact global key order: a Sample diffs the
    // *shared* TCDM stats, so if any other core had already burst past
    // the boundary cycle, the window would see accesses the reference
    // scheduler orders after it. Clamp every core's horizon a margin
    // short of the earliest sampled deadline (fold_lane's tripwire
    // guards the margin); the reference segment below then carries the
    // whole cluster across the boundary in reference order.
    for (size_t i = 0; i < n_cores; ++i) {
      const sim::Core& c = *cores_[i];
      if (c.halted() || !c.has_sampler()) continue;
      const cycles_t due = c.next_sample_due();
      horizon = std::min(horizon,
                         due > kSampleMargin ? due - kSampleMargin : 0);
    }

    // Phase 1: burst every live core to the horizon, logging accesses.
    const double t0 = host_now();
    const u64 before = executed;
    bool any_skipped = false;
    logging_ = true;
    for (size_t i = 0; i < n_cores; ++i) {
      sim::Core& c = *cores_[i];
      if (c.halted()) continue;
      const u64 pend = lanes_[i].pending_stalls();
      const cycles_t hz = horizon;
      if (hz <= c.perf().cycles + pend) {
        any_skipped = true;
        continue;
      }
      active_core_ = &c;
      active_core_id_ = static_cast<int>(i);
      // The horizon is a true-clock bound; the core compares its folded
      // cycle counter, so subtract the lane's pending offset.
      const u64 n = c.run_burst(hz - pend, target - executed);
      executed += n;
      burst_stats_.bursts += 1;
      burst_stats_.burst_instructions += n;
    }
    logging_ = false;
    // Sink pushes bypass the hook, so the pending count is reconciled
    // from the per-lane logs once per epoch instead of per access.
    lanes_pending_ = 0;
    for (const auto& l : lanes_) lanes_pending_ += l.log.size() - l.head;

    // Phase 2: replay everything ordered before the new frontier.
    const double t1 = host_now();
    // The frontier goes stale as stalls raise true clocks, but only ever
    // conservatively low: leftover entries roll into the next epoch or
    // the closing reference segment.
    merge(frontier_key());
    compact_lanes();
    burst_stats_.host_burst_seconds += t1 - t0;
    burst_stats_.host_merge_seconds += host_now() - t1;
    burst_stats_.epochs += 1;

    // A sampler-blocked core only advances on reference steps; a chunk of
    // them also guarantees forward progress if no core had burst room.
    if (any_skipped || executed == before) {
      executed += reference_segment(n_cores * kRefChunk, target - executed);
    }
  }
  // Close the band: the remaining steps run on the replay-aware reference
  // scheduler, which drains every lane as the frontier passes it.
  executed += reference_segment(~0ull, target - executed);
  if (lanes_pending_ != 0) {
    throw SimError("internal: burst band failed to close");
  }
  } catch (...) {
    clear_sinks();
    throw;
  }
  clear_sinks();
  return executed;
}

u64 Cluster::drive_reference(u64 target) {
  // Cached-key argmin over a contiguous array: pick the core with the
  // smallest (local clock, core index). The scan is branch-predictable and
  // touches a cache line or two, which beat a min-heap's data-dependent
  // sift on the paper deployment (~25% faster at 8 cores). Halted cores
  // hold the never-picked key ~0.
  u64 keys[64];
  size_t live = 0;
  for (size_t i = 0; i < cores_.size(); ++i) {
    keys[i] = cores_[i]->halted()
                  ? ~0ull
                  : ClockCoreKey::pack(cores_[i]->perf().cycles,
                                       static_cast<int>(i));
    if (keys[i] != ~0ull) ++live;
  }
  u64 executed = 0;
  while (executed < target && live != 0) {
    u64 best = keys[0];
    size_t bi = 0;
    for (size_t i = 1; i < cores_.size(); ++i) {
      if (keys[i] < best) {
        best = keys[i];
        bi = i;
      }
    }
    sim::Core& c = *cores_[bi];
    active_core_ = &c;
    active_core_id_ = static_cast<int>(bi);
    c.step();
    ++executed;
    if (c.halted()) {
      keys[bi] = ~0ull;
      --live;
    } else {
      keys[bi] = ClockCoreKey::pack(c.perf().cycles, static_cast<int>(bi));
    }
  }
  return executed;
}

u64 Cluster::drive(u64 target) {
  if (cfg_.scheduler == SchedulerMode::kBurst) {
    if (burst_eligible()) return drive_burst(target);
    burst_stats_.fallback_runs += 1;
  }
  return drive_reference(target);
}

u64 Cluster::run_steps(u64 n) { return drive(n); }

ClusterStats Cluster::stats_since(u64 base_conflicts,
                                  u64 base_accesses) const {
  ClusterStats stats;
  for (const auto& c : cores_) {
    stats.core_cycles.push_back(c->perf().cycles);
    stats.makespan = std::max(stats.makespan, c->perf().cycles);
  }
  stats.bank_conflicts = arbiter_.conflicts() - base_conflicts;
  stats.data_accesses = arbiter_.accesses() - base_accesses;
  return stats;
}

ClusterState Cluster::save_state() const {
  ClusterState s;
  s.cores.reserve(cores_.size());
  for (const auto& c : cores_) s.cores.push_back(c->save_state());
  s.arbiter = arbiter_.state();
  return s;
}

void Cluster::restore_state(const ClusterState& s) {
  if (s.cores.size() != cores_.size()) {
    throw SimError("cluster state does not match core count");
  }
  arbiter_.restore(s.arbiter);  // validates bank count before any mutation
  for (size_t i = 0; i < cores_.size(); ++i) {
    cores_[i]->restore_state(s.cores[i]);
    cores_[i]->invalidate_decode_cache();
  }
  // Burst lanes are always drained at the public stopping points a
  // snapshot can capture, so there is no deferred state to restore — but
  // the per-lane merge latches (cur_start in particular) assume raw start
  // cycles only ever increase, which restoring to an earlier point
  // violates. Reset them outright.
  reset_lanes();
}

ClusterStats Cluster::run(u64 max_total_instructions) {
  const u64 base_conflicts = arbiter_.conflicts();
  const u64 base_accesses = arbiter_.accesses();

  faulted_core_ = -1;
  begin_run();
  // The hook must come down on *every* exit path: a guest fault escaping
  // a step would otherwise leave the arbiter hook (and its dangling
  // active-core latch) installed on the shared memory.
  u64 executed = 0;
  try {
    // Asking drive() for budget+1 steps reproduces the per-instruction
    // "step, count, throw once past the budget" semantics exactly: a run
    // needing more than the budget executes precisely max+1 instructions
    // — reaching the same state the reference loop trapped in — and then
    // throws. Under burst scheduling drive() guarantees that stopping
    // state is bit-identical to the reference scheduler paused at the
    // same index.
    executed = drive(max_total_instructions + 1);
    if (executed > max_total_instructions) {
      throw SimError("cluster instruction budget exceeded");
    }
  } catch (...) {
    faulted_core_ = active_core_id_;
    end_run();
    throw;
  }
  end_run();

  for (const auto& c : cores_) {
    if (c->halt_reason() != sim::HaltReason::kEcall) {
      throw SimError("a cluster core halted abnormally");
    }
  }
  return stats_since(base_conflicts, base_accesses);
}

void add_burst_stats(obs::Registry& r, std::string_view prefix,
                     const ClusterBurstStats& s) {
  obs::add_counters(r, prefix, s);
}

}  // namespace xpulp::cluster
