// Cycle-approximate model of the RI5CY core with the XpulpV2 and XpulpNN
// extensions. Two configurations reproduce the paper's platforms:
//   - baseline RI5CY: CoreConfig::ri5cy()       (XpulpV2, no sub-byte SIMD)
//   - extended core:  CoreConfig::extended()    (XpulpV2 + XpulpNN)
// The `clock_gating` knob models the power-management design of §III-B
// (input operand registers + clock gating in the dot-product unit, operand
// isolation in the quantization unit); it changes the activity statistics
// consumed by the power model, not functional behaviour or cycle counts.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"
#include "sim/dotp_unit.hpp"
#include "sim/quant_unit.hpp"
#include "sim/timing.hpp"

namespace xpulp::sim {

struct SuperblockPlan;  // sim/superblock.hpp (host-side compiled blocks)
struct SbLatches;
enum class SbKind : u8;

struct CoreConfig {
  bool xpulpv2 = true;    // hardware loops, post-inc LSU, 8/16-bit SIMD, MAC
  bool xpulpnn = true;    // nibble/crumb SIMD + pv.qnt
  bool hwloops = true;    // can be disabled separately for ablations
  bool clock_gating = true;
  /// Use the legacy switch-on-mnemonic interpreter instead of the
  /// predecoded handler-table fast path. Functionally and cycle-wise
  /// identical (enforced by the differential dispatch test); kept as the
  /// reference implementation and as the baseline of the host-throughput
  /// bench.
  bool reference_dispatch = false;
  /// Trace-compiled superblock execution of hot loop bodies on top of the
  /// fast path (DESIGN.md §12), on by default: bit-identical state and
  /// PerfCounters, enforced by the three-way differential dispatch test.
  /// Set false for the plain fast interpreter. Requires the fast dispatch
  /// path and clock gating (the ungated operand-broadcast model is
  /// inherently per-instruction); the engine simply stays cold when
  /// either is off, and while a trace hook is attached.
  bool superblock = true;
  std::string name = "xpulpnn";

  static CoreConfig extended() { return CoreConfig{}; }

  static CoreConfig ri5cy() {
    CoreConfig c;
    c.xpulpnn = false;
    c.name = "ri5cy";
    return c;
  }
};

struct PerfCounters {
  cycles_t cycles = 0;
  u64 instructions = 0;

  u64 taken_branches = 0;
  u64 not_taken_branches = 0;
  u64 jumps = 0;
  u64 branch_stall_cycles = 0;
  u64 load_use_stall_cycles = 0;
  u64 mem_stall_cycles = 0;
  u64 mul_div_stall_cycles = 0;
  u64 hwloop_backedges = 0;

  u64 loads = 0;
  u64 stores = 0;
  u64 scalar_alu_ops = 0;
  u64 mul_ops = 0;
  u64 div_ops = 0;
  u64 simd_alu_ops = 0;
  u64 qnt_ops = 0;
  u64 qnt_stall_cycles = 0;
  u64 csr_ops = 0;
  /// fence / ecall / ebreak retires.
  u64 sys_ops = 0;
  /// p.mac / p.msu retires. These also count in both mul_ops (they use the
  /// multiplier) and scalar_alu_ops (they retire through the scalar ALU
  /// path), so class sums subtract mac_ops once to avoid double counting.
  u64 mac_ops = 0;

  /// Dot-product ops by multiplier region {16, 8, 4, 2}-bit.
  std::array<u64, 4> dotp_ops{};

  /// Mixed virtual dot products by mpc selector {8x4, 8x2, 4x2}.
  /// Reporting breakdown only: each mixed op also counts in dotp_ops of
  /// the region its wide operand drives, which is what perf_class_ops and
  /// the cycle invariants consume.
  std::array<u64, 3> mixed_dotp_ops{};

  /// Hamming toggles of successive load data words on the LSU result bus.
  /// The quantization unit's comparators hang off this bus; with operand
  /// isolation disabled (no power management) they switch with every load.
  u64 lsu_data_toggles = 0;
};

/// The field list of PerfCounters (common/counters.hpp): declaration order,
/// which is also the XCKP CORE payload order.
template <typename F, CounterRef<PerfCounters>... S>
constexpr void for_each_counter(F&& f, S&&... s) {
  f("cycles", s.cycles...);
  f("instructions", s.instructions...);
  f("taken_branches", s.taken_branches...);
  f("not_taken_branches", s.not_taken_branches...);
  f("jumps", s.jumps...);
  f("branch_stall_cycles", s.branch_stall_cycles...);
  f("load_use_stall_cycles", s.load_use_stall_cycles...);
  f("mem_stall_cycles", s.mem_stall_cycles...);
  f("mul_div_stall_cycles", s.mul_div_stall_cycles...);
  f("hwloop_backedges", s.hwloop_backedges...);
  f("loads", s.loads...);
  f("stores", s.stores...);
  f("scalar_alu_ops", s.scalar_alu_ops...);
  f("mul_ops", s.mul_ops...);
  f("div_ops", s.div_ops...);
  f("simd_alu_ops", s.simd_alu_ops...);
  f("qnt_ops", s.qnt_ops...);
  f("qnt_stall_cycles", s.qnt_stall_cycles...);
  f("csr_ops", s.csr_ops...);
  f("sys_ops", s.sys_ops...);
  f("mac_ops", s.mac_ops...);
  f("dotp_ops.16b", s.dotp_ops[0]...);
  f("dotp_ops.8b", s.dotp_ops[1]...);
  f("dotp_ops.4b", s.dotp_ops[2]...);
  f("dotp_ops.2b", s.dotp_ops[3]...);
  f("mixed_dotp_ops.8x4", s.mixed_dotp_ops[0]...);
  f("mixed_dotp_ops.8x2", s.mixed_dotp_ops[1]...);
  f("mixed_dotp_ops.4x2", s.mixed_dotp_ops[2]...);
  f("lsu_data_toggles", s.lsu_data_toggles...);
}
static_assert(counter_slots<PerfCounters>() * 8 == sizeof(PerfCounters));

/// Sum of the per-cause stall counters.
inline u64 perf_stall_cycles(const PerfCounters& p) {
  return p.branch_stall_cycles + p.load_use_stall_cycles +
         p.mem_stall_cycles + p.mul_div_stall_cycles + p.qnt_stall_cycles;
}

/// Sum of the instruction-class counters. Every retired instruction
/// increments exactly one of these (p.mac/p.msu count in both mul_ops and
/// scalar_alu_ops, hence the mac_ops correction).
inline u64 perf_class_ops(const PerfCounters& p) {
  u64 dotp = 0;
  for (u64 d : p.dotp_ops) dotp += d;
  return p.taken_branches + p.not_taken_branches + p.jumps + p.loads +
         p.stores + p.scalar_alu_ops + (p.mul_ops - p.mac_ops) + p.div_ops +
         p.simd_alu_ops + dotp + p.qnt_ops + p.csr_ops + p.sys_ops;
}

/// Accounting self-check for a run that ended cleanly (no mid-instruction
/// fault): every cycle is either an instruction's base cycle or attributed
/// to exactly one stall cause, and every instruction to exactly one class.
/// Returns an empty string when the invariants hold, else a diagnostic.
std::string perf_invariant_violation(const PerfCounters& p);

/// Coverage/fallback counters of the superblock engine (host-side only,
/// not part of CoreState). `fused_instructions / perf.instructions` is the
/// hit rate; the bail counters attribute every fallback to its cause.
struct SuperblockStats {
  u64 blocks_compiled = 0;
  u64 compile_rejects = 0;   // regions that failed static eligibility
  /// Hardware-loop plans moved to another copy of their body (the same
  /// words at a new pc) instead of compiling a plan there.
  u64 rebases = 0;
  u64 entries = 0;           // fused bursts entered
  /// Of entries, inner hardware loops run from inside a branch plan.
  u64 nested_entries = 0;
  u64 entry_rejects = 0;     // guard failures at entry (interpreter ran)
  u64 fused_iterations = 0;  // whole loop iterations retired fused
  /// Of fused_iterations, the 2x2 MatMul ones (SbShape::kConvInner)
  /// retired in whole runs instead of the generic op loop.
  u64 macro_iterations = 0;
  /// Hardware-loop runs of a macro-op shape (kConvInner, kCopyWords)
  /// retired in one host loop, each after one check per access stream.
  u64 whole_runs = 0;
  u64 fused_instructions = 0;
  u64 smc_bails = 0;   // self-modifying store hit the live block
  u64 trap_bails = 0;  // memory fault repaired to an exact boundary
  u64 invalidations = 0;  // plans evicted by stores / cache flushes
  /// Plans evicted because a write to the mpc CSR changed the selector
  /// their fused mixed dot ops had baked in (demote-and-recompile, never
  /// silently misfuse).
  u64 mpc_evictions = 0;
  /// Bursts repaired to an exact instruction boundary because the cycle
  /// counter crossed a sampling deadline mid-burst (xtel). Uses the same
  /// prefix-delta repair as smc_bails, so the surfaced counters are
  /// bit-identical to the interpreter's at that boundary.
  u64 sample_flushes = 0;
  /// Bursts repaired to an exact instruction boundary because the cycle
  /// counter reached a cluster burst horizon (run_burst). Same repair
  /// mechanism as sample_flushes; counted separately so burst-scheduling
  /// stats don't pollute telemetry flush counts.
  u64 burst_flushes = 0;
};

/// The field list of SuperblockStats (common/counters.hpp).
template <typename F, CounterRef<SuperblockStats>... S>
constexpr void for_each_counter(F&& f, S&&... s) {
  f("blocks_compiled", s.blocks_compiled...);
  f("compile_rejects", s.compile_rejects...);
  f("rebases", s.rebases...);
  f("entries", s.entries...);
  f("nested_entries", s.nested_entries...);
  f("entry_rejects", s.entry_rejects...);
  f("fused_iterations", s.fused_iterations...);
  f("macro_iterations", s.macro_iterations...);
  f("whole_runs", s.whole_runs...);
  f("fused_instructions", s.fused_instructions...);
  f("smc_bails", s.smc_bails...);
  f("trap_bails", s.trap_bails...);
  f("invalidations", s.invalidations...);
  f("mpc_evictions", s.mpc_evictions...);
  f("sample_flushes", s.sample_flushes...);
  f("burst_flushes", s.burst_flushes...);
}
static_assert(counter_slots<SuperblockStats>() * 8 == sizeof(SuperblockStats));

enum class HaltReason { kRunning, kEcall, kEbreak, kInstrLimit };

/// One data access recorded for deferred arbitration (cluster burst
/// scheduling): the exact coordinates the access hook would have observed —
/// the issuing instruction's pc and start cycle (the event-driven
/// scheduler's pick key) and the access's own cycle — all in the core's
/// pre-merge local clock, plus the access itself.
/// The access cycle is stored as its offset from `start` — the reference
/// charges arbiter stalls at the issuing instruction's end, so an access
/// never issues more than one instruction's own latency past its start
/// (hazards plus handler-internal charges, far below 2^16). Keeping the
/// record at 24 bytes matters: burst logs are written and re-read by the
/// millions, and their cache footprint is the dominant host cost of the
/// cluster burst scheduler.
struct BurstAccess {
  cycles_t start;
  addr_t pc;
  addr_t addr;
  u16 cycle_delta;
  u8 size;
  u8 is_store;
};

/// Complete architectural + accounting state of a Core at an instruction
/// boundary: everything needed to resume execution bit-identically (checked
/// by the differential snapshot tests on both dispatch paths). The decode
/// cache is deliberately absent — it is a host-side optimization that is
/// rebuilt on demand and must be invalidated whenever memory is restored
/// underneath the core.
struct CoreState {
  std::array<u32, 32> regs{};
  addr_t pc = 0;
  std::array<addr_t, 2> hwl_start{};
  std::array<addr_t, 2> hwl_end{};
  std::array<u32, 2> hwl_count{};
  u8 last_load_rd = 0;
  u32 last_load_data = 0;
  HaltReason halt = HaltReason::kRunning;
  u32 mscratch = 0;
  /// Precision-status CSR (mpc, 0x7C1): operand-format selector of the
  /// mixed virtual dot products. WARL, low two bits.
  u32 mpc = 0;
  PerfCounters perf;
  DotpState dotp;
};

class Core {
 public:
  Core(mem::Memory& mem, CoreConfig cfg = CoreConfig::extended());
  ~Core();  // out of line: SuperblockPlan is incomplete here

  /// Reset architectural state and start executing at `pc`. Clears the
  /// decode cache (call after loading a new program image) and rebases it
  /// at `pc`. When `code_end` (one past the last code byte) lies above
  /// `pc` the cache is pre-sized to cover [pc, code_end) so the hot loop
  /// never resizes; fetches outside that span rebase or grow it.
  void reset(addr_t pc, addr_t code_end = 0);

  u32 reg(unsigned r) const { return regs_[r & 31]; }
  void set_reg(unsigned r, u32 v) {
    if ((r & 31) != 0) regs_[r & 31] = v;
  }

  addr_t pc() const { return pc_; }
  bool halted() const { return halt_ != HaltReason::kRunning; }
  HaltReason halt_reason() const { return halt_; }

  /// Execute one instruction. Returns false once halted.
  bool step();

  /// Run until ecall/ebreak or until `max_instructions` more have retired;
  /// returns the reason. kInstrLimit means the budget ran out first: a run
  /// whose last budgeted instruction is the ecall reports kEcall, and
  /// run(0) retires nothing.
  HaltReason run(u64 max_instructions = 400'000'000);

  /// Execute up to `n` instructions (stopping early on halt) and return
  /// how many retired. Unlike run(), reaching `n` does not set the
  /// kInstrLimit halt reason — the core pauses at an exact instruction
  /// boundary, which is what checkpoint tooling needs to position
  /// snapshots at precise indices while the superblock engine is active
  /// (a fused burst never overshoots the remaining budget).
  u64 run_steps(u64 n);

  /// Execute until the first instruction boundary whose cycle count is at
  /// or past `horizon` (the final instruction may overshoot by its own
  /// latency), the core halts, or `max_instructions` retired; returns how
  /// many retired. Runs at full dispatch speed — fast path plus superblock
  /// bursts, which honor the horizon through the same due-threshold
  /// mechanism as the sampler (SuperblockStats::burst_flushes) — so the
  /// cluster burst scheduler can drain a core to a cycle horizon without
  /// dropping to per-instruction stepping. Never sets kInstrLimit.
  u64 run_burst(cycles_t horizon, u64 max_instructions);

  const PerfCounters& perf() const { return perf_; }
  void reset_perf() { perf_ = PerfCounters{}; }

  const CoreConfig& config() const { return cfg_; }
  mem::Memory& memory() { return mem_; }
  DotpUnit& dotp_unit() { return dotp_; }
  const DotpUnit& dotp_unit() const { return dotp_; }
  const TimingModel& timing() const { return timing_; }

  /// Optional per-instruction trace hook (pc, decoded instruction), invoked
  /// at the start of each instruction, before its stalls and effects are
  /// charged. Return true to stay attached; returning false detaches the
  /// hook after the call returns (the traced run loop then drops back to
  /// the zero-overhead untraced loop). Never reassign the hook from inside
  /// the callback — the core owns that transition.
  using TraceFn = std::function<bool(addr_t, const isa::Instr&)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }
  bool has_trace() const { return static_cast<bool>(trace_); }

  /// Optional telemetry sampling hook (obs::Sampler): invoked at the first
  /// instruction boundary where the cycle counter has reached the next
  /// multiple of `interval_cycles`, on every dispatch path — reference,
  /// fast, and superblock bursts (which repair to the exact boundary, see
  /// SuperblockStats::sample_flushes) — so all three produce identical
  /// sample series. Unlike the trace hook it does not keep the superblock
  /// engine cold. Detached cost contract: run() dispatches to a loop
  /// without the deadline compare, so no-sampler runs are bit-identical in
  /// host cost to a build without the hook (guarded by bench_host's
  /// sampler section). Attach/detach only at an instruction boundary
  /// outside run().
  using SampleFn = std::function<void()>;
  void set_sampler(SampleFn fn, cycles_t interval_cycles);
  bool has_sampler() const { return static_cast<bool>(sampler_); }
  cycles_t sample_interval() const { return sample_interval_; }
  /// First instruction boundary cycle at which the sampler will fire next
  /// (~0 when no sampler is attached). The cluster burst scheduler bounds
  /// burst horizons away from this so samples fire on the exact reference
  /// boundary.
  cycles_t next_sample_due() const { return sample_due_; }

  /// Exact reference-interleaving coordinates of the data access currently
  /// flowing through the memory access hook: the pc of the accessing
  /// instruction, the cycle at which that instruction started (the
  /// event-driven scheduler's pick key), and the cycle at which the access
  /// reaches the interconnect. Valid only from inside an access hook. On
  /// the interpreter paths these are live core state; inside a fused
  /// superblock burst they come from a per-op latch that folds in the
  /// batched static cycle deltas, so the values are bit-identical to what
  /// the interpreter would have reported for the same access.
  addr_t access_pc() const { return sb_active_ != nullptr ? hook_pc_ : pc_; }
  cycles_t access_start() const {
    return sb_active_ != nullptr ? hook_start_ : step_start_;
  }
  cycles_t access_cycle() const {
    return sb_active_ != nullptr ? hook_cycle_ : perf_.cycles;
  }

  /// Deferred-arbitration support (cluster burst scheduling): charge `n`
  /// interconnect stall cycles exactly as an access hook returning them at
  /// access time would have (cycles + mem_stall_cycles; the shared
  /// MemStats side is Memory::add_contention_stalls). Only valid at an
  /// instruction boundary.
  void charge_deferred_stalls(u64 n) {
    perf_.cycles += n;
    perf_.mem_stall_cycles += n;
  }

  /// Direct-log sink for deferred arbitration: while set, the superblock
  /// slim path appends each aligned in-bounds data access here — with the
  /// same exact coordinates the hook latches would report — instead of
  /// routing it through the memory access hook, and treats the hook as
  /// stall-free for its per-iteration dynamic bound. Only meaningful when
  /// the installed access hook itself logs-and-returns-zero (the cluster's
  /// burst phase); accesses outside the slim fast path (interpreter steps,
  /// misaligned, handler-internal) still flow through that hook, appending
  /// to the same vector in program order.
  void set_burst_sink(std::vector<BurstAccess>* sink) { burst_sink_ = sink; }

  /// Optional pre-run gate: invoked by reset(pc, code_end) with the loaded
  /// memory and the code extent [pc, code_end) whenever code_end is
  /// nonzero, *before* any instruction executes. The static analyzer
  /// (analysis::make_pre_run_gate) installs itself here; a gate vetoes the
  /// run by throwing.
  using PreRunGate =
      std::function<void(const mem::Memory&, addr_t entry, addr_t code_end)>;
  void set_pre_run_gate(PreRunGate g) { pre_run_gate_ = std::move(g); }

  const SuperblockStats& superblock_stats() const { return sb_stats_; }
  /// Ops compiled into superblock plans so far, by SbKind
  /// (sim/superblock.hpp), inner-loop bodies included: host-side coverage
  /// of the fused loop's op kinds, reset with the plans by reset().
  u64 superblock_ops_compiled(SbKind k) const;

  // ---- Snapshot/restore (src/ckpt) ----

  /// Capture the full architectural + accounting state. Only meaningful at
  /// an instruction boundary (between step() calls / after run() returns).
  CoreState save_state() const;

  /// Restore a previously captured state. Does not touch the decode cache:
  /// call invalidate_decode_cache() as well whenever the backing memory
  /// was restored or mutated from the host side.
  void restore_state(const CoreState& s);

  /// Drop every cached decode (host-side corruption of instruction memory,
  /// memory restore).
  void invalidate_decode_cache();

  /// Parcels (2-byte slots) the decode cache currently spans: the code
  /// the core has fetched or was reset over, plus growth slack.
  size_t decode_cache_parcels() const { return icache_valid_.size(); }

  /// Degrade (or re-enable) ISA tiers at run time — the fault-injection
  /// model of a failing XpulpNN/XpulpV2 functional unit, and the hook the
  /// recovery path uses to fall back to a lower-tier kernel. Takes effect
  /// from the next executed instruction on both dispatch paths.
  void set_isa_features(bool xpulpv2, bool xpulpnn, bool hwloops);

 private:
  const isa::Instr& fetch_decode(addr_t pc);

  /// Fast-path fetch: the decode-cache hit test inlines into step_fast();
  /// only misses go through the out-of-line fetch_decode(). The reference
  /// path keeps calling fetch_decode() directly, preserving the pre-PR
  /// per-step call.
  const isa::Instr& fetch_decode_fast(addr_t pc) {
    // Below the base the subtraction wraps past every valid index.
    const u32 idx = (pc - icache_base_) >> 1;
    if (idx < icache_valid_.size() && icache_valid_[idx]) [[likely]] {
      return icache_[idx];
    }
    return fetch_decode(pc);
  }

  /// Fast path: one instruction via the predecoded handler table, reading
  /// the packed Instr flags. `Traced` is a compile-time knob so untraced
  /// runs pay zero trace overhead.
  template <bool Traced>
  bool step_fast();
  /// The fast-dispatch run loop behind run(), run_steps() and run_burst():
  /// retire up to `budget` instructions, stopping early on halt or at the
  /// first boundary whose cycle count reaches `horizon`; returns how many
  /// retired. Enters superblock bursts when untraced. `Sampled` compiles
  /// the sampling-deadline compare into the loop, so a core without a
  /// sampler pays nothing for it.
  template <bool Traced, bool Sampled>
  u64 run_loop(u64 budget, cycles_t horizon);
  /// The one loop behind run(), run_steps() and run_burst(): reference
  /// dispatch steps through step_reference(), the fast path picks the
  /// run_loop instantiation for the attached hooks.
  u64 run_bounded(u64 budget, cycles_t horizon);

  /// Advance the sampling deadline past the current cycle count, then
  /// invoke the hook. Out of line: the run loops only pay the compare.
  void sample_fire();

  /// Reference path: the pre-optimization interpreter, byte-for-byte —
  /// mnemonic switch dispatch plus per-step isa:: predicate calls.
  bool step_reference();
  void execute_reference(const isa::Instr& in);

  /// Hardware-loop back-edge check after a fall-through instruction ending
  /// at `after`; shared by both step paths.
  void hwloop_backedge(addr_t after);

  // Execution helpers (defined in core.cpp). The semantic bodies are
  // shared between the reference switch and the handler table, so both
  // dispatch modes run identical semantics/timing; only classification
  // work differs (decode-time for the fast path, per-step for reference).
  void exec_lui(const isa::Instr& in);
  void exec_auipc(const isa::Instr& in);
  void alu_body(const isa::Instr& in, u32 b);
  void exec_alu(const isa::Instr& in);      // reference: imm-vs-reg chain
  void exec_alu_imm(const isa::Instr& in);  // fast: class-resolved
  void exec_alu_reg(const isa::Instr& in);
  void mem_body(const isa::Instr& in, unsigned size, bool store, bool sext);
  void exec_mem(const isa::Instr& in);            // fast: packed flags
  void exec_mem_reference(const isa::Instr& in);  // reference: isa:: calls
  void exec_branch_jump(const isa::Instr& in);
  void exec_muldiv(const isa::Instr& in);
  void exec_pulp_scalar(const isa::Instr& in);
  void exec_hwloop(const isa::Instr& in);
  void exec_simd(const isa::Instr& in);  // reference: predicate chain
  void exec_simd_alu(const isa::Instr& in);
  void exec_simd_dotp(const isa::Instr& in);
  void exec_simd_dotp_fast(const isa::Instr& in);  // decode-specialized lanes
  void exec_simd_elem(const isa::Instr& in);
  void exec_simd_qnt(const isa::Instr& in);
  void exec_csr_system(const isa::Instr& in);
  void exec_fence(const isa::Instr& in);
  void exec_ecall(const isa::Instr& in);
  void exec_ebreak(const isa::Instr& in);
  void exec_illegal(const isa::Instr& in);

  using ExecFn = void (Core::*)(const isa::Instr&);
  static const std::array<ExecFn,
                          static_cast<size_t>(isa::ExecClass::kCount)>
      kExecTable;

  u32 csr_read(u32 addr) const;

  void require(bool cond, const isa::Instr& in);

  /// Decode-cache coherence: drop cached decodes covering a stored-to
  /// range (self-modifying code support). Also evicts (or dirties, when
  /// live) overlapping superblock plans — one invalidation path for both
  /// caches. Inline, a store that misses the decode cache's span (a
  /// 32-bit instruction one parcel below a store covers it too) and the
  /// plans' extent costs a few compares.
  void icache_invalidate(addr_t a, unsigned size) {
    const u64 lo = a;
    const u64 hi = lo + size;
    const u64 parcels = icache_valid_.size();
    if ((parcels != 0 && hi > icache_base_ &&
         lo < icache_base_ + 2 * parcels + 2) ||
        (!sb_plans_.empty() && hi > sb_lo_ && lo < sb_hi_)) {
      icache_invalidate_range(a, size);
    }
  }
  void icache_invalidate_range(addr_t a, unsigned size);

  // ---- Superblock engine (sim/superblock.cpp) ----

  /// Compile-if-needed and run a fused burst at `start` with at most
  /// `budget` instructions; returns how many retired (0 = fall back to
  /// the interpreter). `branch_pc` is nonzero for backward-branch
  /// candidates (the recorded backedge), zero for hardware-loop ones.
  u64 superblock_enter(addr_t start, addr_t branch_pc, u64 budget);
  SuperblockPlan* sb_find(addr_t start);
  SuperblockPlan* sb_compile(addr_t start, addr_t branch_pc);
  /// Compile the region [start, end) into `plan`: a hardware-loop body
  /// (`branch_pc` == 0) or the body of the backward branch at `branch_pc`
  /// (== end), which may contain hardware loops one level deep. False
  /// when the region is not eligible.
  bool sb_build(SuperblockPlan& plan, addr_t start, addr_t end,
                addr_t branch_pc);
  u64 sb_execute(SuperblockPlan& plan, u64 budget);
  /// Retire `k` iterations of a kConvInner or kCopyWords plan in one host
  /// loop, the first starting at cycle `t0` (its entry hazard `hz`
  /// included), with the latches in `s`; registers, memory and the burst
  /// sink move, counters do not. False, touching nothing, when an access
  /// stream is misaligned or leaves memory, or a copy could store into
  /// cached code or a plan.
  bool sb_run_whole(const SuperblockPlan& p, u64 k, unsigned hz, cycles_t t0,
                    SbLatches& s);
  /// Run hardware loop `l`, whose body is the whole-run shape `p`, to its
  /// end without a burst: from superblock_enter, or in place from a
  /// branch plan's kInnerLoop op (`nested`), whose burst lends its LSU
  /// latch `lld` / `toggles` and passes the true cycle `t0`. Returns the
  /// instructions retired, 0 (touching nothing) when the run does not
  /// qualify: a memory mode or entry guard a burst would reject, a budget
  /// short of the loop's end, a deadline the run could reach, or a
  /// failed stream check. A nested run charges its cycles and leaves the
  /// rest of its static accounting to the burst's exit (sb_settle_inner).
  u64 sb_enter_whole(SuperblockPlan& p, unsigned l, u64 budget, cycles_t t0,
                     u32& lld, u64& toggles, bool nested);
  /// Apply the static accounting and stats the in-place runs of `plan`'s
  /// inner loops deferred: one scaled add per body per burst.
  void sb_settle_inner(SuperblockPlan& plan);
  /// Apply whole-run plan `p`'s pending static accounting (its cycles
  /// too when `with_cycles`; a nested run charged them eagerly) and stats.
  void sb_settle(SuperblockPlan& p, bool with_cycles);
  /// `Sampled` arms per-iteration/per-op sampling-deadline checks that
  /// repair the burst to an exact boundary via the plan's op prefixes.
  /// `nested` runs an inner loop of the active branch plan.
  template <bool Sampled>
  u64 sb_execute_impl(SuperblockPlan& plan, u64 budget, bool nested = false);
  void sb_exit(SuperblockPlan& plan);
  /// Heat counter for the taken backward conditional branch at
  /// `branch_pc`. Promotes the target to a superblock candidate past the
  /// threshold, or at once when it already has a plan.
  void sb_note_backedge(addr_t branch_pc, addr_t target);
  /// The same for a backedge of hardware loop `l`, whose heat is keyed by
  /// its body's shape (sb_loop_key), so every copy of one body shares a
  /// counter and, once compiled, a plan.
  void sb_note_loop_backedge(unsigned l);
  /// Shape key of hardware loop `l`'s body: a hash of its words and
  /// length, computed once per loop setup and cached in hwl_key_. A body
  /// holding an auipc also hashes its start pc (its plan is pinned there).
  u64 sb_loop_key(unsigned l);
  /// The plan for live hardware loop `l`: its shape's compiled plan when
  /// that sits at the loop's start or, rebased, can move there (its words
  /// match this copy of the body), else the plan indexed at the start pc
  /// (nullptr when there is none).
  SuperblockPlan* sb_find_loop(unsigned l);
  /// Move roaming `plan` to `start`; returns the plan now there (a plan
  /// pinned at `start` wins, and `plan` stays).
  SuperblockPlan* sb_rebase(SuperblockPlan& plan, addr_t start);
  /// Drop a heat entry's link to its plan. A roaming plan no entry finds
  /// any more is pinned at its pc (or freed when another plan is).
  struct SbHeatEntry;
  void sb_unlink(SbHeatEntry& e);
  /// Free a plan: its shape link, pc index entry and storage.
  void sb_erase(SuperblockPlan& p);
  /// Evict every plan `hit` selects (a live one is flagged dead instead).
  template <typename Hit>
  void sb_evict_if(Hit hit);
  void sb_invalidate_range(addr_t a, unsigned size);
  void sb_recompute_extent();
  /// Evict plans whose fused mixed dot ops baked a now-stale mpc selector
  /// (called on every value-changing mpc write).
  void sb_evict_mixed_plans();
  /// Drop every plan, reject record, heat entry and pending candidate
  /// (reset, decode-cache flush, ISA feature change).
  void sb_clear();

  /// The live hardware loop (L0 first) starting at `start`, or -1.
  int live_loop_at(addr_t start) const {
    for (unsigned l = 0; l < 2; ++l) {
      if (hwl_count_[l] > 0 && hwl_start_[l] == start) return static_cast<int>(l);
    }
    return -1;
  }

  void update_hwl_active() {
    hwl_active_ = hwl_count_[0] != 0 || hwl_count_[1] != 0;
  }

  mem::Memory& mem_;
  CoreConfig cfg_;
  TimingModel timing_;
  DotpUnit dotp_;
  QuantUnit qnt_;

  std::array<u32, 32> regs_{};
  addr_t pc_ = 0;
  addr_t next_pc_ = 0;
  bool redirect_ = false;  // set by taken branches/jumps during execute()

  // Hardware loop register file: two nested loops, L0 innermost.
  std::array<addr_t, 2> hwl_start_{};
  std::array<addr_t, 2> hwl_end_{};
  std::array<u32, 2> hwl_count_{};
  /// Host-side shape key of each loop's body (sb_loop_key), 0 until
  /// computed; any change to a loop's bounds resets it.
  std::array<u64, 2> hwl_key_{};

  u8 last_load_rd_ = 0;  // destination of the previous load (0 = none)
  u32 last_load_data_ = 0;
  HaltReason halt_ = HaltReason::kRunning;
  u32 mscratch_ = 0;
  /// Precision-status CSR (mpc, 0x7C1). Writes evict superblock plans
  /// that baked the old selector into their fused dot ops.
  u32 mpc_ = 0;

  /// True while either hardware loop has a nonzero count, so the fast
  /// step skips the back-edge comparison entirely outside loops.
  bool hwl_active_ = false;

  /// iflag:: feature bits *not* provided by this config; decoded flags
  /// ANDed against it replace the per-step require() chains.
  u16 feature_guard_ = 0;

  PerfCounters perf_;
  TraceFn trace_;
  PreRunGate pre_run_gate_;

  /// Sampling hook state. kNoSampleDue makes the `cycles >= sample_due_`
  /// deadline compare unreachable when no sampler is attached (the cycle
  /// counter cannot reach ~0), so runtime-checked paths (step(), the
  /// reference loop) need no second branch on sampler_.
  static constexpr cycles_t kNoSampleDue = ~cycles_t{0};
  SampleFn sampler_;
  cycles_t sample_interval_ = 0;
  cycles_t sample_due_ = kNoSampleDue;

  /// Cluster burst horizon, set only while run_burst() is live. Fused
  /// superblock bursts treat min(sample_due_, burst_due_) as the effective
  /// deadline, so both repair to exact boundaries through one mechanism.
  cycles_t burst_due_ = kNoSampleDue;

  std::vector<BurstAccess>* burst_sink_ = nullptr;
  /// Access-coordinate latches (see access_pc/access_start/access_cycle).
  /// step_start_ is written once per interpreted instruction; the hook_*
  /// trio only inside fused superblock bursts, per op that can reach the
  /// access hook.
  cycles_t step_start_ = 0;
  addr_t hook_pc_ = 0;
  cycles_t hook_start_ = 0;
  cycles_t hook_cycle_ = 0;

  // Decode cache over the program's code span: slot i holds the decode
  // at icache_base_ + 2i. The base is always even. Slots are allocated but
  // never constructed: one is written before its valid bit is set and read
  // only behind it, so a fresh core touches only the slots it decodes.
  struct IcacheFree {
    void operator()(isa::Instr* p) const { ::operator delete(p); }
  };
  std::unique_ptr<isa::Instr[], IcacheFree> icache_;
  u32 icache_cap_ = 0;  // allocated slots; icache_valid_.size() are in use
  std::vector<u8> icache_valid_;
  addr_t icache_base_ = 0;
  /// Move the decode cache into `cap` fresh slots, its current slots
  /// landing `shift` slots up.
  void icache_realloc(u32 cap, u32 shift);

  // ---- Superblock engine state (host-side, never serialized) ----
  static constexpr addr_t kNoSbCandidate = ~addr_t{0};
  static constexpr unsigned kSbHeatSize = 64;  // direct-mapped, power of 2
  static constexpr unsigned kSbHeatThreshold = 16;
  static constexpr size_t kSbMaxOps = 128;

  static unsigned heat_slot(u64 key) {
    return static_cast<unsigned>(key >> 1) & (kSbHeatSize - 1);
  }

  struct SbHeatEntry {
    u64 key = 0;  // branch pc, or a hardware loop's shape key
    /// Hardware loops: the shape's compiled plan, wherever it sits now
    /// (sb_erase clears the link before the plan is freed).
    SuperblockPlan* plan = nullptr;
    u16 count = 0;
    /// The shape failed to compile: never promoted again (the key covers
    /// the body's words, so patched code hashes to a fresh entry).
    bool rejected = false;
  };

  /// Block start the run loop should try to fuse at the next instruction
  /// boundary (set by hot loop backedges, and by hwloop setup when the
  /// loop already has a plan).
  addr_t sb_candidate_ = kNoSbCandidate;
  addr_t sb_candidate_branch_ = 0;  // backedge pc for branch candidates
  /// Start and backedge of the latest compiled branch plan: the fast step
  /// makes it the candidate whenever execution reaches its start.
  addr_t sb_fallin_ = kNoSbCandidate;
  addr_t sb_fallin_branch_ = 0;
  /// Every compiled plan.
  std::vector<std::unique_ptr<SuperblockPlan>> sb_plans_;
  /// Plans pinned to their start pc, by that pc (at most one per pc):
  /// branch plans, and hardware-loop plans that cannot roam. Roaming plans
  /// are found through their shape's heat entry only, so moving one to
  /// another copy of its body touches no index.
  std::unordered_map<addr_t, SuperblockPlan*> sb_at_;
  /// Ops compiled by SbKind (superblock_ops_compiled); slots past
  /// SbKind::kCount stay 0.
  std::array<u64, 48> sb_kind_ops_{};
  /// Regions that failed static eligibility, so hot-but-uncompilable
  /// loops don't re-walk the block on every backedge. Range-keyed: a
  /// store into the region clears the record (the patched code may now
  /// compile).
  std::vector<std::pair<addr_t, addr_t>> sb_rejects_;
  addr_t sb_lo_ = 0, sb_hi_ = 0;  // union extent of plans (store filter)
  SuperblockPlan* sb_active_ = nullptr;  // plan a burst is executing now
  bool sb_active_dirty_ = false;  // live plan was stored into (SMC bail)
  /// Backedge heat, one direct-mapped table per loop kind: [0] branch
  /// loops keyed by the branch pc, [1] hardware loops by their body's
  /// shape key, which also links the shape to its plan. Separate tables
  /// keep the per-pixel hardware loops (im2col) from evicting the counter
  /// of a branch loop re-entered between them.
  std::array<std::array<SbHeatEntry, kSbHeatSize>, 2> sb_heat_{};
  SuperblockStats sb_stats_;
};

}  // namespace xpulp::sim
