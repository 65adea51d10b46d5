#include "sim/core.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "isa/decoder.hpp"
#include "sim/dotp_lanes.hpp"
#include "sim/scalar_ops.hpp"
#include "sim/superblock.hpp"

namespace xpulp::sim {

using isa::Instr;
using isa::Mnemonic;
namespace iflag = isa::iflag;

/// Reset rounds the decode cache's capacity up to a multiple of this many
/// parcels: programs reset on one core in turn (streamed tiles) differ by
/// a few parcels. Small, because every core of a cluster pays it in RSS.
constexpr u32 kIcacheRound = 256;

std::string perf_invariant_violation(const PerfCounters& p) {
  const auto diag = [](const char* what, u64 lhs, u64 rhs) {
    return std::string(what) + ": " + std::to_string(lhs) +
           " != " + std::to_string(rhs);
  };
  const u64 stalls = perf_stall_cycles(p);
  if (p.cycles != p.instructions + stalls) {
    return diag("cycles != instructions + stall cycles", p.cycles,
                p.instructions + stalls);
  }
  if (p.mac_ops > p.mul_ops || p.mac_ops > p.scalar_alu_ops) {
    return diag("mac_ops exceeds its parent class counters", p.mac_ops,
                std::min(p.mul_ops, p.scalar_alu_ops));
  }
  const u64 classes = perf_class_ops(p);
  if (classes != p.instructions) {
    return diag("class counters don't sum to instructions", classes,
                p.instructions);
  }
  const u64 branches = p.taken_branches + p.not_taken_branches;
  if (p.hwloop_backedges > p.cycles || branches + p.jumps > p.instructions) {
    return "control-flow counters exceed run totals";
  }
  return {};
}

Core::Core(mem::Memory& mem, CoreConfig cfg)
    : mem_(mem), cfg_(std::move(cfg)), dotp_(cfg_.clock_gating) {
  feature_guard_ =
      static_cast<u16>((cfg_.xpulpv2 ? 0 : iflag::kNeedXpulpV2) |
                       (cfg_.xpulpnn ? 0 : iflag::kNeedXpulpNN) |
                       (cfg_.hwloops ? 0 : iflag::kNeedHwloops));
  // Size the plan index once, up front: rehashing it mid-run allocates
  // while a layer's large buffers are live, which fragmented the heap
  // (+0.5 MB peak RSS on qnnbench net-mixed).
  sb_at_.reserve(kSbHeatSize);
}

Core::~Core() = default;

void Core::reset(addr_t pc, addr_t code_end) {
  regs_.fill(0);
  // Stack pointer at the top of SRAM by convention; programs may override.
  regs_[2] = mem_.size();
  pc_ = pc;
  next_pc_ = pc;
  hwl_start_.fill(0);
  hwl_end_.fill(0);
  hwl_count_.fill(0);
  hwl_key_.fill(0);
  hwl_active_ = false;
  last_load_rd_ = 0;
  halt_ = HaltReason::kRunning;
  mpc_ = 0;
  icache_base_ = pc & ~addr_t{1};
  sb_clear();
  sb_stats_ = SuperblockStats{};
  sb_kind_ops_.fill(0);
  // Pre-size the decode cache to the program's span so the run loop never
  // pays a resize, and stores outside it cost a compare or two; without a
  // span it starts empty, at the first fetch. icache_valid_ bounds the
  // span; icache_ only grows, and its slots are never initialized (a slot
  // is read only behind its valid bit), so a core reset to a program of
  // about the same size (the next streamed tile) neither reallocates nor
  // touches them. Its capacity is rounded up (kIcacheRound): the next
  // tile's program may be a few parcels longer, and growing past an exact
  // capacity would copy the cache.
  const u32 parcels =
      code_end > icache_base_ && icache_base_ < mem_.size()
          ? static_cast<u32>(
                (std::min<u64>(code_end, mem_.size()) - icache_base_ + 1) >> 1)
          : 0;
  icache_valid_.clear();  // nothing to carry into a new allocation
  if (icache_cap_ < parcels) {
    icache_realloc((parcels + kIcacheRound - 1) / kIcacheRound * kIcacheRound,
                   0);
  }
  icache_valid_.assign(parcels, 0);
  if (pre_run_gate_ && code_end > pc) {
    pre_run_gate_(mem_, pc, code_end);
  }
}

const Instr& Core::fetch_decode(addr_t pc) {
  u32 idx = (pc - icache_base_) >> 1;
  if (idx < icache_valid_.size() && icache_valid_[idx]) return icache_[idx];

  // Cold path. Fetch the parcels first so a wild pc faults before the
  // cache allocates anything: 16-bit parcels; a 32-bit fetch at the end of
  // memory must not fault if the instruction is compressed.
  const u16 low = mem_.load_u16(pc);
  u32 raw = low;
  if (!isa::is_compressed(low)) raw |= static_cast<u32>(mem_.load_u16(pc + 2)) << 16;

  // Both resizes grow geometrically: resizing to just cover pc would
  // re-copy the whole cache on every miss outside it (O(n^2) in fetched
  // code size).
  const u32 parcels = static_cast<u32>(icache_valid_.size());
  if (parcels == 0) {
    // An empty cache (fresh core, restored state) starts at this fetch.
    icache_base_ = pc & ~addr_t{1};
  } else if (pc < icache_base_) {
    // A fetch below the span (a callee placed under the entry) moves the
    // base down, keeping every cached decode at its address.
    const u32 need = (icache_base_ - (pc & ~addr_t{1})) >> 1;
    const u32 shift =
        std::min(std::max({need, parcels, 4096u}), icache_base_ >> 1);
    icache_realloc(std::max(icache_cap_, parcels + shift), shift);
    icache_valid_.insert(icache_valid_.begin(), shift, u8{0});
    icache_base_ -= shift * 2;
  }
  idx = (pc - icache_base_) >> 1;
  if (idx >= icache_valid_.size()) {
    // Every in-bounds pc at or above the base fits under the cap.
    const u32 cap = (mem_.size() - icache_base_ + 1) >> 1;
    const u32 new_size =
        std::min(std::max({4096u, parcels * 2, idx + 1}), cap);
    if (icache_cap_ < new_size) icache_realloc(new_size, 0);
    icache_valid_.resize(new_size, 0);
  }
  icache_[idx] = isa::decode(raw, pc);
  icache_valid_[idx] = 1;
  return icache_[idx];
}

void Core::icache_realloc(u32 cap, u32 shift) {
  static_assert(std::is_trivially_copyable_v<isa::Instr>);
  std::unique_ptr<isa::Instr[], IcacheFree> slots(static_cast<isa::Instr*>(
      ::operator new(sizeof(isa::Instr) * size_t{cap})));
  if (!icache_valid_.empty()) {
    std::memcpy(slots.get() + shift, icache_.get(),
                sizeof(isa::Instr) * icache_valid_.size());
  }
  icache_ = std::move(slots);
  icache_cap_ = cap;
}

void Core::icache_invalidate_range(addr_t a, unsigned size) {
  // Superblock coherence rides the same store path: two compares when any
  // plan exists, a slow-path walk only on actual overlap.
  if (!sb_plans_.empty() && static_cast<u64>(a) + size > sb_lo_ &&
      a < sb_hi_) [[unlikely]] {
    sb_invalidate_range(a, size);
  }
  const u32 limit = static_cast<u32>(icache_valid_.size());
  if (limit == 0) return;
  const addr_t last = a + size - 1;
  if (last < icache_base_) return;  // wholly below the span
  // A 32-bit instruction starting one parcel below the store covers the
  // stored parcel too.
  const u32 first = a > icache_base_ ? (a - icache_base_) >> 1 : 0;
  const u32 lo = first == 0 ? 0 : first - 1;
  if (lo >= limit) return;
  const u32 hi = std::min((last - icache_base_) >> 1, limit - 1);
  for (u32 i = lo; i <= hi; ++i) icache_valid_[i] = 0;
}

void Core::require(bool cond, const Instr& in) {
  if (!cond) throw IllegalInstruction(pc_, in.raw);
}

void Core::invalidate_decode_cache() {
  std::fill(icache_valid_.begin(), icache_valid_.end(), 0);
  sb_stats_.invalidations += sb_plans_.size();
  sb_clear();
}

void Core::set_isa_features(bool xpulpv2, bool xpulpnn, bool hwloops) {
  cfg_.xpulpv2 = xpulpv2;
  cfg_.xpulpnn = xpulpnn;
  cfg_.hwloops = hwloops;
  // Eligibility (feature guards) baked into compiled plans changed.
  sb_clear();
  feature_guard_ =
      static_cast<u16>((xpulpv2 ? 0 : iflag::kNeedXpulpV2) |
                       (xpulpnn ? 0 : iflag::kNeedXpulpNN) |
                       (hwloops ? 0 : iflag::kNeedHwloops));
}

CoreState Core::save_state() const {
  CoreState s;
  s.regs = regs_;
  s.pc = pc_;
  s.hwl_start = hwl_start_;
  s.hwl_end = hwl_end_;
  s.hwl_count = hwl_count_;
  s.last_load_rd = last_load_rd_;
  s.last_load_data = last_load_data_;
  s.halt = halt_;
  s.mscratch = mscratch_;
  s.mpc = mpc_;
  s.perf = perf_;
  s.dotp = dotp_.state();
  return s;
}

void Core::restore_state(const CoreState& s) {
  regs_ = s.regs;
  pc_ = s.pc;
  // next_pc_/redirect_ only live inside a step; a boundary snapshot
  // resumes with the restored pc.
  next_pc_ = s.pc;
  redirect_ = false;
  hwl_start_ = s.hwl_start;
  hwl_end_ = s.hwl_end;
  hwl_count_ = s.hwl_count;
  hwl_key_.fill(0);
  update_hwl_active();
  last_load_rd_ = s.last_load_rd;
  last_load_data_ = s.last_load_data;
  halt_ = s.halt;
  mscratch_ = s.mscratch;
  // Plans that baked the pre-restore mpc selector into fused mixed dot
  // ops would misfuse under the restored value.
  if (mpc_ != s.mpc) sb_evict_mixed_plans();
  mpc_ = s.mpc;
  perf_ = s.perf;
  dotp_.restore(s.dotp);
  // Compiled plans stay valid as long as the code bytes do (same contract
  // as the decode cache: callers invalidate when memory was restored), but
  // a pending fuse candidate refers to the pre-restore control flow.
  sb_candidate_ = kNoSbCandidate;
  sb_candidate_branch_ = 0;
}

void Core::set_sampler(SampleFn fn, cycles_t interval_cycles) {
  if (fn && interval_cycles != 0) {
    sampler_ = std::move(fn);
    sample_interval_ = interval_cycles;
    sample_due_ = (perf_.cycles / interval_cycles + 1) * interval_cycles;
  } else {
    sampler_ = {};
    sample_interval_ = 0;
    sample_due_ = kNoSampleDue;
  }
}

void Core::sample_fire() {
  // Advance first: the deadline lands on the next interval multiple past
  // the cycle count *at the fired boundary*, so a long-stalling instruction
  // that crosses several intervals yields one sample (the interpreter and
  // the burst repair path agree on this by construction).
  sample_due_ = (perf_.cycles / sample_interval_ + 1) * sample_interval_;
  sampler_();
}

bool Core::step() {
  bool alive;
  if (cfg_.reference_dispatch) {
    alive = step_reference();
  } else {
    alive = trace_ ? step_fast<true>() : step_fast<false>();
  }
  if (perf_.cycles >= sample_due_) [[unlikely]] sample_fire();
  return alive;
}

// Forced inline: left to its heuristics, GCC inlines this into the cold
// traced run loop and calls it out of line from the hot untraced one.
template <bool Traced>
[[gnu::always_inline]] inline bool Core::step_fast() {
  if (halted()) return false;
  const Instr& in = fetch_decode_fast(pc_);
  if constexpr (Traced) {
    // Detach-on-false: the callback must not reassign trace_ itself (that
    // would destroy the std::function mid-call); the core drops it here,
    // after the call has returned.
    if (!trace_(pc_, in)) trace_ = {};
  }
  const u16 f = in.flags;
  // Instruction-start cycle, before any stall is charged: the event-driven
  // cluster scheduler's pick key for this instruction (access_start()).
  step_start_ = perf_.cycles;

  // Load-use hazard: the previous instruction was a load and we consume its
  // destination register now.
  if (last_load_rd_ != 0) {
    const bool hazard = ((f & iflag::kReadsRs1) && in.rs1 == last_load_rd_) ||
                        ((f & iflag::kReadsRs2) && in.rs2 == last_load_rd_) ||
                        ((f & iflag::kReadsRd) && in.rd == last_load_rd_);
    if (hazard) {
      perf_.cycles += timing_.load_use_penalty;
      perf_.load_use_stall_cycles += timing_.load_use_penalty;
    }
  }

  next_pc_ = pc_ + in.size;
  redirect_ = false;
  // Without clock gating the EX-stage operand bus toggles every multiplier
  // region on every instruction (the power-management knob of Table III).
  if (!cfg_.clock_gating) {
    dotp_.broadcast_operands(reg(in.rs1), reg(in.rs2));
  }
  if (f & feature_guard_) throw IllegalInstruction(pc_, in.raw);
  // Direct calls for the two classes that dominate QNN kernels (loads/
  // stores and dot products) let the compiler inline them here; everything
  // else goes through the handler table's indirect call.
  if (in.cls == isa::ExecClass::kMem) {
    exec_mem(in);
  } else if (in.cls == isa::ExecClass::kSimdDotp) {
    exec_simd_dotp_fast(in);
  } else {
    (this->*kExecTable[static_cast<size_t>(in.cls)])(in);
  }

  perf_.instructions += 1;
  perf_.cycles += 1;

  last_load_rd_ = (f & iflag::kIsLoad) ? in.rd : 0;

  if (!redirect_ && hwl_active_) {
    // Inline filter: most loop-body instructions are not at a loop end, so
    // skip the out-of-line backedge handler on the common path.
    const addr_t after = pc_ + in.size;
    if (after == hwl_end_[0] || after == hwl_end_[1]) hwloop_backedge(after);
  }
  // A do-while loop's first iteration arrives by falling into its start,
  // not by a backedge: enter the latest branch plan that way too.
  if (next_pc_ == sb_fallin_) [[unlikely]] {
    sb_candidate_ = sb_fallin_;
    sb_candidate_branch_ = sb_fallin_branch_;
  }

  pc_ = next_pc_;
  return !halted();
}

bool Core::step_reference() {
  if (halted()) return false;
  const Instr& in = fetch_decode(pc_);
  if (trace_ && !trace_(pc_, in)) trace_ = {};
  step_start_ = perf_.cycles;

  if (last_load_rd_ != 0) {
    const bool hazard = (isa::reads_rs1(in) && in.rs1 == last_load_rd_) ||
                        (isa::reads_rs2(in) && in.rs2 == last_load_rd_) ||
                        (isa::reads_rd(in) && in.rd == last_load_rd_);
    if (hazard) {
      perf_.cycles += timing_.load_use_penalty;
      perf_.load_use_stall_cycles += timing_.load_use_penalty;
    }
  }

  next_pc_ = pc_ + in.size;
  redirect_ = false;
  if (!cfg_.clock_gating) {
    dotp_.broadcast_operands(reg(in.rs1), reg(in.rs2));
  }
  execute_reference(in);

  perf_.instructions += 1;
  perf_.cycles += 1;

  last_load_rd_ = isa::is_load(in.op) ? in.rd : 0;

  if (!redirect_ && cfg_.hwloops) hwloop_backedge(pc_ + in.size);

  pc_ = next_pc_;
  return !halted();
}

void Core::hwloop_backedge(addr_t after) {
  // Hardware-loop back-edges (zero overhead). Only on fall-through paths;
  // inner loop L0 has priority over L1.
  for (unsigned l = 0; l < 2; ++l) {
    if (after == hwl_end_[l] && hwl_count_[l] > 0) {
      if (hwl_count_[l] > 1) {
        hwl_count_[l] -= 1;
        next_pc_ = hwl_start_[l];
        perf_.hwloop_backedges += 1;
        if (cfg_.superblock && !cfg_.reference_dispatch) {
          // Promote on backedge heat like branch loops, counted per body
          // shape: a loop with a few trips compiles only when copies of
          // its body are hot together.
          sb_note_loop_backedge(l);
        }
      } else {
        hwl_count_[l] = 0;  // final iteration: fall through
        update_hwl_active();
      }
      break;
    }
  }
}

HaltReason Core::run(u64 max_instructions) {
  run_bounded(max_instructions, kNoSampleDue);
  // An exhausted budget is the halt reason only when nothing else halted
  // the core: a run whose last instruction is the ecall reports kEcall.
  if (!halted()) halt_ = HaltReason::kInstrLimit;
  return halt_;
}

u64 Core::run_steps(u64 n) { return run_bounded(n, kNoSampleDue); }

u64 Core::run_burst(cycles_t horizon, u64 max_instructions) {
  // The horizon is published through burst_due_ so fused superblock
  // bursts stop at the same boundary a per-instruction run would (armed
  // single-step plus the prefix repair — see sb_execute_impl). The reset
  // must survive guest faults: a dangling horizon would silently truncate
  // every later superblock burst.
  burst_due_ = horizon;
  try {
    const u64 executed = run_bounded(max_instructions, horizon);
    burst_due_ = kNoSampleDue;
    return executed;
  } catch (...) {
    burst_due_ = kNoSampleDue;
    throw;
  }
}

u64 Core::run_bounded(u64 budget, cycles_t horizon) {
  if (cfg_.reference_dispatch) {
    u64 executed = 0;
    for (; executed < budget && perf_.cycles < horizon && !halted();
         ++executed) {
      step_reference();
      if (perf_.cycles >= sample_due_) [[unlikely]] sample_fire();
    }
    return executed;
  }
  if (sampler_) {
    return trace_ ? run_loop<true, true>(budget, horizon)
                  : run_loop<false, true>(budget, horizon);
  }
  return trace_ ? run_loop<true, false>(budget, horizon)
                : run_loop<false, false>(budget, horizon);
}

template <bool Traced, bool Sampled>
u64 Core::run_loop(u64 budget, cycles_t horizon) {
  u64 executed = 0;
  while (executed < budget && perf_.cycles < horizon && !halted()) {
    step_fast<Traced>();
    ++executed;
    if constexpr (Sampled) {
      // At an exact instruction boundary, before any fused burst starts —
      // so a burst always enters with cycles < sample_due_.
      if (perf_.cycles >= sample_due_) [[unlikely]] sample_fire();
    }
    if constexpr (!Traced) {
      // Superblock entry: the step above announced a hot block starting at
      // the next pc (hwloop setup/backedge, hot backward branch). A burst
      // retires whole iterations and never overshoots the remaining
      // budget, and stops at the horizon through burst_due_, so every
      // bound stays exact. Candidates are only ever set when
      // cfg_.superblock is on, so the common path pays one compare.
      // Traced runs never fuse: the per-instruction hook is the reason to
      // interpret.
      if (sb_candidate_ != kNoSbCandidate) [[unlikely]] {
        const addr_t cand = sb_candidate_;
        const addr_t cand_branch = sb_candidate_branch_;
        sb_candidate_ = kNoSbCandidate;
        sb_candidate_branch_ = 0;
        if (executed < budget && cand == pc_ && !halted() &&
            perf_.cycles < horizon) {
          executed += superblock_enter(cand, cand_branch, budget - executed);
          if constexpr (Sampled) {
            // The burst may have repaired to a boundary that crossed the
            // deadline (sample_flushes); fire there, not an instruction
            // later.
            if (perf_.cycles >= sample_due_) [[unlikely]] sample_fire();
          }
        }
      }
    }
    if constexpr (Traced) {
      // The hook detached itself (returned false): finish on the
      // trace-free loop so the rest of the instructions pay no overhead.
      if (!trace_) {
        return executed + run_loop<false, Sampled>(budget - executed, horizon);
      }
    }
  }
  return executed;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

const std::array<Core::ExecFn, static_cast<size_t>(isa::ExecClass::kCount)>
    Core::kExecTable = {
        &Core::exec_illegal,      // kIllegal
        &Core::exec_lui,          // kLui
        &Core::exec_auipc,        // kAuipc
        &Core::exec_branch_jump,  // kBranchJump
        &Core::exec_alu_imm,      // kAluImm
        &Core::exec_alu_reg,      // kAluReg
        &Core::exec_muldiv,       // kMulDiv
        &Core::exec_mem,          // kMem
        &Core::exec_fence,        // kFence
        &Core::exec_ecall,        // kEcall
        &Core::exec_ebreak,       // kEbreak
        &Core::exec_csr_system,   // kCsr
        &Core::exec_hwloop,       // kHwloop
        &Core::exec_pulp_scalar,  // kPulpScalar
        &Core::exec_simd_alu,     // kSimdAlu
        &Core::exec_simd_dotp_fast,  // kSimdDotp
        &Core::exec_simd_elem,    // kSimdElem
        &Core::exec_simd_qnt,     // kSimdQnt
};

// The pre-optimization interpreter, kept verbatim as the semantic
// reference: switch on mnemonic, feature require() chains recomputed per
// executed instruction.
void Core::execute_reference(const Instr& in) {
  using M = Mnemonic;
  switch (in.op) {
    case M::kLui:
      exec_lui(in);
      break;
    case M::kAuipc:
      exec_auipc(in);
      break;
    case M::kJal: case M::kJalr:
    case M::kBeq: case M::kBne: case M::kBlt: case M::kBge:
    case M::kBltu: case M::kBgeu:
    case M::kPBeqimm: case M::kPBneimm:
      exec_branch_jump(in);
      break;
    case M::kAddi: case M::kSlti: case M::kSltiu: case M::kXori:
    case M::kOri: case M::kAndi: case M::kSlli: case M::kSrli:
    case M::kSrai:
    case M::kAdd: case M::kSub: case M::kSll: case M::kSlt:
    case M::kSltu: case M::kXor: case M::kSrl: case M::kSra:
    case M::kOr: case M::kAnd:
      exec_alu(in);
      break;
    case M::kMul: case M::kMulh: case M::kMulhsu: case M::kMulhu:
    case M::kDiv: case M::kDivu: case M::kRem: case M::kRemu:
      exec_muldiv(in);
      break;
    case M::kFence:
      exec_fence(in);
      break;
    case M::kEcall:
      exec_ecall(in);
      break;
    case M::kEbreak:
      exec_ebreak(in);
      break;
    case M::kCsrrw: case M::kCsrrs: case M::kCsrrc:
    case M::kCsrrwi: case M::kCsrrsi: case M::kCsrrci:
      exec_csr_system(in);
      break;
    case M::kLpStarti: case M::kLpEndi: case M::kLpCount:
    case M::kLpCounti: case M::kLpSetup: case M::kLpSetupi:
      require(cfg_.xpulpv2 && cfg_.hwloops, in);
      exec_hwloop(in);
      break;
    case M::kPAbs: case M::kPMin: case M::kPMinu: case M::kPMax:
    case M::kPMaxu: case M::kPExths: case M::kPExthz: case M::kPExtbs:
    case M::kPExtbz: case M::kPCnt: case M::kPFf1: case M::kPFl1:
    case M::kPClb: case M::kPRor: case M::kPClip: case M::kPClipu:
    case M::kPMac: case M::kPMsu:
    case M::kPExtract: case M::kPExtractu: case M::kPInsert:
    case M::kPBclr: case M::kPBset:
      require(cfg_.xpulpv2, in);
      exec_pulp_scalar(in);
      break;
    default:
      if (isa::is_load(in.op) || isa::is_store(in.op)) {
        // All non-base-ISA addressing modes belong to XpulpV2.
        if (in.op != M::kLb && in.op != M::kLh && in.op != M::kLw &&
            in.op != M::kLbu && in.op != M::kLhu && in.op != M::kSb &&
            in.op != M::kSh && in.op != M::kSw) {
          require(cfg_.xpulpv2, in);
        }
        exec_mem_reference(in);
      } else if (isa::is_simd(in.op)) {
        require(cfg_.xpulpv2, in);
        if (isa::simd_is_subbyte(in.fmt) || in.op == M::kPvQnt ||
            isa::is_mixed_dotp(in.op)) {
          require(cfg_.xpulpnn, in);
        }
        exec_simd(in);
      } else {
        throw IllegalInstruction(pc_, in.raw);
      }
      break;
  }
}

// ---------------------------------------------------------------------------
// Handlers (shared by both dispatch modes)
// ---------------------------------------------------------------------------

void Core::exec_illegal(const Instr& in) {
  throw IllegalInstruction(pc_, in.raw);
}

void Core::exec_lui(const Instr& in) {
  set_reg(in.rd, static_cast<u32>(in.imm));
  perf_.scalar_alu_ops += 1;
}

void Core::exec_auipc(const Instr& in) {
  set_reg(in.rd, pc_ + static_cast<u32>(in.imm));
  perf_.scalar_alu_ops += 1;
}

void Core::exec_fence(const Instr&) {  // single hart: ordering is a no-op
  perf_.sys_ops += 1;
}

void Core::exec_ecall(const Instr&) {
  halt_ = HaltReason::kEcall;
  perf_.sys_ops += 1;
}

void Core::exec_ebreak(const Instr&) {
  halt_ = HaltReason::kEbreak;
  perf_.sys_ops += 1;
}

void Core::alu_body(const Instr& in, u32 b) {
  using M = Mnemonic;
  const u32 a = reg(in.rs1);
  u32 r = 0;
  switch (in.op) {
    case M::kAddi: case M::kAdd: r = alu<AluFn::kAdd>(a, b); break;
    case M::kSub: r = alu<AluFn::kSub>(a, b); break;
    case M::kSlti: case M::kSlt: r = alu<AluFn::kSlt>(a, b); break;
    case M::kSltiu: case M::kSltu: r = alu<AluFn::kSltu>(a, b); break;
    case M::kXori: case M::kXor: r = alu<AluFn::kXor>(a, b); break;
    case M::kOri: case M::kOr: r = alu<AluFn::kOr>(a, b); break;
    case M::kAndi: case M::kAnd: r = alu<AluFn::kAnd>(a, b); break;
    case M::kSlli: case M::kSll: r = alu<AluFn::kSll>(a, b); break;
    case M::kSrli: case M::kSrl: r = alu<AluFn::kSrl>(a, b); break;
    case M::kSrai: case M::kSra: r = alu<AluFn::kSra>(a, b); break;
    default: break;
  }
  set_reg(in.rd, r);
  perf_.scalar_alu_ops += 1;
}

void Core::exec_alu_imm(const Instr& in) {
  alu_body(in, static_cast<u32>(in.imm));
}

void Core::exec_alu_reg(const Instr& in) { alu_body(in, reg(in.rs2)); }

void Core::exec_alu(const Instr& in) {
  using M = Mnemonic;
  const bool immediate =
      in.op == M::kAddi || in.op == M::kSlti || in.op == M::kSltiu ||
      in.op == M::kXori || in.op == M::kOri || in.op == M::kAndi ||
      in.op == M::kSlli || in.op == M::kSrli || in.op == M::kSrai;
  alu_body(in, immediate ? static_cast<u32>(in.imm) : reg(in.rs2));
}

void Core::exec_muldiv(const Instr& in) {
  using M = Mnemonic;
  const u32 a = reg(in.rs1);
  const u32 b = reg(in.rs2);
  const i32 sa = static_cast<i32>(a);
  const i32 sb = static_cast<i32>(b);
  u32 r = 0;
  switch (in.op) {
    case M::kMul:
      r = a * b;
      perf_.mul_ops += 1;
      break;
    case M::kMulh:
      r = static_cast<u32>((static_cast<i64>(sa) * sb) >> 32);
      perf_.mul_ops += 1;
      perf_.cycles += timing_.mulh_cycles - 1;
      perf_.mul_div_stall_cycles += timing_.mulh_cycles - 1;
      break;
    case M::kMulhsu:
      r = static_cast<u32>((static_cast<i64>(sa) * static_cast<u64>(b)) >> 32);
      perf_.mul_ops += 1;
      perf_.cycles += timing_.mulh_cycles - 1;
      perf_.mul_div_stall_cycles += timing_.mulh_cycles - 1;
      break;
    case M::kMulhu:
      r = static_cast<u32>((static_cast<u64>(a) * b) >> 32);
      perf_.mul_ops += 1;
      perf_.cycles += timing_.mulh_cycles - 1;
      perf_.mul_div_stall_cycles += timing_.mulh_cycles - 1;
      break;
    case M::kDiv:
      if (b == 0) {
        r = ~0u;
      } else if (sa == std::numeric_limits<i32>::min() && sb == -1) {
        r = static_cast<u32>(sa);
      } else {
        r = static_cast<u32>(sa / sb);
      }
      goto div_timing;
    case M::kDivu:
      r = (b == 0) ? ~0u : a / b;
      goto div_timing;
    case M::kRem:
      if (b == 0) {
        r = a;
      } else if (sa == std::numeric_limits<i32>::min() && sb == -1) {
        r = 0;
      } else {
        r = static_cast<u32>(sa % sb);
      }
      goto div_timing;
    case M::kRemu:
      r = (b == 0) ? a : a % b;
      goto div_timing;
    default:
      break;
  }
  set_reg(in.rd, r);
  return;

div_timing:
  set_reg(in.rd, r);
  perf_.div_ops += 1;
  {
    const unsigned c = timing_.div_cycles(a);
    perf_.cycles += c - 1;
    perf_.mul_div_stall_cycles += c - 1;
  }
}

void Core::exec_branch_jump(const Instr& in) {
  using M = Mnemonic;
  if (in.op == M::kJal) {
    set_reg(in.rd, pc_ + in.size);
    next_pc_ = pc_ + static_cast<u32>(in.imm);
    redirect_ = true;
    perf_.jumps += 1;
    perf_.cycles += timing_.jump_penalty;
    perf_.branch_stall_cycles += timing_.jump_penalty;
    return;
  }
  if (in.op == M::kJalr) {
    const u32 target = (reg(in.rs1) + static_cast<u32>(in.imm)) & ~1u;
    set_reg(in.rd, pc_ + in.size);
    next_pc_ = target;
    redirect_ = true;
    perf_.jumps += 1;
    perf_.cycles += timing_.jump_penalty;
    perf_.branch_stall_cycles += timing_.jump_penalty;
    return;
  }
  const u32 a = reg(in.rs1);
  const u32 b = reg(in.rs2);
  bool taken = false;
  switch (in.op) {
    case M::kBeq: taken = a == b; break;
    case M::kBne: taken = a != b; break;
    case M::kPBeqimm:
      require(cfg_.xpulpv2, in);
      taken = static_cast<i32>(a) == sign_extend(in.imm2, 5);
      break;
    case M::kPBneimm:
      require(cfg_.xpulpv2, in);
      taken = static_cast<i32>(a) != sign_extend(in.imm2, 5);
      break;
    case M::kBlt: taken = static_cast<i32>(a) < static_cast<i32>(b); break;
    case M::kBge: taken = static_cast<i32>(a) >= static_cast<i32>(b); break;
    case M::kBltu: taken = a < b; break;
    case M::kBgeu: taken = a >= b; break;
    default: break;
  }
  if (taken) {
    next_pc_ = pc_ + static_cast<u32>(in.imm);
    redirect_ = true;
    perf_.taken_branches += 1;
    perf_.cycles += timing_.taken_branch_penalty;
    perf_.branch_stall_cycles += timing_.taken_branch_penalty;
    if (in.imm < 0 && cfg_.superblock && !cfg_.reference_dispatch) {
      sb_note_backedge(pc_, next_pc_);
    }
  } else {
    perf_.not_taken_branches += 1;
  }
}

void Core::mem_body(const Instr& in, unsigned size, bool store, bool sext) {
  using M = Mnemonic;
  addr_t addr = 0;
  u32 new_base = 0;
  bool update_base = false;

  switch (in.op) {
    // Plain RV32I loads/stores and immediate post-increment forms.
    case M::kLb: case M::kLh: case M::kLw: case M::kLbu: case M::kLhu:
    case M::kSb: case M::kSh: case M::kSw:
      addr = reg(in.rs1) + static_cast<u32>(in.imm);
      break;
    case M::kPLbPostImm: case M::kPLhPostImm: case M::kPLwPostImm:
    case M::kPLbuPostImm: case M::kPLhuPostImm:
    case M::kPSbPostImm: case M::kPShPostImm: case M::kPSwPostImm:
      addr = reg(in.rs1);
      new_base = addr + static_cast<u32>(in.imm);
      update_base = true;
      break;
    // Register post-increment: increment in rs2 (loads) or rd field (stores).
    case M::kPLbPostReg: case M::kPLhPostReg: case M::kPLwPostReg:
    case M::kPLbuPostReg: case M::kPLhuPostReg:
      addr = reg(in.rs1);
      new_base = addr + reg(in.rs2);
      update_base = true;
      break;
    case M::kPSbPostReg: case M::kPShPostReg: case M::kPSwPostReg:
      addr = reg(in.rs1);
      new_base = addr + reg(in.rd);
      update_base = true;
      break;
    // Register-offset (indexed) addressing: offset in rs2 / rd field.
    case M::kPLbRegReg: case M::kPLhRegReg: case M::kPLwRegReg:
    case M::kPLbuRegReg: case M::kPLhuRegReg:
      addr = reg(in.rs1) + reg(in.rs2);
      break;
    case M::kPSbRegReg: case M::kPShRegReg: case M::kPSwRegReg:
      addr = reg(in.rs1) + reg(in.rd);
      break;
    default:
      throw IllegalInstruction(pc_, in.raw);
  }

  const unsigned stalls = mem_.access_cycles(addr, size, store);
  perf_.cycles += stalls;
  perf_.mem_stall_cycles += stalls;

  if (store) {
    mem_.store(addr, reg(in.rs2), size);
    // Decode-cache coherence: a store into already-decoded instruction
    // memory must not keep executing the stale decode.
    icache_invalidate(addr, size);
    perf_.stores += 1;
  } else {
    u32 v = mem_.load(addr, size);
    if (sext) {
      v = static_cast<u32>(sign_extend(v, size * 8));
    }
    perf_.lsu_data_toggles += hamming_distance(last_load_data_, v);
    last_load_data_ = v;
    set_reg(in.rd, v);
    perf_.loads += 1;
  }
  if (update_base) set_reg(in.rs1, new_base);
}

void Core::exec_mem(const Instr& in) {
  // Fast path: addressing mode comes packed in the decode flags, so no
  // mnemonic switch runs here (compare mem_body, the reference shape).
  const u16 f = in.flags;
  const bool store = (f & iflag::kIsStore) != 0;
  const u32 base = reg(in.rs1);
  const u32 off = (f & iflag::kMemRegOff) ? reg(store ? in.rd : in.rs2)
                                          : static_cast<u32>(in.imm);
  const bool post = (f & iflag::kMemPostInc) != 0;
  const addr_t addr = post ? base : base + off;
  const unsigned size = in.mem_size;

  const unsigned stalls = mem_.access_cycles(addr, size, store);
  perf_.cycles += stalls;
  perf_.mem_stall_cycles += stalls;

  if (store) {
    mem_.store(addr, reg(in.rs2), size);
    icache_invalidate(addr, size);
    perf_.stores += 1;
  } else {
    u32 v = mem_.load(addr, size);
    if (f & iflag::kLoadSigned) {
      v = static_cast<u32>(sign_extend(v, size * 8));
    }
    perf_.lsu_data_toggles += hamming_distance(last_load_data_, v);
    last_load_data_ = v;
    set_reg(in.rd, v);
    perf_.loads += 1;
  }
  if (post) set_reg(in.rs1, base + off);
}

void Core::exec_mem_reference(const Instr& in) {
  mem_body(in, isa::mem_access_size(in.op), isa::is_store(in.op),
           isa::load_is_signed(in.op));
}

void Core::exec_pulp_scalar(const Instr& in) {
  using M = Mnemonic;
  const u32 a = reg(in.rs1);
  const u32 b = reg(in.rs2);
  // Bit-field immediates: Is3 (pos) in imm, Is2 (width - 1) in imm2.
  const unsigned width = static_cast<unsigned>(in.imm2) + 1;
  const unsigned pos = static_cast<unsigned>(in.imm);
  u32 r = 0;
  switch (in.op) {
    case M::kPAbs: case M::kPMin: case M::kPMinu: case M::kPMax:
    case M::kPMaxu: case M::kPCnt: case M::kPFf1: case M::kPFl1:
    case M::kPClb: case M::kPRor:
      r = pulp_alu(in.op, a, b);
      break;
    case M::kPExths: r = static_cast<u32>(sign_extend(a, 16)); break;
    case M::kPExthz: r = zero_extend(a, 16); break;
    case M::kPExtbs: r = static_cast<u32>(sign_extend(a, 8)); break;
    case M::kPExtbz: r = zero_extend(a, 8); break;
    // p.clip rd, rs1, I: clamp to [-2^(I-1), 2^(I-1)-1]; p.clipu to
    // [0, 2^I - 1].
    case M::kPClip:
      r = static_cast<u32>(sat_signed(static_cast<i32>(a), clip_width(in.imm)));
      break;
    case M::kPClipu:
      r = sat_unsigned(static_cast<i32>(a), clip_width(in.imm));
      break;
    case M::kPMac:
      r = reg(in.rd) + a * b;
      perf_.mul_ops += 1;
      perf_.mac_ops += 1;
      break;
    case M::kPMsu:
      r = reg(in.rd) - a * b;
      perf_.mul_ops += 1;
      perf_.mac_ops += 1;
      break;
    case M::kPExtract:
      r = static_cast<u32>(sign_extend(a >> pos, width));
      break;
    case M::kPExtractu: r = zero_extend(a >> pos, width); break;
    case M::kPInsert:
      if (pos + width > 32) throw IllegalInstruction(pc_, in.raw);
      r = insert_bits(reg(in.rd), a, pos, width);
      break;
    // p.bclr / p.bset: and / or with the field mask.
    case M::kPBclr:
      if (pos + width > 32) throw IllegalInstruction(pc_, in.raw);
      r = alu<AluFn::kAnd>(a, ~(low_mask(width) << pos));
      break;
    case M::kPBset:
      if (pos + width > 32) throw IllegalInstruction(pc_, in.raw);
      r = alu<AluFn::kOr>(a, low_mask(width) << pos);
      break;
    default:
      throw IllegalInstruction(pc_, in.raw);
  }
  set_reg(in.rd, r);
  perf_.scalar_alu_ops += 1;
}

void Core::exec_hwloop(const Instr& in) {
  using M = Mnemonic;
  const unsigned l = in.imm2 & 1u;
  switch (in.op) {
    case M::kLpStarti:
      hwl_start_[l] = pc_ + static_cast<u32>(in.imm);
      hwl_key_[l] = 0;
      break;
    case M::kLpEndi:
      hwl_end_[l] = pc_ + static_cast<u32>(in.imm);
      hwl_key_[l] = 0;
      break;
    case M::kLpCount:
      hwl_count_[l] = reg(in.rs1);
      break;
    case M::kLpCounti:
      hwl_count_[l] = static_cast<u32>(in.imm);
      break;
    case M::kLpSetup:
    case M::kLpSetupi:
      hwl_start_[l] = pc_ + in.size;
      hwl_end_[l] = pc_ + static_cast<u32>(in.imm);
      // lp_setupi carries a 5-bit immediate count in the rs1 field.
      hwl_count_[l] = in.op == M::kLpSetup ? reg(in.rs1) : in.rs1;
      hwl_key_[l] = 0;
      if (cfg_.superblock && !cfg_.reference_dispatch && hwl_count_[l] > 1 &&
          sb_find_loop(l) != nullptr) {
        // The next instruction is the start of a loop that already has a
        // plan, here or (rebased) at another copy of its body: fuse it
        // from iteration one.
        sb_candidate_ = hwl_start_[l];
        sb_candidate_branch_ = 0;
      }
      break;
    default:
      throw IllegalInstruction(pc_, in.raw);
  }
  update_hwl_active();
  perf_.scalar_alu_ops += 1;
}

void Core::exec_simd(const Instr& in) {
  if (in.op == Mnemonic::kPvQnt) {
    exec_simd_qnt(in);
    return;
  }
  if (isa::is_dotp(in.op)) {
    exec_simd_dotp(in);
    return;
  }
  if (isa::is_elem_manip(in.op)) {
    exec_simd_elem(in);
    return;
  }
  exec_simd_alu(in);
}

void Core::exec_simd_qnt(const Instr& in) {
  const unsigned q_bits = isa::simd_elem_bits(in.fmt);
  const QuantResult res = qnt_.execute(mem_, reg(in.rs1), reg(in.rs2), q_bits);
  set_reg(in.rd, res.rd);
  perf_.qnt_ops += 1;
  // Base cycle is charged in step(); the remainder of the unit's fixed
  // latency (2*Q compare cycles) stalls the pipeline as a qnt stall, while
  // stalls raised by the threshold fetches themselves (misaligned trees,
  // contention) are memory stalls — the same cause they would carry on the
  // LSU path. Charging them to qnt_stall_cycles would inflate the unit
  // latency past the paper's 9-cycle nibble / 5-cycle crumb figures.
  perf_.cycles += res.cycles - 1 + res.mem_stalls;
  perf_.qnt_stall_cycles += res.cycles - 1;
  perf_.mem_stall_cycles += res.mem_stalls;
}

void Core::exec_simd_dotp(const Instr& in) {
  const i32 acc = static_cast<i32>(reg(in.rd));
  if (isa::is_mixed_dotp(in.op)) {
    // Virtual SIMD: the operand formats come from the precision-status CSR,
    // not the encoding. The reserved selector makes the op illegal.
    if (mpc_ >= isa::kMpcSelCount) throw IllegalInstruction(pc_, in.raw);
    const i32 r = dotp_.dotp_mixed(in.op, mpc_, reg(in.rs1), reg(in.rs2), acc);
    set_reg(in.rd, static_cast<u32>(r));
    perf_.dotp_ops[static_cast<unsigned>(mixed_region(mpc_))] += 1;
    perf_.mixed_dotp_ops[mpc_] += 1;
    return;
  }
  const i32 r = dotp_.dotp(in.op, in.fmt, reg(in.rs1), reg(in.rs2), acc);
  set_reg(in.rd, static_cast<u32>(r));
  perf_.dotp_ops[static_cast<unsigned>(region_for(in.fmt))] += 1;
}

// The decode-specialized dot-product kernel lives in sim/dotp_lanes.hpp,
// shared with the superblock fused loop.
void Core::exec_simd_dotp_fast(const Instr& in) {
  using isa::SimdFmt;
  const u32 a = reg(in.rs1);
  const u32 b = reg(in.rs2);
  const u16 f = in.flags;
  const bool sa = (f & iflag::kDotSignedA) != 0;
  const bool sb = (f & iflag::kDotSignedB) != 0;
  const u32 acc = (f & iflag::kDotAccum) ? reg(in.rd) : 0;
  if (f & iflag::kDotMixed) {
    if (mpc_ >= isa::kMpcSelCount) throw IllegalInstruction(pc_, in.raw);
    const i32 rm = dotp_lanes_mixed_sel(mpc_, a, b, acc, sa, sb);
    const unsigned region = static_cast<unsigned>(mixed_region(mpc_));
    dotp_.note_dotp(region, a, b);
    set_reg(in.rd, static_cast<u32>(rm));
    perf_.dotp_ops[region] += 1;
    perf_.mixed_dotp_ops[mpc_] += 1;
    return;
  }
  i32 r = 0;
  unsigned region = 0;  // DotpRegion numbering: 16-bit first, then narrower
  switch (in.fmt) {
    case SimdFmt::kH: r = dotp_lanes<16, false>(a, b, acc, sa, sb); region = 0; break;
    case SimdFmt::kHSc: r = dotp_lanes<16, true>(a, b, acc, sa, sb); region = 0; break;
    case SimdFmt::kB: r = dotp_lanes<8, false>(a, b, acc, sa, sb); region = 1; break;
    case SimdFmt::kBSc: r = dotp_lanes<8, true>(a, b, acc, sa, sb); region = 1; break;
    case SimdFmt::kN: r = dotp_lanes<4, false>(a, b, acc, sa, sb); region = 2; break;
    case SimdFmt::kNSc: r = dotp_lanes<4, true>(a, b, acc, sa, sb); region = 2; break;
    case SimdFmt::kC: r = dotp_lanes<2, false>(a, b, acc, sa, sb); region = 3; break;
    case SimdFmt::kCSc: r = dotp_lanes<2, true>(a, b, acc, sa, sb); region = 3; break;
    default: throw IllegalInstruction(pc_, in.raw);
  }
  dotp_.note_dotp(region, a, b);
  set_reg(in.rd, static_cast<u32>(r));
  perf_.dotp_ops[region] += 1;
}

void Core::exec_simd_elem(const Instr& in) {
  if (!isa::is_elem_manip(in.op)) throw IllegalInstruction(pc_, in.raw);
  set_reg(in.rd, simd_elem_op(in.op, in.fmt, in.imm, reg(in.rs1),
                              reg(in.rs2), reg(in.rd)));
  perf_.simd_alu_ops += 1;
}

void Core::exec_simd_alu(const Instr& in) {
  set_reg(in.rd, dotp_.alu_op(in.op, in.fmt, reg(in.rs1), reg(in.rs2)));
  perf_.simd_alu_ops += 1;
}

u32 Core::csr_read(u32 addr) const {
  switch (addr) {
    case 0xB00: case 0xC00: return static_cast<u32>(perf_.cycles);
    case 0xB80: case 0xC80: return static_cast<u32>(perf_.cycles >> 32);
    case 0xB02: case 0xC02: return static_cast<u32>(perf_.instructions);
    case 0xB82: case 0xC82: return static_cast<u32>(perf_.instructions >> 32);
    case 0xF14: return 0;  // mhartid
    case 0x340: return mscratch_;
    case isa::kMpcCsr: return mpc_;
    default: return 0;
  }
}

void Core::exec_csr_system(const Instr& in) {
  using M = Mnemonic;
  const u32 csr = static_cast<u32>(in.imm);
  const u32 old = csr_read(csr);
  const u32 operand = (in.op == M::kCsrrwi || in.op == M::kCsrrsi ||
                       in.op == M::kCsrrci)
                          ? in.imm2
                          : reg(in.rs1);
  u32 nv = old;
  switch (in.op) {
    case M::kCsrrw: case M::kCsrrwi: nv = operand; break;
    case M::kCsrrs: case M::kCsrrsi: nv = old | operand; break;
    case M::kCsrrc: case M::kCsrrci: nv = old & ~operand; break;
    default: break;
  }
  if (csr == 0x340) {
    mscratch_ = nv;
  } else if (csr == isa::kMpcCsr) {
    // WARL: only the low two selector bits are writable. Superblock plans
    // bake the selector into their fused dot-product bodies, so a value
    // change must evict them — they would otherwise misfuse silently.
    const u32 warl = nv & 3u;
    if (warl != mpc_) {
      sb_evict_mixed_plans();
      mpc_ = warl;
    }
  }  // other CSRs are read-only here
  set_reg(in.rd, old);
  perf_.csr_ops += 1;
}

}  // namespace xpulp::sim
