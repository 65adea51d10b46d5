// Trace-compiled superblock execution (DESIGN.md §12).
//
// The fast interpreter still pays per-instruction dispatch, hazard checks
// and counter updates inside the tiny hardware-loop bodies that dominate
// the paper's kernels (2 loads + 4 pv.sdot per MatMul inner iteration). A
// superblock "compiles" such a hot straight-line region into a flat
// SuperblockPlan — decoded operands pinned in a compact op array, one
// fused C++ loop executing whole iterations, and the static part of the
// PerfCounters/MemStats accounting applied as one batched per-iteration
// delta. Dynamic effects (memory stalls, load-data toggles, division
// latency, dot-product activity, self-modifying-store invalidation) stay
// eager so every exit lands on a bit-exact instruction boundary. A
// backward-branch region may also hold counted hardware loops (a loop
// nest such as the conv kernels' channel-pair loop around the MatMul
// loop): each body is a hardware-loop plan the branch plan owns and runs
// as a nested burst.
//
// Detection, compilation, execution and invalidation live in
// superblock.cpp as Core member functions; this header only defines the
// plan layout so core.hpp can hold the cache by forward declaration.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"

namespace xpulp::sim {

/// The operation one op performs: the fused loop dispatches on this alone,
/// with every operand the op needs resolved when the plan is compiled.
/// Every kind but kHandler batches its static accounting (class counter,
/// fixed latency, memory counts) in the per-iteration delta
/// (op_static_delta); kHandler calls the interpreter's exec helper, which
/// charges its class counter and latency eagerly.
enum class SbKind : u8 {
  kConst,  // lui / auipc: value precomputed at compile time
  // RV32I ALU ops, immediate form (b = imm) then register form (b = rs2).
  kAddImm, kSltImm, kSltuImm, kXorImm, kOrImm, kAndImm, kSllImm, kSrlImm,
  kSraImm,
  kAdd, kSub, kSlt, kSltu, kXor, kOr, kAnd, kSll, kSrl, kSra,
  // XpulpV2 bit-field ops, position in `aux` and width in `imm` (p.exth*
  // and p.extb* are extracts at position 0; p.bclr and p.bset compile to
  // kAndImm / kOrImm with their field mask).
  kExtract,   // p.extract, p.exths, p.extbs
  kExtractu,  // p.extractu
  kInsert,    // p.insert
  kClip,      // p.clip, effective width in imm
  kClipu,     // p.clipu, effective width in imm
  kPulpAlu,   // p.abs/min/max/cnt/ff1/fl1/clb/ror via pulp_alu
  kMac,       // p.mac / p.msu
  kMem,       // every load/store addressing mode, flags-driven
  kDotp,      // pv.dotp/sdot families via the dotp_lanes kernel
  kSimdAlu,   // element-wise SIMD ALU ops via DotpUnit::alu_op
  kSimdElem,  // pv.extract/insert/shuffle/pack via simd_elem_op
  kQnt,       // pv.qnt, Q (output bits) in aux
  kHandler,   // mul/div: the interpreter's handler
  kBranch,    // terminal conditional branch (backward-branch plans only)
  /// lp.setup/lp.setupi of a counted loop nested in a backward-branch
  /// plan: `imm` indexes SuperblockPlan::inner, `aux` is the loop index,
  /// `rs1` the count register (lp.setup) or immediate count (lp.setupi)
  /// and `rd` the load destination of the loop body's last op.
  kInnerLoop,
  kCount,
};

/// Recognized shapes whose hardware-loop runs sb_execute retires whole,
/// in one host loop after one check per access stream. kConvInner is the
/// 2x2-blocked MatMul inner body every conv kernel in this repo emits (4
/// post-inc word loads feeding 4 dots over 2 activation x 2 weight words),
/// at any uniform width (8/4/2-bit) or mixed mpc format; each iteration
/// expands every operand word once and computes all four dot products
/// together. kCopyWords is the im2col copy body, a post-increment word load
/// and a post-increment store of the loaded word.
enum class SbShape : u8 {
  kGeneric = 0,
  kConvInner,
  kCopyWords,
};

struct SbOp {
  SbKind kind = SbKind::kHandler;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  /// kMem: access size in bytes. kDotp: multiplier region (DotpRegion
  /// numbering). kMac: 1 for p.msu. kQnt: output bits. Bit-field kinds:
  /// the field's position.
  u8 aux = 0;
  /// Static load-use stall cycles against the previous op in the block
  /// (op[0]'s hazard against the entry context is dynamic, see
  /// SuperblockPlan::wrap_hazard).
  u8 hazard = 0;
  u16 flags = 0;  // iflag:: bits from the decode
  isa::SimdFmt fmt = isa::SimdFmt::kNone;
  isa::ExecClass cls = isa::ExecClass::kIllegal;
  isa::Mnemonic op{};
  /// Immediate operand; kConst: the precomputed result value; kBranch
  /// p.beqimm/p.bneimm: the sign-extended compare immediate; kInnerLoop:
  /// the index of its body plan; bit-field kinds: the field's width.
  i32 imm = 0;
};

/// A compiled superblock: one hot straight-line region plus everything the
/// fused loop needs to retire whole iterations without touching the
/// decoder or the handler table. Host-side state only — never serialized;
/// checkpoints restore into an empty cache and recompile lazily.
struct SuperblockPlan {
  addr_t start = 0;  // first instruction of the block
  addr_t end = 0;    // one past the last code byte (= bail-out boundary)
  bool is_hwloop = true;
  /// Hardware-loop plans: the body's shape key (Core::sb_loop_key), whose
  /// heat entry links to this plan; 0 when no entry does (branch plans,
  /// and plans whose entry another shape took over).
  u64 shape_key = 0;
  /// The plan may roam: another copy of the same words is entered by
  /// rebasing this plan to it. False pins it to its pc: an auipc bakes the
  /// pc into a kConst op.
  bool roams = false;
  /// Invalidated by a store while the fused loop was executing this plan;
  /// evicted at burst exit (the storage can't be freed mid-burst).
  bool dead = false;

  std::vector<SbOp> ops;           // straight-line body, no control flow
  /// Parallel decode mirror: the kHandler ops' exec argument, and the
  /// words a roaming plan checks a copy of its body against.
  std::vector<isa::Instr> instrs;
  /// ops.size()+1 entries: the pc of each op, then the boundary after the
  /// body (hwloop: the loop end; branch plans: the branch pc).
  std::vector<addr_t> op_pc;
  SbOp branch{};  // branch plans: the terminal conditional branch

  /// cycle_prefix[i] = batched static cycles of ops [0, i) (ops.size()+1
  /// entries): the exact cycle of every op boundary inside an iteration,
  /// for deadline checks and access-hook coordinates. The full counter
  /// prefix a mid-iteration exit repairs with (fault, self-modifying
  /// store, deadline) is recomputed from the ops on that rare path.
  std::vector<u64> cycle_prefix;
  PerfCounters iter_perf;  // one full iteration (hwloop body / branch taken)
  PerfCounters exit_perf;  // branch plans: final, not-taken iteration
  mem::MemStats iter_mem;

  /// Load-use stall of op[0] against the block's last op — static for
  /// every iteration after the first (the first checks the live
  /// last-load register at entry).
  u8 wrap_hazard = 0;
  /// Multiplier region shared by every kDotp op in the block, 0xff when
  /// none or mixed. A single-region block lets the fused loop keep that
  /// region's operand latches in host registers for the whole burst.
  u8 dotp_region = 0xff;
  /// Whole-iteration specialization selected at compile time.
  SbShape shape = SbShape::kGeneric;
  /// The plan contains mixed dot products (pv.mldot*/pv.mlsdot*) whose
  /// operand formats were baked from the precision-status CSR at compile
  /// time. Any value-changing mpc write evicts such plans; the entry guard
  /// additionally rejects on a live-value mismatch so a stale plan can
  /// never silently misfuse.
  bool uses_mixed = false;
  u8 baked_mpc = 0;
  /// last_load_rd_ after a completed iteration (loads feed the hazard
  /// check of whatever the interpreter executes next).
  u8 exit_last_load_rd = 0;

  /// Upper bound on the *dynamic* cycles one iteration can add in slim
  /// memory mode (no access hook, no contention injector): misaligned
  /// access and threshold-fetch penalties, mul/div latency. The
  /// inner loops of a branch plan are not bounded here: the burst re-arms
  /// after each of them.
  /// Sampled bursts use it to prove an iteration cannot cross the
  /// sampling deadline and skip the per-op boundary checks (an
  /// over-estimate only costs a checked iteration, never a missed
  /// sample).
  u64 max_dyn_iter = 0;

  /// Branch plans: the bodies of the hardware loops the region contains
  /// (one kInnerLoop op each), compiled as hardware-loop plans. Owned
  /// here, never indexed in the plan cache: [start, end) covers them, so
  /// invalidation and eviction of this plan drop them too.
  std::vector<SuperblockPlan> inner;
  /// Inner-loop bodies: the iterations and runs retired in place since
  /// the owning burst began, whose static accounting (all but the cycles,
  /// charged with each run) that burst applies once at its exit.
  u64 pending_iters = 0;
  u64 pending_runs = 0;
};

/// The burst-local latches a whole run reads and advances
/// (Core::sb_run_whole): the LSU data latch and its toggle count, and the
/// operand latches, toggle count and op count of a kConvInner run's dot
/// region.
struct SbLatches {
  u32 lld = 0;
  u64 toggles = 0;
  u32 dla = 0;
  u32 dlb = 0;
  u64 dtog = 0;
  u64 dops = 0;
};

/// Recognize the 2x2-blocked MatMul inner body (SbShape::kConvInner):
///   ops[0..3]  post-increment word loads (any order) that fill the four
///              dot operands, one each, through four distinct nonzero
///              base registers that no load or dot writes;
///   ops[4..7]  four dot products of one uniform format (byte, nibble,
///              crumb) or one baked mixed selector, over two rs1 words x
///              two rs2 words, one accumulator each, with unsigned or
///              signed weights (no dot product has signed activations
///              and unsigned weights; such a body takes the generic loop).
/// The structural requirements are exactly what makes a whole run
/// equivalent to executing the ops in sequence: identical format/sign
/// flags, the 2x2 operand pattern, accumulators that are distinct and
/// never read as dot operands, and loads that are affine streams.
bool matches_conv_inner(const SuperblockPlan& p);

}  // namespace xpulp::sim
