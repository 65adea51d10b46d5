// Shared helpers for the differential test suites (dispatch diff, snapshot
// diff): a complete final-machine-state record, an exhaustive equality
// check over every slot of a counter struct, the three-way dispatch
// comparison, and the random program generator that draws its
// instructions from the ISA table.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "isa/encoding.hpp"
#include "isa/isa_table.hpp"
#include "mem/memory.hpp"
#include "qnn/thresholds.hpp"
#include "sim/core.hpp"
#include "sim/superblock.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::test {

struct FinalState {
  std::array<u32, 32> regs{};
  addr_t pc = 0;
  sim::HaltReason reason = sim::HaltReason::kRunning;
  sim::PerfCounters perf;
  mem::MemStats mem_stats;
  sim::DotpActivity dotp;
  std::vector<u8> mem;
  /// what() of the guest fault that stopped the run; empty if none.
  std::string fault;
  /// The superblock engine's coverage counters: host-side, so never
  /// compared between dispatch modes.
  sim::SuperblockStats sb;
  /// Ops compiled into superblock plans, by sim::SbKind.
  std::vector<u64> sb_kinds;
};

/// Snapshot the observable machine state (registers, pc, halt reason, perf
/// counters, memory and dot-product activity counters, full memory image)
/// of a core that has finished running.
inline FinalState final_state_of(const sim::Core& core,
                                 const mem::Memory& mem) {
  FinalState s;
  s.sb = core.superblock_stats();
  for (size_t k = 0; k < static_cast<size_t>(sim::SbKind::kCount); ++k) {
    s.sb_kinds.push_back(
        core.superblock_ops_compiled(static_cast<sim::SbKind>(k)));
  }
  s.reason = core.halt_reason();
  s.pc = core.pc();
  for (unsigned i = 0; i < 32; ++i) s.regs[i] = core.reg(i);
  s.perf = core.perf();
  s.mem_stats = mem.stats();
  s.dotp = core.dotp_unit().activity();
  s.mem.resize(mem.size());
  mem.read_block(0, s.mem);
  return s;
}

/// Run `prog` from `entry` under `cfg`. `code_end` is handed to reset();
/// 0 leaves the decode cache to its growth path. A guest fault ends the
/// run like a halt: its message lands in FinalState::fault.
inline FinalState run_from(const xasm::Program& prog, sim::CoreConfig cfg,
                           addr_t entry, addr_t code_end,
                           u64 max_instr = 2'000'000) {
  mem::Memory mem;
  prog.load(mem);
  sim::Core core(mem, std::move(cfg));
  core.reset(entry, code_end);
  std::string fault;
  try {
    core.run(max_instr);
  } catch (const SimError& e) {
    fault = e.what();
  }
  FinalState s = final_state_of(core, mem);
  s.fault = std::move(fault);
  return s;
}

/// `cfg` on the reference interpreter or the plain fast path: the
/// superblock engine off, whatever the CoreConfig default.
inline sim::CoreConfig interp_config(sim::CoreConfig cfg, bool reference) {
  cfg.reference_dispatch = reference;
  cfg.superblock = false;
  return cfg;
}

inline FinalState run_mode(const xasm::Program& prog,
                           const sim::CoreConfig& cfg, bool reference,
                           u64 max_instr = 2'000'000) {
  return run_from(prog, interp_config(cfg, reference), prog.entry(),
                  prog.base() + prog.size_bytes(), max_instr);
}

/// Every counter slot of `a` and `b` matches (any struct with a
/// for_each_counter field list); a mismatch names its field.
template <CounterStruct S>
void expect_same_counters(const S& a, const S& b, std::string_view what = {}) {
  for_each_counter(
      [what](const char* name, const auto& x, const auto& y) {
        EXPECT_EQ(x, y) << what << (what.empty() ? "" : ": ") << name;
      },
      a, b);
}

/// Every field must match: the fast path / a restored checkpoint is an
/// optimization of the host interpreter, never of the modelled timing.
/// Both runs' counters must also keep the PerfCounters invariants.
inline void expect_identical(const FinalState& ref, const FinalState& fast) {
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(ref.regs[i], fast.regs[i]) << "x" << i;
  }
  EXPECT_EQ(ref.pc, fast.pc);
  EXPECT_EQ(ref.reason, fast.reason);
  EXPECT_EQ(ref.fault, fast.fault);
  EXPECT_EQ(ref.mem, fast.mem);
  expect_same_counters(ref.perf, fast.perf, "perf");
  expect_same_counters(ref.mem_stats, fast.mem_stats, "mem");
  expect_same_counters(ref.dotp, fast.dotp, "dotp");
  for (const FinalState* s : {&ref, &fast}) {
    const std::string v = sim::perf_invariant_violation(s->perf);
    EXPECT_TRUE(v.empty()) << (s == &ref ? "first" : "second") << " run: "
                           << v;
  }
}

/// The three dispatch legs of one program.
struct ThreeWay {
  FinalState ref, fast, sb;
};

/// Run `prog` on the reference interpreter, the plain fast path and the
/// superblock engine; require bit-identical final states, and that only
/// the superblock leg retired fused instructions. Whether it did depends
/// on the program, so callers assert `sb.sb.fused_instructions` themselves.
inline ThreeWay run_three_way(const xasm::Program& prog, sim::CoreConfig cfg,
                              addr_t entry, addr_t code_end,
                              u64 max_instr = 2'000'000) {
  ThreeWay w;
  w.ref = run_from(prog, interp_config(cfg, true), entry, code_end, max_instr);
  w.fast = run_from(prog, interp_config(cfg, false), entry, code_end, max_instr);
  cfg.reference_dispatch = false;
  cfg.superblock = true;
  w.sb = run_from(prog, cfg, entry, code_end, max_instr);
  expect_identical(w.ref, w.fast);
  expect_identical(w.ref, w.sb);
  EXPECT_EQ(w.ref.sb.fused_instructions, 0u) << "reference leg fused";
  EXPECT_EQ(w.fast.sb.fused_instructions, 0u) << "fast leg fused";
  return w;
}

inline ThreeWay run_three_way(const xasm::Program& prog, sim::CoreConfig cfg,
                              u64 max_instr = 2'000'000) {
  return run_three_way(prog, std::move(cfg), prog.entry(),
                       prog.base() + prog.size_bytes(), max_instr);
}

/// Every field of two boundary states matches: registers, pc, hardware-
/// loop and hazard tracking, CSRs and all counter slots.
inline void expect_same_core_state(const sim::CoreState& a,
                                   const sim::CoreState& b) {
  for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(a.regs[i], b.regs[i]) << "x" << i;
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.hwl_start, b.hwl_start);
  EXPECT_EQ(a.hwl_end, b.hwl_end);
  EXPECT_EQ(a.hwl_count, b.hwl_count);
  EXPECT_EQ(a.last_load_rd, b.last_load_rd);
  EXPECT_EQ(a.last_load_data, b.last_load_data);
  EXPECT_EQ(a.halt, b.halt);
  EXPECT_EQ(a.mscratch, b.mscratch);
  EXPECT_EQ(a.mpc, b.mpc);
  expect_same_counters(a.perf, b.perf, "perf");
  expect_same_counters(a.dotp.activity, b.dotp.activity, "dotp");
  EXPECT_EQ(a.dotp.last_a, b.dotp.last_a);
  EXPECT_EQ(a.dotp.last_b, b.dotp.last_b);
}

// ---------------------------------------------------------------------------
// Random program generator. Straight-line code is drawn from isa_table():
// every entry legal on the tier under test, operands varied within the
// entry's constraints. Control flow is placed by the generator: forward
// branches, and loops hot enough to fuse under every conditional-branch
// form and every hardware-loop form.

/// The ISA tier a generated program targets, and the core it runs on.
/// XpulpNN without clock gating draws the XpulpNN tier's instructions on a
/// core that models the ungated operand broadcast, which keeps the
/// superblock engine cold.
enum class Tier : u8 { kRv32im, kXpulpV2, kXpulpNN, kXpulpNNNoPm };
inline constexpr Tier kTiers[] = {Tier::kRv32im, Tier::kXpulpV2,
                                  Tier::kXpulpNN, Tier::kXpulpNNNoPm};

inline sim::CoreConfig tier_config(Tier t) {
  sim::CoreConfig c = sim::CoreConfig::extended();
  switch (t) {
    case Tier::kRv32im:
      c.xpulpv2 = c.xpulpnn = c.hwloops = false;
      c.name = "rv32im";
      break;
    case Tier::kXpulpV2:
      c = sim::CoreConfig::ri5cy();
      break;
    case Tier::kXpulpNN:
      break;
    case Tier::kXpulpNNNoPm:
      c.clock_gating = false;
      c.name = "xpulpnn-nopm";
      break;
  }
  return c;
}

/// isa_table() indices of the entries legal on `cfg` that programs draw
/// as straight-line code: all but jumps, branches, hardware-loop setup and
/// ecall/ebreak, which the generator places itself.
inline std::vector<size_t> straight_line_entries(const sim::CoreConfig& cfg) {
  namespace f = isa::iflag;
  using C = isa::ExecClass;
  const u16 missing =
      static_cast<u16>((cfg.xpulpv2 ? 0 : f::kNeedXpulpV2) |
                       (cfg.xpulpnn ? 0 : f::kNeedXpulpNN) |
                       (cfg.hwloops ? 0 : f::kNeedHwloops));
  std::vector<size_t> out;
  const auto& table = isa::isa_table();
  for (size_t i = 0; i < table.size(); ++i) {
    const isa::Instr s = isa::canonical_samples(table[i]).front();
    if ((s.flags & missing) != 0 || s.cls == C::kBranchJump ||
        s.cls == C::kHwloop || s.cls == C::kEcall || s.cls == C::kEbreak) {
      continue;
    }
    out.push_back(i);
  }
  return out;
}

/// Registers random ops never write: loop counters and scratch of the
/// generated control flow.
namespace nest_reg {
inline constexpr u8 kTrips = 18;   // s2: backward-branch loop counter
inline constexpr u8 kCount = 19;   // s3: hardware-loop count
inline constexpr u8 kCodePtr = 20; // s4: code-address scratch
inline constexpr u8 kWord = 21;    // s5: code word scratch
inline constexpr u8 kCmp = 24;     // s8: branch compare operand
inline constexpr u8 kLimit = 25;   // s9: backward-branch loop limit
inline constexpr u8 kFlag = 26;    // s10: beq loops' "continue" value
}  // namespace nest_reg

/// Data layout of generated programs, and the registers pointing into it.
/// Random memory ops stay in [kBase, kBase + kWindow + 64).
namespace gen_data {
inline constexpr addr_t kBase = 0x8000;  // s0
inline constexpr u32 kWindow = 0x800;
inline constexpr u32 kFillWords = 0x300;  // LCG-filled by the prologue
inline constexpr addr_t kMatA = kBase + 0x400;  // MatMul activations
inline constexpr addr_t kMatW = kBase + 0x600;  // MatMul weights
inline constexpr addr_t kStreamSrc = kBase + 0x700;
inline constexpr addr_t kStreamDst = kBase + 0x900;
inline constexpr addr_t kSpill = kBase + 0xf00;  // loop counter round trip
inline constexpr addr_t kTrees = kBase + 0x1000;  // pv.qnt.n trees; .c +0x40
inline constexpr u8 kTreeN = 22;  // s6
inline constexpr u8 kTreeC = 23;  // s7
inline constexpr u8 kSrc = 16;    // a6: walking source pointer
inline constexpr u8 kDst = 17;    // a7: walking destination pointer
}  // namespace gen_data

/// Draws each item once per pass, in a fresh random order every pass, so
/// n draws cover all items once n >= the item count.
template <typename T>
class Deck {
 public:
  explicit Deck(std::vector<T> items) : items_(std::move(items)) {}
  T draw(Rng& rng) {
    if (next_ == items_.size()) next_ = 0;
    if (next_ == 0) {
      for (size_t i = items_.size(); i > 1; --i) {
        std::swap(items_[i - 1], items_[static_cast<size_t>(
                                     rng.uniform(0, static_cast<i32>(i - 1)))]);
      }
    }
    return items_[next_++];
  }

 private:
  std::vector<T> items_;
  size_t next_ = 0;
};

/// A stream of random, deterministic programs for one tier. Every program
/// starts with a hot loop and otherwise mixes straight-line blocks,
/// forward branches over ops, cold, nested and re-entered hardware loops,
/// backward-branch loop nests (optionally storing over their own code),
/// walking load/store streams (sign-extending, misaligned) and the 2x2
/// MatMul body the engine runs as one macro-op. Table entries, branch
/// forms and hardware-loop forms come from decks shared by the stream's
/// programs, so a few programs draw every one of them.
class ProgramGen {
 public:
  enum class Branch : u8 { kBeq, kBne, kBlt, kBge, kBltu, kBgeu, kBeqimm,
                           kBneimm };
  enum class HwLoop : u8 { kSetup, kSetupi, kCount, kCounti };
  /// How a program ends: ecall, ebreak, or a guest fault in a hot loop
  /// whose walking pointer leaves memory mid-burst.
  enum class End : u8 { kEcall, kEbreak, kOffMemory };

  ProgramGen(u64 seed, Tier tier)
      : rng_(seed),
        cfg_(tier_config(tier)),
        entries_(straight_line_entries(cfg_)),
        forms_(cfg_.xpulpv2
                   ? std::vector<Branch>{Branch::kBeq, Branch::kBne,
                                         Branch::kBlt, Branch::kBge,
                                         Branch::kBltu, Branch::kBgeu,
                                         Branch::kBeqimm, Branch::kBneimm}
                   : std::vector<Branch>{Branch::kBeq, Branch::kBne,
                                         Branch::kBlt, Branch::kBge,
                                         Branch::kBltu, Branch::kBgeu}),
        branches_(forms_),
        hwloops_({HwLoop::kSetup, HwLoop::kSetupi, HwLoop::kCount,
                  HwLoop::kCounti}),
        drawn_(isa::isa_table().size(), false) {}

  /// The next program, placed at `base`.
  xasm::Program next(addr_t base = 0, End end = End::kEcall) {
    xasm::Assembler a(base);
    prologue(a);
    hot_loop(a);
    for (int b = 0; b < 11; ++b) block(a);
    if (end == End::kOffMemory) {
      if (cfg_.xpulpv2 && one_in(2)) {
        matmul(a, true);
      } else {
        stream(a, true);
      }
    }
    if (end == End::kEbreak) {
      a.ebreak();
    } else {
      a.ecall();
    }
    return a.finish();
  }

  /// Per isa_table() index: drawn by some program of this stream.
  const std::vector<bool>& drawn() const { return drawn_; }
  const sim::CoreConfig& config() const { return cfg_; }

 private:
  using Label = xasm::Assembler::Label;

  bool has_hwloops() const { return cfg_.xpulpv2 && cfg_.hwloops; }
  u8 dest() {
    static constexpr u8 kDests[] = {5, 6, 7, 10, 11, 12, 13, 14, 15};
    return kDests[rng_.uniform(0, 8)];
  }
  u8 src() { return static_cast<u8>(rng_.uniform(5, 15)); }
  bool one_in(int n) { return rng_.uniform(1, n) == 1; }

  /// Data pointers, operand words at kBase, seeded registers and (XpulpNN)
  /// the pv.qnt threshold trees.
  void prologue(xasm::Assembler& a) {
    namespace r = xasm::reg;
    namespace n = nest_reg;
    a.li(r::s0, static_cast<i32>(gen_data::kBase));
    a.li(r::s1, 3);  // small loop count
    // Fill the data words with an LCG: zero operands would make every
    // dot product and toggle count trivial.
    a.li(r::t0, static_cast<i32>(rng_.next_u32()));
    a.li(r::t1, 1103515245);
    a.mv(gen_data::kDst, r::s0);
    a.li(n::kTrips, static_cast<i32>(gen_data::kFillWords));
    const Label fill = a.here();
    a.mul(r::t0, r::t0, r::t1);
    a.addi(r::t0, r::t0, 1021);
    a.sw(r::t0, gen_data::kDst, 0);
    a.addi(gen_data::kDst, gen_data::kDst, 4);
    a.addi(n::kTrips, n::kTrips, -1);
    a.bne(n::kTrips, r::zero, fill);
    // Random register values, and one time in three an edge value
    // (division overflow, sign boundaries).
    static constexpr u32 kEdges[] = {0, 1, 0xffffffffu, 0x80000000u,
                                     0x7fffffffu};
    for (const u8 reg : {5, 6, 7, 10, 11, 12, 13, 14, 15}) {
      a.li(reg, static_cast<i32>(one_in(3) ? kEdges[rng_.uniform(0, 4)]
                                           : rng_.next_u32()));
    }
    if (!cfg_.xpulpnn) return;
    // Two trees (act0, act1) per output width, strictly ascending.
    a.li(gen_data::kTreeN, static_cast<i32>(gen_data::kTrees));
    a.addi(gen_data::kTreeC, gen_data::kTreeN, 0x40);
    for (const unsigned q : {4u, 2u}) {
      const u8 ptr = q == 4 ? gen_data::kTreeN : gen_data::kTreeC;
      const std::vector<u8> bytes =
          qnn::LayerThresholds::random(rng_, q, 2, -3000, 3000).serialize();
      for (size_t o = 0; o < bytes.size(); o += 4) {
        const u32 w = bytes[o] | bytes[o + 1] << 8 | bytes[o + 2] << 16 |
                      static_cast<u32>(bytes[o + 3]) << 24;
        a.li(r::t0, static_cast<i32>(w));
        a.sw(r::t0, ptr, static_cast<i32>(o));
      }
    }
  }

  /// A random block of straight-line code or control flow.
  void block(xasm::Assembler& a) {
    const int kind = rng_.uniform(0, has_hwloops() ? 8 : 4);
    switch (kind) {
      case 0:
        for (int i = rng_.uniform(6, 12); i > 0; --i) op(a);
        break;
      case 1: {  // forward conditional branch over a few ops
        const Label skip = a.new_label();
        branch(a, forms_[static_cast<size_t>(rng_.uniform(
                      0, static_cast<i32>(forms_.size()) - 1))],
               src(), src(), rng_.uniform(-16, 15), skip);
        for (int i = 0; i < 4; ++i) op(a);
        a.bind(skip);
        break;
      }
      case 2:
        hot_loop(a);
        break;
      case 3:
        stream(a, false);
        break;
      case 4:
        loop_nest(a);
        break;
      case 5: {  // cold hardware loop: too few trips to fuse
        const Label end = hwloop(a, 0, static_cast<u32>(rng_.uniform(2, 6)));
        for (int i = 0; i < 5; ++i) body_op(a);
        a.bind(end);
        break;
      }
      case 6:  // nested hardware loops, L1 counted by a register
      case 7: {  // the same, L0 re-entered until it gets hot
        const Label end1 = a.new_label();
        a.lp_setup(1, xasm::reg::s1, end1);
        const Label end0 = hwloop(a, 0, static_cast<u32>(
            kind == 6 ? rng_.uniform(2, 4) : rng_.uniform(7, 12)));
        for (int i = 0; i < 3; ++i) body_op(a);
        a.bind(end0);
        body_op(a);
        a.bind(end1);
        break;
      }
      case 8:
        matmul(a, false);
        break;
    }
    flush(a);
  }

  /// A loop hot enough to fuse: a hardware loop or a backward-branch loop
  /// nest (only the latter without hardware loops).
  void hot_loop(xasm::Assembler& a) {
    if (!has_hwloops() || one_in(2)) {
      loop_nest(a);
      return;
    }
    const Label end = hwloop(a, 0, static_cast<u32>(rng_.uniform(17, 31)));
    for (int i = rng_.uniform(2, 5); i > 0; --i) body_op(a);
    a.bind(end);
    flush(a);
  }

  /// Opens hardware loop `l` of `count` trips in the next deck form; the
  /// body follows, and the caller binds the returned end label after it.
  Label hwloop(xasm::Assembler& a, unsigned l, u32 count) {
    namespace n = nest_reg;
    const Label end = a.new_label();
    switch (hwloops_.draw(rng_)) {
      case HwLoop::kSetup:
        a.li(n::kCount, static_cast<i32>(count));
        a.lp_setup(l, n::kCount, end);
        break;
      case HwLoop::kSetupi:
        a.lp_setupi(l, count, end);
        break;
      case HwLoop::kCount:
      case HwLoop::kCounti: {
        const bool reg_count = one_in(2);
        const Label start = a.new_label();
        a.lp_starti(l, start);
        a.lp_endi(l, end);
        if (reg_count) {
          a.li(n::kCount, static_cast<i32>(count));
          a.lp_count(l, n::kCount);
        } else {
          a.lp_counti(l, count);
        }
        a.bind(start);
        break;
      }
    }
    return end;
  }

  /// Conditional branch of form `b` on (rs1, rs2), or on rs1 and `imm5`
  /// for the immediate forms.
  static void branch(xasm::Assembler& a, Branch b, u8 rs1, u8 rs2, i32 imm5,
                     Label t) {
    switch (b) {
      case Branch::kBeq: a.beq(rs1, rs2, t); break;
      case Branch::kBne: a.bne(rs1, rs2, t); break;
      case Branch::kBlt: a.blt(rs1, rs2, t); break;
      case Branch::kBge: a.bge(rs1, rs2, t); break;
      case Branch::kBltu: a.bltu(rs1, rs2, t); break;
      case Branch::kBgeu: a.bgeu(rs1, rs2, t); break;
      case Branch::kBeqimm: a.p_beqimm(rs1, imm5, t); break;
      case Branch::kBneimm: a.p_bneimm(rs1, imm5, t); break;
    }
  }

  /// A backward-branch loop of 17..40 trips, closed by the next deck
  /// branch form, whose body holds random ops and (with hardware loops)
  /// one or two counted inner loops; optionally the first inner body
  /// stores the loop's first instruction word back over itself. The
  /// engine fuses the nest as one plan with inner loops.
  void loop_nest(xasm::Assembler& a) {
    namespace n = nest_reg;
    const BranchLoop loop = open_branch_loop(a, rng_.uniform(17, 40));
    const addr_t top_addr = a.current_addr();
    bool smc = has_hwloops() && one_in(4);
    for (int i = rng_.uniform(0, 2); i > 0; --i) body_op(a);
    for (int l = has_hwloops() ? rng_.uniform(1, 2) : 0; l > 0; --l) {
      // Only lp.setup/lp.setupi loops nest in a plan; one time in six the
      // loop takes a deck form, which may make the region fail to compile.
      const unsigned li = static_cast<unsigned>(rng_.uniform(0, 1));
      const u32 count = static_cast<u32>(rng_.uniform(0, 4));
      Label end;
      if (one_in(6)) {
        end = hwloop(a, li, count);
      } else if (one_in(2)) {
        end = a.new_label();
        a.li(n::kCount, static_cast<i32>(count));
        a.lp_setup(li, n::kCount, end);
      } else {
        end = a.new_label();
        a.lp_setupi(li, count, end);
      }
      for (int i = rng_.uniform(2, 4); i > 0; --i) body_op(a);
      if (smc) {
        const i32 off = static_cast<i32>(top_addr - a.current_addr());
        a.auipc(n::kCodePtr, 0);
        a.lw(n::kWord, n::kCodePtr, off);
        a.sw(n::kWord, n::kCodePtr, off);
        smc = false;
      }
      a.bind(end);
      for (int i = rng_.uniform(0, 3); i > 0; --i) body_op(a);
    }
    if (!has_hwloops()) {
      for (int i = rng_.uniform(3, 6); i > 0; --i) body_op(a);
    }
    close_branch_loop(a, loop);
    flush(a);
  }

  /// A counted backward-branch loop: its top, and the deck branch form
  /// that closes it. The counter steps by one to `stop` — a limit
  /// register, or the p.bneimm form's immediate. Ordered forms count up,
  /// never wrapping in their compare order (signed or unsigned), and two
  /// times in three straddle the point where the other order would
  /// disagree; the equality forms count either way. beq and p.beqimm
  /// compare `flag` + (counter < limit) with `flag` + 1.
  struct BranchLoop {
    Label top;
    Branch form;
    i32 stop;
    i32 step;
    i32 flag;
  };

  BranchLoop open_branch_loop(xasm::Assembler& a, int trips) {
    namespace n = nest_reg;
    const Branch form = branches_.draw(rng_);
    const u32 t = static_cast<u32>(trips);
    const bool equality = form == Branch::kBne || form == Branch::kBneimm;
    const i32 step = equality && one_in(2) ? -1 : 1;
    u32 stop = static_cast<u32>(rng_.uniform(-16, 15));
    if (form != Branch::kBneimm) {
      const bool is_unsigned = form == Branch::kBltu || form == Branch::kBgeu;
      const u32 order_min = is_unsigned ? 0u : 0x80000000u;
      stop = one_in(3) ? order_min + t + rng_.next_u32() % 0xffffff00u
                       : order_min + 0x80000000u +
                             static_cast<u32>(rng_.uniform(1, trips - 1));
      // bge/bgeu continue while limit >= counter.
      const bool ge = form == Branch::kBge || form == Branch::kBgeu;
      a.li(n::kLimit, static_cast<i32>(ge ? stop - 1 : stop));
    }
    const i32 flag = rng_.uniform(-17, 14);
    if (form == Branch::kBeq) a.li(n::kFlag, flag + 1);
    a.li(n::kTrips, static_cast<i32>(stop - static_cast<u32>(step) * t));
    return {a.here(), form, static_cast<i32>(stop), step, flag};
  }

  void close_branch_loop(xasm::Assembler& a, const BranchLoop& l) {
    namespace r = xasm::reg;
    namespace n = nest_reg;
    a.addi(n::kTrips, n::kTrips, l.step);
    u8 counter = n::kTrips;
    if (one_in(3)) {
      // Round-trip the counter through memory: the branch then waits on
      // a load (a load-use stall inside the branch plan).
      a.li(n::kCodePtr, static_cast<i32>(gen_data::kSpill));
      a.sw(n::kTrips, n::kCodePtr, 0);
      a.lw(n::kCmp, n::kCodePtr, 0);
      counter = n::kCmp;
    }
    switch (l.form) {
      case Branch::kBeq:
      case Branch::kBeqimm:
        a.slt(n::kCmp, counter, n::kLimit);
        a.addi(n::kCmp, n::kCmp, l.flag);
        branch(a, l.form, n::kCmp, n::kFlag, l.flag + 1, l.top);
        break;
      case Branch::kBge:
      case Branch::kBgeu:
        branch(a, l.form, n::kLimit, counter, 0, l.top);
        break;
      case Branch::kBne:
      case Branch::kBlt:
      case Branch::kBltu:
        branch(a, l.form, counter, n::kLimit, 0, l.top);
        break;
      case Branch::kBneimm:
        branch(a, l.form, counter, r::zero, l.stop, l.top);
        break;
    }
  }

  /// Trips of a hot loop that walks off the end of memory: the pointer
  /// starts `k` strides short of it, so the fault lands mid-burst.
  static addr_t off_end_start(int k, u32 stride) {
    return mem::Memory::kDefaultSize - static_cast<u32>(k) * stride;
  }

  /// A hot loop streaming data through walking pointers: a load of random
  /// width and signedness (sign-extending and misaligned ones included),
  /// random ops, and a store; or the im2col copy shape (word load, store
  /// of the loaded word). With `off_end` a pointer leaves memory on the
  /// way: the load's, or the copy's store pointer, whose store also waits
  /// on the load before it.
  void stream(xasm::Assembler& a, bool off_end) {
    namespace g = gen_data;
    static constexpr isa::Mnemonic kLoads[] = {
        isa::Mnemonic::kLb, isa::Mnemonic::kLh, isa::Mnemonic::kLw,
        isa::Mnemonic::kLbu, isa::Mnemonic::kLhu, isa::Mnemonic::kLb,
        isa::Mnemonic::kLh};
    const isa::Mnemonic ld = kLoads[rng_.uniform(0, 6)];
    const u32 size = isa::mem_access_size(ld);
    const u32 misalign = size > 1 && one_in(3) ? 1 : 0;
    const bool copy = has_hwloops() && one_in(3);
    const int k = rng_.uniform(20, 28);
    a.li(g::kSrc, static_cast<i32>(off_end && !copy
                                       ? off_end_start(k, size) + misalign
                                       : g::kStreamSrc + misalign));
    a.li(g::kDst, static_cast<i32>(off_end && copy
                                       ? off_end_start(k, 4)
                                       : g::kStreamDst + (one_in(3) ? 2 : 0)));
    const auto body = [&] {
      if (copy) {
        a.p_lw_post(5, g::kSrc, 4);
        a.p_sw_post(5, g::kDst, 4);
        return;
      }
      const u8 rd = dest();
      if (has_hwloops()) {
        emit_mem(a, ld, rd, g::kSrc, static_cast<i32>(size), true);
      } else {
        emit_mem(a, ld, rd, g::kSrc, 0, false);
        a.addi(g::kSrc, g::kSrc, static_cast<i32>(size));
      }
      for (int i = rng_.uniform(1, 2); i > 0; --i) body_op(a);
      static constexpr isa::Mnemonic kStores[] = {
          isa::Mnemonic::kSb, isa::Mnemonic::kSh, isa::Mnemonic::kSw};
      const isa::Mnemonic st = kStores[rng_.uniform(0, 2)];
      const i32 st_size = static_cast<i32>(isa::mem_access_size(st));
      if (has_hwloops()) {
        emit_mem(a, st, rd, g::kDst, st_size, true);
      } else {
        emit_mem(a, st, rd, g::kDst, 0, false);
        a.addi(g::kDst, g::kDst, st_size);
      }
    };
    if (has_hwloops()) {
      const Label end = hwloop(a, 0, static_cast<u32>(off_end ? 31 : rng_.uniform(17, 31)));
      body();
      a.bind(end);
    } else {
      const BranchLoop loop =
          open_branch_loop(a, off_end ? 40 : rng_.uniform(17, 31));
      body();
      close_branch_loop(a, loop);
    }
    flush(a);
  }

  /// The 2x2-blocked MatMul inner body (two activation words x two weight
  /// words, four dot products of one format) in a hot hardware loop; the
  /// engine runs it as one macro-op. Pointers may be misaligned; with
  /// `off_end` the activation pointer leaves memory on the way. One time
  /// in three the body just misses the shape (16-bit lanes, a second dot
  /// mnemonic, a broken operand pattern, an accumulator read as an
  /// operand) and runs on the generic fused loop.
  void matmul(xasm::Assembler& a, bool off_end) {
    namespace g = gen_data;
    namespace r = xasm::reg;
    static constexpr isa::Mnemonic kDots[] = {
        isa::Mnemonic::kPvDotup,  isa::Mnemonic::kPvDotusp,
        isa::Mnemonic::kPvDotsp,  isa::Mnemonic::kPvSdotup,
        isa::Mnemonic::kPvSdotusp, isa::Mnemonic::kPvSdotsp};
    static constexpr isa::Mnemonic kMixed[] = {
        isa::Mnemonic::kPvMldotup,  isa::Mnemonic::kPvMldotusp,
        isa::Mnemonic::kPvMldotsp,  isa::Mnemonic::kPvMlsdotup,
        isa::Mnemonic::kPvMlsdotusp, isa::Mnemonic::kPvMlsdotsp};
    isa::Mnemonic op = kDots[rng_.uniform(0, 5)];
    isa::SimdFmt fmt = isa::SimdFmt::kB;
    if (cfg_.xpulpnn) {
      switch (rng_.uniform(0, 3)) {
        case 0: break;
        case 1: fmt = isa::SimdFmt::kN; break;
        case 2: fmt = isa::SimdFmt::kC; break;
        case 3:
          op = kMixed[rng_.uniform(0, 5)];
          fmt = isa::SimdFmt::kNone;
          a.csrrwi(r::zero, isa::kMpcCsr, static_cast<u32>(rng_.uniform(0, 2)));
          break;
      }
    }
    const int k = rng_.uniform(20, 28);
    const u32 mis = one_in(2) ? static_cast<u32>(rng_.uniform(1, 3)) : 0;
    // One base per load: activations from kSrc and a5, weights from kDst
    // and t3, each pair interleaved word by word.
    const addr_t act = off_end ? off_end_start(k, 8) + mis : g::kMatA + mis;
    const addr_t wgt = g::kMatW + (one_in(3) ? 2 : 0);
    a.li(g::kSrc, static_cast<i32>(act));
    a.li(r::a5, static_cast<i32>(act + 4));
    a.li(g::kDst, static_cast<i32>(wgt));
    a.li(r::t3, static_cast<i32>(wgt + 4));
    const Label end = hwloop(a, 0, static_cast<u32>(off_end ? 31 : rng_.uniform(17, 31)));
    const int miss = one_in(3) ? rng_.uniform(1, 4) : 0;
    if (miss == 1 && fmt != isa::SimdFmt::kNone) fmt = isa::SimdFmt::kH;
    a.p_lw_post(r::t0, g::kSrc, 8);
    a.p_lw_post(r::t1, r::a5, 8);
    a.p_lw_post(r::t2, g::kDst, 8);
    a.p_lw_post(r::a0, r::t3, 8);
    a.pv_op(op, fmt, r::a1, r::t0, r::t2);
    a.pv_op(op, fmt, r::a2, r::t1, r::t2);
    a.pv_op(op, fmt, r::a3, r::t0, r::a0);
    if (miss == 2) {
      const isa::Mnemonic* family =
          fmt == isa::SimdFmt::kNone ? kMixed : kDots;
      op = family[op == family[0] ? 1 : 0];
    }
    a.pv_op(op, fmt, miss == 4 ? r::t0 : r::a4, r::t1,
            miss == 3 ? r::t2 : r::a0);
    a.bind(end);
  }

  /// A load or store `op` of `reg` at `base` (+`imm`, post-incremented by
  /// it when `post`).
  static void emit_mem(xasm::Assembler& a, isa::Mnemonic op, u8 reg, u8 base,
                       i32 imm, bool post) {
    isa::Instr in;
    in.op = post ? post_form(op) : op;
    in.rs1 = base;
    in.imm = imm;
    if (isa::is_store(op)) {
      in.rs2 = reg;
    } else {
      in.rd = reg;
    }
    a.emit(in);
  }

  static isa::Mnemonic post_form(isa::Mnemonic op) {
    using M = isa::Mnemonic;
    switch (op) {
      case M::kLb: return M::kPLbPostImm;
      case M::kLh: return M::kPLhPostImm;
      case M::kLw: return M::kPLwPostImm;
      case M::kLbu: return M::kPLbuPostImm;
      case M::kLhu: return M::kPLhuPostImm;
      case M::kSb: return M::kPSbPostImm;
      case M::kSh: return M::kPShPostImm;
      default: return M::kPSwPostImm;
    }
  }

  /// One straight-line op: the next table entry from the deck.
  void op(xasm::Assembler& a) { emit_entry(a, draw()); }

  /// One op of a loop body. CSR ops and fence are put off until the block
  /// ends (flush): the engine never fuses them, so a body holding one
  /// would never fuse at all.
  void body_op(xasm::Assembler& a) {
    const size_t i = draw();
    const isa::ExecClass c = isa::canonical_samples(isa::isa_table()[i])
                                 .front()
                                 .cls;
    if (c == isa::ExecClass::kCsr || c == isa::ExecClass::kFence) {
      deferred_.push_back(i);
    } else {
      emit_entry(a, i);
    }
  }

  void flush(xasm::Assembler& a) {
    for (const size_t i : deferred_) emit_entry(a, i);
    deferred_.clear();
  }

  size_t draw() {
    const size_t i = entries_.draw(rng_);
    drawn_[i] = true;
    return i;
  }

  /// Memory offset from s0 for a `size`-byte access: aligned three times
  /// in four.
  i32 offset(u32 size, u32 span) {
    if (one_in(4)) return rng_.uniform(0, static_cast<i32>(span - size));
    return static_cast<i32>(size) *
           rng_.uniform(0, static_cast<i32>(span / size) - 1);
  }

  /// Table entry `i` with random operands inside its constraints. Sources
  /// are x5..x15, destinations avoid s0/s1 (x8/x9), which anchor the data
  /// pointer and a loop count. Memory ops address the data window (after
  /// a base or offset register setup where the mode needs one); pv.qnt
  /// reads a threshold tree (misaligned one time in four).
  void emit_entry(xasm::Assembler& a, size_t i) {
    namespace r = xasm::reg;
    using S = isa::EncShape;
    const isa::IsaTableEntry& e = isa::isa_table()[i];
    const std::vector<isa::Instr> samples = isa::canonical_samples(e);
    isa::Instr in = samples[static_cast<size_t>(
        rng_.uniform(0, static_cast<i32>(samples.size()) - 1))];
    in.rd = dest();
    in.rs1 = src();
    in.rs2 = src();
    const u32 size = in.mem_size;
    const bool post = in.has(isa::iflag::kMemPostInc);
    switch (e.shape) {
      case S::kU:
        in.imm = static_cast<i32>(rng_.next_u32() & 0xfffff000u);
        break;
      case S::kI:
        in.imm = rng_.uniform(-2048, 2047);
        break;
      case S::kShift:
      case S::kClipImm:
        in.imm = rng_.uniform(0, 31);
        break;
      case S::kR:
      case S::kRUnary:
        break;
      case S::kBitmanip: {
        const int width = rng_.uniform(1, 32);
        in.imm = rng_.uniform(0, 32 - width);
        in.imm2 = static_cast<u8>(width - 1);
        break;
      }
      case S::kSimdLane:
        in.imm = rng_.uniform(0, static_cast<i32>(isa::simd_elem_count(e.fmt)) - 1);
        break;
      case S::kSimdQnt:
        in.rs2 = e.fmt == isa::SimdFmt::kN ? gen_data::kTreeN : gen_data::kTreeC;
        if (one_in(4)) {
          a.addi(r::t1, in.rs2, 1);
          in.rs2 = r::t1;
        }
        break;
      case S::kCsr:
      case S::kCsrImm: {
        // Counters, mhartid, mscratch, the mpc selector and an
        // unimplemented address (reads 0, ignores writes).
        static constexpr u32 kCsrs[] = {0xB00, 0xC00, 0xB80, 0xC80, 0xB02,
                                        0xC02, 0xB82, 0xC82, 0xF14, 0x340,
                                        isa::kMpcCsr, 0x300};
        in.imm = static_cast<i32>(kCsrs[rng_.uniform(0, 11)]);
        in.imm2 = static_cast<u8>(rng_.uniform(0, 31));
        if (static_cast<u32>(in.imm) == isa::kMpcCsr) {
          // Keep the selector in 0..2: 3 is reserved and traps every mixed
          // dot product. Clears are always safe.
          using M = isa::Mnemonic;
          if (in.op == M::kCsrrw || in.op == M::kCsrrs) in.rs1 = r::zero;
          if (in.op == M::kCsrrsi) in.imm2 = 0;
          if (in.op == M::kCsrrwi) in.imm2 = static_cast<u8>(rng_.uniform(0, 2));
        }
        break;
      }
      case S::kFixedWord:
        in = samples.front();
        break;
      case S::kIAddr:
      case S::kS:
        if (post) {
          a.addi(r::t2, r::s0, offset(1, gen_data::kWindow - 64));
          in.rs1 = r::t2;
          in.imm = rng_.uniform(-16, 16) * static_cast<i32>(one_in(4) ? 1 : size);
        } else {
          in.rs1 = r::s0;
          in.imm = offset(size, gen_data::kWindow);
        }
        break;
      case S::kRLoad:
      case S::kRStore:
        // The offset register is rs2 for loads and the rd field for stores.
        a.addi(r::t2, r::s0, offset(1, gen_data::kWindow - 64));
        a.addi(r::t1, r::zero, offset(size, 64));
        in.rs1 = r::t2;
        (e.shape == S::kRLoad ? in.rs2 : in.rd) = r::t1;
        break;
      default:
        ADD_FAILURE() << "control-flow entry drawn as straight-line code: "
                      << isa::mnemonic_name(e.op);
        return;
    }
    a.emit(in);
  }

  Rng rng_;
  sim::CoreConfig cfg_;
  Deck<size_t> entries_;
  std::vector<Branch> forms_;  // the tier's conditional-branch forms
  Deck<Branch> branches_;
  Deck<HwLoop> hwloops_;
  std::vector<bool> drawn_;
  std::vector<size_t> deferred_;
};

/// One XpulpNN program of a fresh ProgramGen stream.
inline xasm::Program random_program(u64 seed) {
  return ProgramGen(seed, Tier::kXpulpNN).next();
}

/// A deterministic loop nest shaped like the conv kernels' channel-pair
/// loop: `trips` iterations of a backward-branch loop holding a register-
/// count hardware loop of dot products (count trips & 3, so 0 and 1 occur)
/// and an immediate-count loop ending in a load the next op consumes,
/// with a packed store per iteration. Operands are read from the code
/// itself; results go to 0x8000. With `smc`, the first inner body stores
/// the loop's first instruction word back over itself.
inline xasm::Program loop_nest_program(int trips, bool smc = false,
                                       addr_t base = 0) {
  namespace r = xasm::reg;
  namespace n = nest_reg;
  xasm::Assembler a(base);
  a.li(r::s0, static_cast<i32>(base));  // operand pointer: the code
  a.li(r::s1, 0x8000);                   // output pointer
  a.li(n::kTrips, trips);
  const addr_t top_addr = a.current_addr();
  const xasm::Assembler::Label top = a.here();
  a.mv(r::a0, r::s0);
  a.mv(r::a4, r::zero);
  a.andi(n::kCount, n::kTrips, 3);
  const xasm::Assembler::Label end0 = a.new_label();
  a.lp_setup(0, n::kCount, end0);
  a.p_lw_post(r::t0, r::a0, 4);
  a.p_lw_post(r::t1, r::a0, 4);
  a.pv_sdotsp(isa::SimdFmt::kB, r::a4, r::t0, r::t1);
  if (smc) {
    const i32 off = static_cast<i32>(top_addr - a.current_addr());
    a.auipc(n::kCodePtr, 0);
    a.lw(n::kWord, n::kCodePtr, off);
    a.sw(n::kWord, n::kCodePtr, off);
  }
  a.add(r::a5, r::a5, r::t0);
  a.bind(end0);
  a.srai(r::t2, r::a4, 3);
  a.p_sb_post(r::t2, r::s1, 1);
  const xasm::Assembler::Label end1 = a.new_label();
  a.lp_setupi(1, 3, end1);
  a.addi(r::a1, r::a1, 4);
  a.lw(r::t3, r::a1, 0);
  a.bind(end1);
  a.p_mac(r::a6, r::t3, r::t3);  // load-use hazard across the loop exit
  a.addi(n::kTrips, n::kTrips, -1);
  a.bne(n::kTrips, r::zero, top);
  a.ecall();
  return a.finish();
}

/// `li` with a fixed two-instruction expansion, so a program that embeds
/// its own addresses keeps the same layout on its second assembly pass.
inline void li32(xasm::Assembler& a, u8 rd, u32 v) {
  const u32 hi = (v + 0x800) & ~0xfffu;
  a.lui(rd, hi);
  a.addi(rd, rd, static_cast<i32>(v - hi));
}

/// A program whose entry pc sits above code it calls into, and which
/// patches its own instructions around the span the core was reset over.
/// Stresses the decode cache's span rules: the first call below the entry
/// rebases the cache (`filler` spaces the second, farther callee so that
/// its rebase needs more than the minimum step), and the patching pass
/// stores just below the entry, straddling it, inside [entry, code_end)
/// and past code_end, over code the core then executes again.
struct BelowEntryProgram {
  xasm::Program prog;
  addr_t entry;
  addr_t code_end;  // one past the last assembled byte
  /// a0..a4 after a correct run.
  static constexpr std::array<u32, 5> kExpected = {1001, 2, 101, 101, 20};
};

inline BelowEntryProgram below_entry_program(addr_t base, int filler) {
  namespace r = xasm::reg;
  const auto word = [](isa::Mnemonic op, u8 rd, u8 rs1, i32 imm) {
    isa::Instr in;
    in.op = op;
    in.rd = rd;
    in.rs1 = rs1;
    in.imm = imm;
    return isa::encode(in);
  };
  const u32 ret_word = word(isa::Mnemonic::kJalr, 0, r::ra, 0);
  struct Layout {
    addr_t below = 0, entry = 0, in_span = 0, past_end = 0;
  };
  const auto build = [&](const Layout& in, Layout& out) {
    xasm::Assembler a(base);
    // Far callee: a hot hardware loop, so fused bursts run below the
    // entry once the cache has been rebased over it.
    const xasm::Assembler::Label far = a.here();
    const xasm::Assembler::Label far_end = a.new_label();
    a.lp_setupi(0, 20, far_end);
    a.addi(r::a4, r::a4, 1);
    a.bind(far_end);
    a.ret();
    for (int i = 0; i < filler; ++i) a.nop();
    // Near callee: its addi is patched before the first call reaches it.
    out.below = a.current_addr();
    const xasm::Assembler::Label near = a.here();
    a.addi(r::a0, r::a0, 1);  // patched to +1000
    a.ret();

    out.entry = a.current_addr();
    const xasm::Assembler::Label entry = a.here();
    a.addi(r::a0, r::a0, 1);  // low half patched: becomes a1 = a0 + 1
    out.in_span = a.current_addr();
    a.addi(r::a2, r::a2, 1);  // patched to +100
    const xasm::Assembler::Label pass2 = a.new_label();
    a.bne(r::t2, r::zero, pass2);

    a.addi(r::t2, r::zero, 1);
    // Wholly below the entry: the cache does not cover it yet.
    li32(a, r::t0, in.below);
    li32(a, r::t1, word(isa::Mnemonic::kAddi, r::a0, r::a0, 1000));
    a.sw(r::t1, r::t0, 0);
    // Straddling the entry: keeps the high half of the near callee's ret,
    // rewrites the low half (rd) of the executed entry instruction.
    const u32 entry_patched = word(isa::Mnemonic::kAddi, r::a1, r::a0, 1);
    li32(a, r::t0, in.entry - 2);
    li32(a, r::t1, (ret_word >> 16) | (entry_patched << 16));
    a.sw(r::t1, r::t0, 0);
    // Inside the span, over an executed instruction.
    li32(a, r::t0, in.in_span);
    li32(a, r::t1, word(isa::Mnemonic::kAddi, r::a2, r::a2, 100));
    a.sw(r::t1, r::t0, 0);
    // Past code_end: write a two-instruction function, run it, patch it.
    li32(a, r::t0, in.past_end);
    li32(a, r::t1, word(isa::Mnemonic::kAddi, r::a3, r::a3, 1));
    a.sw(r::t1, r::t0, 0);
    li32(a, r::t1, ret_word);
    a.sw(r::t1, r::t0, 4);
    a.jalr(r::ra, r::t0, 0);
    li32(a, r::t1, word(isa::Mnemonic::kAddi, r::a3, r::a3, 100));
    a.sw(r::t1, r::t0, 0);
    a.j(entry);

    a.bind(pass2);
    a.jal(r::ra, near);
    a.jal(r::ra, far);
    li32(a, r::t0, in.past_end);
    a.jalr(r::ra, r::t0, 0);
    a.ecall();
    out.past_end = a.current_addr() + 16;
    return a.finish();
  };

  Layout guess, real, check;
  build(guess, real);
  xasm::Program prog = build(real, check);
  const addr_t code_end = prog.base() + prog.size_bytes();
  return {std::move(prog), real.entry, code_end};
}

}  // namespace xpulp::test
