// Shared helpers for the differential test suites (dispatch diff, snapshot
// diff): a complete final-machine-state record, an exhaustive equality
// check over every slot of a counter struct, and the random
// always-terminating program generator.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "isa/encoding.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"
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
};

/// Snapshot the observable machine state (registers, pc, halt reason, perf
/// counters, memory and dot-product activity counters, full memory image)
/// of a core that has finished running.
inline FinalState final_state_of(const sim::Core& core,
                                 const mem::Memory& mem) {
  FinalState s;
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
/// 0 leaves the decode cache to its growth path. `stats`, when given,
/// receives the superblock engine's coverage counters.
inline FinalState run_from(const xasm::Program& prog, sim::CoreConfig cfg,
                           addr_t entry, addr_t code_end,
                           u64 max_instr = 2'000'000,
                           sim::SuperblockStats* stats = nullptr) {
  mem::Memory mem;
  prog.load(mem);
  sim::Core core(mem, std::move(cfg));
  core.reset(entry, code_end);
  core.run(max_instr);
  if (stats != nullptr) *stats = core.superblock_stats();
  return final_state_of(core, mem);
}

inline FinalState run_mode(const xasm::Program& prog, sim::CoreConfig cfg,
                           bool reference, u64 max_instr = 2'000'000) {
  cfg.reference_dispatch = reference;
  return run_from(prog, std::move(cfg), prog.entry(),
                  prog.base() + prog.size_bytes(), max_instr);
}

/// Third dispatch mode: the fast path with the superblock engine forced
/// on, regardless of the XPULP_SUPERBLOCK environment default. `stats`,
/// when given, receives the engine's coverage counters.
inline FinalState run_mode_superblock(const xasm::Program& prog,
                                      sim::CoreConfig cfg,
                                      u64 max_instr = 2'000'000,
                                      sim::SuperblockStats* stats = nullptr) {
  cfg.reference_dispatch = false;
  cfg.superblock = true;
  return run_from(prog, std::move(cfg), prog.entry(),
                  prog.base() + prog.size_bytes(), max_instr, stats);
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
inline void expect_identical(const FinalState& ref, const FinalState& fast) {
  for (unsigned i = 0; i < 32; ++i) {
    EXPECT_EQ(ref.regs[i], fast.regs[i]) << "x" << i;
  }
  EXPECT_EQ(ref.pc, fast.pc);
  EXPECT_EQ(ref.reason, fast.reason);
  EXPECT_EQ(ref.mem, fast.mem);
  expect_same_counters(ref.perf, fast.perf, "perf");
  expect_same_counters(ref.mem_stats, fast.mem_stats, "mem");
  expect_same_counters(ref.dotp, fast.dotp, "dotp");
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

/// One random instruction into the current basic block. Destinations avoid
/// s0/s1 (x8/x9): they anchor the only legal data pointers.
inline void random_op(xasm::Assembler& a, Rng& rng) {
  static constexpr u8 kDests[] = {5, 6, 7, 10, 11, 12, 13, 14, 15};
  const u8 rd = kDests[rng.uniform(0, 8)];
  const u8 rs1 = static_cast<u8>(rng.uniform(5, 15));
  const u8 rs2 = kDests[rng.uniform(0, 8)];
  switch (rng.uniform(0, 25)) {
    case 0: a.add(rd, rs1, rs2); break;
    case 1: a.sub(rd, rs1, rs2); break;
    case 2: a.mul(rd, rs1, rs2); break;
    case 3: a.mulh(rd, rs1, rs2); break;
    case 4: a.div(rd, rs1, rs2); break;
    case 5: a.remu(rd, rs1, rs2); break;
    case 6: a.p_max(rd, rs1, rs2); break;
    case 7: a.p_mac(rd, rs1, rs2); break;
    case 8: a.pv_add(isa::SimdFmt::kN, rd, rs1, rs2); break;
    case 9: a.pv_sdotusp(isa::SimdFmt::kC, rd, rs1, rs2); break;
    case 10: a.pv_sdotsp(isa::SimdFmt::kB, rd, rs1, rs2); break;
    case 11: a.pv_shuffle(isa::SimdFmt::kB, rd, rs1, rs2); break;
    // Loads feed the load-use hazard model; keep them frequent.
    case 12: a.lw(rd, xasm::reg::s0, rng.uniform(0, 500) * 4); break;
    case 13: a.lbu(rd, xasm::reg::s0, rng.uniform(0, 2000)); break;
    case 14: a.sw(rd, xasm::reg::s0, rng.uniform(0, 500) * 4); break;
    case 15: a.p_extractu(rd, rs1, 1 + rng.uniform(0, 7),
                          rng.uniform(0, 24)); break;
    case 16: a.srai(rd, rs1, static_cast<u32>(rng.uniform(0, 31))); break;
    case 17: a.p_clip(rd, rs1, 1 + static_cast<u32>(rng.uniform(0, 15)));
             break;
    // Post-increment / reg-offset addressing: these carry their mode in the
    // packed decode flags on the fast path. A scratch base keeps s0 stable;
    // rd == base is legal and exercises the writeback-ordering edge.
    case 18:
      a.addi(7, xasm::reg::s0, rng.uniform(0, 64) * 4);
      a.p_lw_post(rd, 7, rng.uniform(-16, 16) * 4);
      break;
    case 19:
      a.addi(6, 0, rng.uniform(0, 127) * 4);
      a.p_lw_rr(rd, xasm::reg::s0, 6);
      break;
    case 20:
      a.addi(7, xasm::reg::s0, rng.uniform(0, 64) * 4);
      a.p_sw_post(rd, 7, rng.uniform(-16, 16) * 4);
      break;
    // Remaining dot-product shapes: 16-bit lanes and scalar-replicated
    // operands go through different decode-specialized kernels.
    case 21: a.pv_dotup(isa::SimdFmt::kH, rd, rs1, rs2); break;
    case 22: a.pv_sdotsp(isa::SimdFmt::kBSc, rd, rs1, rs2); break;
    // Mixed virtual dots read their operand formats from the mpc CSR, and
    // mid-program CSR writes force superblock eviction and re-specialized
    // decode — the selector stays in 0..2 (3 is reserved and would trap).
    case 23: a.pv_mlsdotusp(rd, rs1, rs2); break;
    case 24: a.pv_mldotsp(rd, rs1, rs2); break;
    case 25:
      a.csrrwi(rd, isa::kMpcCsr, static_cast<u32>(rng.uniform(0, 2)));
      break;
  }
}

/// Registers random_op never writes: the loop-nest blocks' counters.
namespace nest_reg {
inline constexpr u8 kTrips = 18;   // s2: backward-branch loop counter
inline constexpr u8 kCount = 19;   // s3: inner hardware-loop count
inline constexpr u8 kCodePtr = 20; // s4: code-address scratch
inline constexpr u8 kWord = 21;    // s5: code word scratch
}  // namespace nest_reg

/// A backward-branch loop of `trips` iterations whose body holds one or
/// two register-count hardware loops among random straight-line ops: the
/// shape the superblock engine fuses as one plan with inner loops. Counts
/// run 0..4 (0 and 1 both execute the body once). With `smc`, the first
/// inner body stores the loop's first instruction word back over itself
/// — no change in behaviour, but a store into the outer body while an
/// inner loop runs.
inline void random_loop_nest(xasm::Assembler& a, Rng& rng, int trips,
                             bool smc) {
  namespace n = nest_reg;
  a.li(n::kTrips, trips);
  const addr_t top_addr = a.current_addr();
  const xasm::Assembler::Label top = a.here();
  for (int i = rng.uniform(0, 2); i > 0; --i) random_op(a, rng);
  for (int l = rng.uniform(1, 2); l > 0; --l) {
    a.li(n::kCount, rng.uniform(0, 4));
    const xasm::Assembler::Label end = a.new_label();
    a.lp_setup(static_cast<unsigned>(rng.uniform(0, 1)), n::kCount, end);
    for (int i = rng.uniform(2, 4); i > 0; --i) random_op(a, rng);
    if (smc) {
      const i32 off = static_cast<i32>(top_addr - a.current_addr());
      a.auipc(n::kCodePtr, 0);
      a.lw(n::kWord, n::kCodePtr, off);
      a.sw(n::kWord, n::kCodePtr, off);
      smc = false;
    }
    a.bind(end);
    for (int i = rng.uniform(0, 3); i > 0; --i) random_op(a, rng);
  }
  a.addi(n::kTrips, n::kTrips, -1);
  a.bne(n::kTrips, 0, top);
}

/// A random but always-terminating program: straight-line blocks mixed
/// with forward branches, immediate-compare branches, nested hardware
/// loops and backward-branch loops around hardware loops (the structures
/// whose dispatch differs most between the modes). Short loops entered
/// once stay interpreted under the superblock heat rule; the long and the
/// re-entered loops get hot and fuse. `base` places the code; the data
/// region stays at 0x8000.
inline xasm::Program random_program(u64 seed, addr_t base = 0) {
  Rng rng(seed);
  xasm::Assembler a(base);
  a.li(xasm::reg::s0, 0x8000);  // data pointer (mapped, far from code)
  a.li(xasm::reg::s1, 3);       // small loop count

  const int blocks = 12;
  for (int b = 0; b < blocks; ++b) {
    switch (rng.uniform(0, 6)) {
      case 0: {  // plain straight-line block
        for (int i = 0; i < 12; ++i) random_op(a, rng);
        break;
      }
      case 1: {  // forward conditional branch over a few ops
        const xasm::Assembler::Label skip = a.new_label();
        const u8 rs1 = static_cast<u8>(rng.uniform(5, 15));
        const u8 rs2 = static_cast<u8>(rng.uniform(5, 15));
        switch (rng.uniform(0, 3)) {
          case 0: a.beq(rs1, rs2, skip); break;
          case 1: a.bne(rs1, rs2, skip); break;
          case 2: a.blt(rs1, rs2, skip); break;
          case 3: a.p_beqimm(rs1, rng.uniform(-16, 15), skip); break;
        }
        for (int i = 0; i < 4; ++i) random_op(a, rng);
        a.bind(skip);
        break;
      }
      case 2: {  // hardware loop (immediate count)
        const xasm::Assembler::Label end = a.new_label();
        a.lp_setupi(0, static_cast<u32>(rng.uniform(2, 6)), end);
        for (int i = 0; i < 5; ++i) random_op(a, rng);
        a.bind(end);
        break;
      }
      case 3: {  // nested hardware loops (register count in L1)
        const xasm::Assembler::Label end1 = a.new_label();
        const xasm::Assembler::Label end0 = a.new_label();
        a.lp_setup(1, xasm::reg::s1, end1);
        a.lp_setupi(0, static_cast<u32>(rng.uniform(2, 4)), end0);
        for (int i = 0; i < 3; ++i) random_op(a, rng);
        a.bind(end0);
        random_op(a, rng);
        a.bind(end1);
        break;
      }
      case 4: {  // hot hardware loop: more trips than the heat threshold
        const xasm::Assembler::Label end = a.new_label();
        a.lp_setupi(0, static_cast<u32>(rng.uniform(17, 31)), end);
        for (int i = 0; i < 4; ++i) random_op(a, rng);
        a.bind(end);
        break;
      }
      case 5: {  // short inner loop re-entered until it gets hot
        const xasm::Assembler::Label end1 = a.new_label();
        const xasm::Assembler::Label end0 = a.new_label();
        a.lp_setup(1, xasm::reg::s1, end1);
        a.lp_setupi(0, static_cast<u32>(rng.uniform(7, 12)), end0);
        for (int i = 0; i < 3; ++i) random_op(a, rng);
        a.bind(end0);
        random_op(a, rng);
        a.bind(end1);
        break;
      }
      case 6:  // hot backward-branch loop around hardware loops
        random_loop_nest(a, rng, rng.uniform(17, 40), rng.uniform(0, 3) == 0);
        break;
    }
  }
  a.ecall();
  return a.finish();
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
