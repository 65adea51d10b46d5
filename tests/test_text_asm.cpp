// Text assembler: syntax coverage, label handling, error reporting, and
// the disassemble -> reassemble round-trip property.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "isa/isa_table.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "xasm/text_asm.hpp"

namespace xpulp::xasm {
namespace {

u32 first_word(std::string_view src) {
  return assemble_text(src).words()[0];
}

TEST(TextAsm, RegisterNames) {
  EXPECT_EQ(parse_register("zero"), 0);
  EXPECT_EQ(parse_register("ra"), 1);
  EXPECT_EQ(parse_register("sp"), 2);
  EXPECT_EQ(parse_register("a0"), 10);
  EXPECT_EQ(parse_register("t6"), 31);
  EXPECT_EQ(parse_register("x0"), 0);
  EXPECT_EQ(parse_register("x31"), 31);
  EXPECT_EQ(parse_register("fp"), 8);
  EXPECT_EQ(parse_register("  A0 "), 10);  // case/space tolerant
  EXPECT_THROW(parse_register("x32"), AsmError);
  EXPECT_THROW(parse_register("q7"), AsmError);
}

TEST(TextAsm, BaseInstructions) {
  EXPECT_EQ(first_word("addi ra, sp, 5"), 0x00510093u);
  EXPECT_EQ(first_word("add gp, tp, t0"), 0x005201b3u);
  EXPECT_EQ(first_word("lw a0, 8(sp)"), 0x00812503u);
  EXPECT_EQ(first_word("sw a0, 12(sp)"), 0x00a12623u);
  EXPECT_EQ(first_word("ecall"), 0x00000073u);
  EXPECT_EQ(first_word("mul t0, t1, t2"), 0x027302b3u);
  EXPECT_EQ(first_word("srai ra, sp, 3"), 0x40315093u);
  EXPECT_EQ(first_word("lui ra, 0x12345"), 0x123450b7u);
}

TEST(TextAsm, CommentsAndBlanks) {
  const auto p = assemble_text(R"(
    # a comment-only line

    addi a0, zero, 1   # trailing comment
    // C++-style too
    addi a0, a0, 1
  )");
  EXPECT_EQ(p.size_words(), 2u);
}

TEST(TextAsm, LabelsForwardAndBackward) {
  const auto p = assemble_text(R"(
    start:
      addi a0, zero, 10
    loop:
      addi a0, a0, -1
      bne a0, zero, loop
      beq a0, zero, end
      nop
    end:
      ecall
  )");
  // bne at index 2 jumps back to index 1: offset -4.
  const auto bne = isa::decode(p.words()[2], 8);
  EXPECT_EQ(bne.imm, -4);
  // beq at index 3 jumps to index 5: offset +8.
  const auto beq = isa::decode(p.words()[3], 12);
  EXPECT_EQ(beq.imm, 8);
}

TEST(TextAsm, LabelOnSameLineAsInstruction) {
  const auto p = assemble_text("loop: addi a0, a0, 1\n j loop\n");
  const auto j = isa::decode(p.words()[1], 4);
  EXPECT_EQ(j.op, isa::Mnemonic::kJal);
  EXPECT_EQ(j.imm, -4);
}

TEST(TextAsm, PulpExtensions) {
  const auto p = assemble_text(R"(
    p.lw! a0, 4(a1!)
    p.sw! a0, -4(a2!)
    p.extract a0, a1, 7, 12
    p.clip t0, t1, 8
    lp.setupi x0, 10, body_end
    pv.sdotusp.n a4, a2, a0
    nop
    body_end:
    pv.qnt.n a4, a2, (a0)
    pv.add.sc.b t0, t1, t2
  )");
  const auto lw = isa::decode(p.words()[0], 0);
  EXPECT_EQ(lw.op, isa::Mnemonic::kPLwPostImm);
  EXPECT_EQ(lw.imm, 4);
  const auto sw = isa::decode(p.words()[1], 4);
  EXPECT_EQ(sw.op, isa::Mnemonic::kPSwPostImm);
  EXPECT_EQ(sw.imm, -4);
  const auto ex = isa::decode(p.words()[2], 8);
  EXPECT_EQ(ex.op, isa::Mnemonic::kPExtract);
  EXPECT_EQ(ex.imm2, 7);
  EXPECT_EQ(ex.imm, 12);
  const auto dot = isa::decode(p.words()[5], 20);
  EXPECT_EQ(dot.op, isa::Mnemonic::kPvSdotusp);
  EXPECT_EQ(dot.fmt, isa::SimdFmt::kN);
  const auto qnt = isa::decode(p.words()[7], 28);
  EXPECT_EQ(qnt.op, isa::Mnemonic::kPvQnt);
  const auto sc = isa::decode(p.words()[8], 32);
  EXPECT_EQ(sc.fmt, isa::SimdFmt::kBSc);
}

TEST(TextAsm, ErrorsCarryLineNumbers) {
  try {
    assemble_text("nop\nnop\nbogus a0, a1\n");
    FAIL();
  } catch (const TextAsmError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
  EXPECT_THROW(assemble_text("addi a0, zero, 99999\n"), AsmError);   // range
  EXPECT_THROW(assemble_text("addi a0, zero\n"), TextAsmError);      // arity
  EXPECT_THROW(assemble_text("lw a0, a1\n"), TextAsmError);          // operand
  EXPECT_THROW(assemble_text("beq a0, a1, nowhere\n"), AsmError);    // label
  EXPECT_THROW(assemble_text("lp.setupi x2, 1, l\nl:\n"), TextAsmError);
  // Integers that do not fit 32 bits are rejected, not wrapped.
  for (const char* src : {"addi a0, a0, 0x100000000", "lw a0, 0x100000004(a1)",
                          "li a0, 0x1ffffffff",
                          "p.extract a0, a1, 7, 4294967308"}) {
    try {
      assemble_text(std::string("nop\n") + src + "\n");
      ADD_FAILURE() << src << " assembled";
    } catch (const TextAsmError& e) {
      EXPECT_EQ(e.line(), 2u) << src;
    }
  }
}

TEST(TextAsm, RegisterAddressedMemory) {
  const auto p = assemble_text(R"(
    p.lw.r! a0, a2(a1!)
    p.lbu.rr a0, a2(a1)
    p.sw.r! a0, a3(a1!)
    p.sh.rr a0, a3(a1)
  )");
  EXPECT_EQ(p.words()[0], 0x04c5855bu);
  EXPECT_EQ(p.words()[1], 0x06c5955bu);
  EXPECT_EQ(p.words()[2], 0x04a5a6dbu);
  EXPECT_EQ(p.words()[3], 0x02a5b6dbu);
  // The '!' on the base register is written exactly when the mnemonic
  // post-increments.
  EXPECT_THROW(assemble_text("p.lw.r! a0, a2(a1)\n"), TextAsmError);
  EXPECT_THROW(assemble_text("p.lw! a0, 4(a1)\n"), TextAsmError);
  EXPECT_THROW(assemble_text("lw a0, 4(a1!)\n"), TextAsmError);
}

TEST(TextAsm, AssembledProgramRuns) {
  const auto p = assemble_text(R"(
      li   t0, 10
      li   a0, 0
    loop:
      addi a0, a0, 3
      addi t0, t0, -1
      bne  t0, zero, loop
      ecall
  )");
  mem::Memory mem(64 * 1024);
  p.load(mem);
  sim::Core core(mem);
  core.reset(p.entry());
  core.run();
  EXPECT_EQ(core.reg(10), 30u);
}

TEST(TextAsm, HardwareLoopProgramRuns) {
  const auto p = assemble_text(R"(
      li a0, 0
      lp.setupi x0, 12, done
      addi a0, a0, 2
      nop
    done:
      ecall
  )");
  mem::Memory mem(64 * 1024);
  p.load(mem);
  sim::Core core(mem);
  core.reset(p.entry());
  core.run();
  EXPECT_EQ(core.reg(10), 24u);
  EXPECT_EQ(core.perf().hwloop_backedges, 11u);
}

// Round-trip property: disassembler output reassembles to the same word for
// the whole table, except control flow (its text carries absolute target
// addresses, the source form takes labels) and fence (a nop in text).
TEST(TextAsm, DisassembleReassembleRoundTrip) {
  using S = isa::EncShape;
  Rng rng(0x7e57);
  int checked = 0;
  for (int i = 0; i < 40'000; ++i) {
    const u32 w = rng.next_u32() | 0x3;
    isa::Instr in;
    try {
      in = isa::decode(w, 0);
    } catch (const IllegalInstruction&) {
      continue;
    }
    if (in.size != 4 || in.op == isa::Mnemonic::kFence) continue;
    switch (isa::isa_table_lookup(in.op, in.fmt)->shape) {
      case S::kJ: case S::kB: case S::kBImm5:
      case S::kHwBound: case S::kHwSetup: case S::kHwSetupi:
        continue;
      default:
        break;
    }
    const u32 canonical = isa::encode(in);
    const std::string text = isa::disassemble(in, 0);
    const auto prog = assemble_text(text + "\n");
    ASSERT_EQ(prog.size_words(), 1u) << text;
    ASSERT_EQ(prog.words()[0], canonical) << text;
    ++checked;
  }
  EXPECT_GT(checked, 2000);
}

}  // namespace
}  // namespace xpulp::xasm
