// Encoder/decoder round-trip over the whole instruction set, plus golden
// encodings for standard RV32I words (cross-checked against riscv-tools
// output) to pin our base-ISA encoder to the official layout.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "isa/decoder.hpp"
#include "isa/encoding.hpp"
#include "isa/isa_table.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::isa {
namespace {

using M = Mnemonic;

struct Sample {
  Instr in;
  std::string label;
};

Instr mk(M op, u8 rd, u8 rs1, u8 rs2, i32 imm = 0, u8 imm2 = 0,
         SimdFmt fmt = SimdFmt::kNone) {
  Instr i;
  i.op = op;
  i.rd = rd;
  i.rs1 = rs1;
  i.rs2 = rs2;
  i.imm = imm;
  i.imm2 = imm2;
  i.fmt = fmt;
  return i;
}

std::vector<Sample> all_samples() {
  std::vector<Sample> v;
  auto add = [&](Instr in, const char* label) { v.push_back({in, label}); };

  // RV32I / M R-type ops.
  for (M op : {M::kAdd, M::kSub, M::kSll, M::kSlt, M::kSltu, M::kXor,
               M::kSrl, M::kSra, M::kOr, M::kAnd, M::kMul, M::kMulh,
               M::kMulhsu, M::kMulhu, M::kDiv, M::kDivu, M::kRem, M::kRemu}) {
    add(mk(op, 5, 6, 7), "rtype");
    add(mk(op, 31, 0, 15), "rtype-edge");
  }
  // I-type ALU.
  for (M op : {M::kAddi, M::kSlti, M::kSltiu, M::kXori, M::kOri, M::kAndi}) {
    add(mk(op, 1, 2, 0, 2047), "imm-max");
    add(mk(op, 1, 2, 0, -2048), "imm-min");
    add(mk(op, 1, 2, 0, 0), "imm-zero");
  }
  for (M op : {M::kSlli, M::kSrli, M::kSrai}) {
    add(mk(op, 3, 4, 0, 0), "sh0");
    add(mk(op, 3, 4, 0, 31), "sh31");
  }
  // Loads/stores.
  for (M op : {M::kLb, M::kLh, M::kLw, M::kLbu, M::kLhu}) {
    add(mk(op, 8, 9, 0, -4), "load");
  }
  for (M op : {M::kSb, M::kSh, M::kSw}) {
    add(mk(op, 0, 9, 10, 2047), "store");
    add(mk(op, 0, 9, 10, -2048), "store-min");
  }
  // Branches / jumps (even offsets only).
  for (M op : {M::kBeq, M::kBne, M::kBlt, M::kBge, M::kBltu, M::kBgeu}) {
    add(mk(op, 0, 3, 4, 4094), "branch-max");
    add(mk(op, 0, 3, 4, -4096), "branch-min");
  }
  add(mk(M::kJal, 1, 0, 0, 0xffffe), "jal");
  add(mk(M::kJal, 0, 0, 0, -1048576), "jal-min");
  add(mk(M::kJalr, 1, 5, 0, -2), "jalr");
  add(mk(M::kLui, 7, 0, 0, static_cast<i32>(0xabcde000u)), "lui");
  add(mk(M::kAuipc, 7, 0, 0, 0x7f000), "auipc");
  // System.
  add(mk(M::kEcall, 0, 0, 0), "ecall");
  add(mk(M::kEbreak, 0, 0, 0), "ebreak");
  add(mk(M::kFence, 0, 0, 0), "fence");
  add(mk(M::kCsrrw, 1, 2, 0, 0xB00), "csrrw");
  add(mk(M::kCsrrs, 1, 2, 0, 0xFFF), "csrrs-max");
  add(mk(M::kCsrrc, 1, 2, 0, 0x340), "csrrc");
  add(mk(M::kCsrrwi, 1, 0, 0, 0xB02, 31), "csrrwi");
  add(mk(M::kCsrrsi, 1, 0, 0, 0xB02, 0), "csrrsi");
  add(mk(M::kCsrrci, 1, 0, 0, 0xB02, 17), "csrrci");

  // XpulpV2 memory.
  for (M op : {M::kPLbPostImm, M::kPLhPostImm, M::kPLwPostImm,
               M::kPLbuPostImm, M::kPLhuPostImm}) {
    add(mk(op, 10, 11, 0, 4), "lpost");
    add(mk(op, 10, 11, 0, -8), "lpost-neg");
  }
  for (M op : {M::kPSbPostImm, M::kPShPostImm, M::kPSwPostImm}) {
    add(mk(op, 0, 11, 12, 4), "spost");
  }
  for (M op : {M::kPLbPostReg, M::kPLhPostReg, M::kPLwPostReg,
               M::kPLbuPostReg, M::kPLhuPostReg, M::kPLbRegReg,
               M::kPLhRegReg, M::kPLwRegReg, M::kPLbuRegReg,
               M::kPLhuRegReg}) {
    add(mk(op, 10, 11, 12), "lreg");
  }
  for (M op : {M::kPSbPostReg, M::kPShPostReg, M::kPSwPostReg,
               M::kPSbRegReg, M::kPShRegReg, M::kPSwRegReg}) {
    add(mk(op, 13, 11, 12), "sreg");  // rd field carries the inc/idx reg
  }
  // XpulpV2 scalar.
  for (M op : {M::kPAbs, M::kPExths, M::kPExthz, M::kPExtbs, M::kPExtbz,
               M::kPCnt, M::kPFf1, M::kPFl1, M::kPClb}) {
    add(mk(op, 5, 6, 0), "unary");
  }
  for (M op : {M::kPMin, M::kPMinu, M::kPMax, M::kPMaxu, M::kPRor,
               M::kPMac, M::kPMsu}) {
    add(mk(op, 5, 6, 7), "binary");
  }
  add(mk(M::kPClip, 5, 6, 0, 8), "clip");
  add(mk(M::kPClipu, 5, 6, 0, 31), "clipu");
  for (M op : {M::kPExtract, M::kPExtractu, M::kPInsert, M::kPBclr,
               M::kPBset}) {
    add(mk(op, 5, 6, 0, /*Is2=*/12, /*Is3=*/7), "bitmanip");
    add(mk(op, 5, 6, 0, 0, 31), "bitmanip-wide");
  }
  // Hardware loops.
  add(mk(M::kLpStarti, 0, 0, 0, 64, 0), "lp.starti");
  add(mk(M::kLpEndi, 0, 0, 0, 128, 1), "lp.endi");
  add(mk(M::kLpCount, 0, 9, 0, 0, 0), "lp.count");
  add(mk(M::kLpCounti, 0, 0, 0, 4095, 1), "lp.counti");
  add(mk(M::kLpSetup, 0, 9, 0, 40, 0), "lp.setup");
  add(mk(M::kLpSetupi, 0, 31, 0, 40, 1), "lp.setupi");

  // SIMD over every format.
  for (SimdFmt f : {SimdFmt::kB, SimdFmt::kBSc, SimdFmt::kH, SimdFmt::kHSc,
                    SimdFmt::kN, SimdFmt::kNSc, SimdFmt::kC, SimdFmt::kCSc}) {
    for (M op : {M::kPvAdd, M::kPvSub, M::kPvAvg, M::kPvAvgu, M::kPvMax,
                 M::kPvMaxu, M::kPvMin, M::kPvMinu, M::kPvSrl, M::kPvSra,
                 M::kPvSll, M::kPvAnd, M::kPvOr, M::kPvXor, M::kPvDotup,
                 M::kPvDotusp, M::kPvDotsp, M::kPvSdotup, M::kPvSdotusp,
                 M::kPvSdotsp}) {
      add(mk(op, 20, 21, 22, 0, 0, f), "simd");
    }
    add(mk(M::kPvAbs, 20, 21, 0, 0, 0, f), "simd-abs");  // unary: rs2 == 0
  }
  add(mk(M::kPvQnt, 20, 21, 22, 0, 0, SimdFmt::kN), "qnt.n");
  add(mk(M::kPvQnt, 20, 21, 22, 0, 0, SimdFmt::kC), "qnt.c");
  // Mixed virtual dot products: format-free (widths come from the mpc CSR
  // at run time), encoded with fmt == kNone.
  for (M op : {M::kPvMldotup, M::kPvMldotusp, M::kPvMldotsp, M::kPvMlsdotup,
               M::kPvMlsdotusp, M::kPvMlsdotsp}) {
    add(mk(op, 20, 21, 22), "mixed-dotp");
    add(mk(op, 31, 0, 15), "mixed-dotp-edge");
  }
  return v;
}

class RoundTrip : public ::testing::TestWithParam<Sample> {};

TEST_P(RoundTrip, EncodeDecodeIsIdentity) {
  const Instr& in = GetParam().in;
  const u32 word = encode(in);
  const Instr out = decode(word, /*pc=*/0x100);
  EXPECT_EQ(out.op, in.op) << GetParam().label;
  EXPECT_EQ(out.fmt, in.fmt);
  if (reads_rs1(in)) {
    EXPECT_EQ(out.rs1, in.rs1);
  }
  if (reads_rs2(in) || reads_rd(in)) {
    // Register fields must survive wherever they are meaningful.
    EXPECT_EQ(out.rs2, in.rs2);
  }
  if (writes_rd(in) || reads_rd(in)) {
    EXPECT_EQ(out.rd, in.rd);
  }
  EXPECT_EQ(out.imm, in.imm) << GetParam().label;
  EXPECT_EQ(out.imm2, in.imm2) << GetParam().label;
  EXPECT_EQ(out.size, 4u);
}

INSTANTIATE_TEST_SUITE_P(
    AllInstructions, RoundTrip, ::testing::ValuesIn(all_samples()),
    [](const ::testing::TestParamInfo<Sample>& info) {
      std::string n{mnemonic_name(info.param.in.op)};
      for (char& c : n) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return n + "_" + std::to_string(info.index);
    });

// Golden encodings for base-ISA words (verified against GNU as output).
TEST(Encoding, GoldenRv32iWords) {
  EXPECT_EQ(encode(mk(M::kAddi, 1, 2, 0, 5)), 0x00510093u);   // addi ra,sp,5
  EXPECT_EQ(encode(mk(M::kAdd, 3, 4, 5)), 0x005201b3u);       // add gp,tp,t0
  EXPECT_EQ(encode(mk(M::kLui, 1, 0, 0, 0x12345000)), 0x123450b7u);
  EXPECT_EQ(encode(mk(M::kLw, 10, 2, 0, 8)), 0x00812503u);    // lw a0,8(sp)
  EXPECT_EQ(encode(mk(M::kSw, 0, 2, 10, 12)), 0x00a12623u);   // sw a0,12(sp)
  EXPECT_EQ(encode(mk(M::kJal, 1, 0, 0, 16)), 0x010000efu);   // jal ra,+16
  EXPECT_EQ(encode(mk(M::kBeq, 0, 1, 2, -4)), 0xfe208ee3u);   // beq ra,sp,-4
  EXPECT_EQ(encode(mk(M::kEcall, 0, 0, 0)), 0x00000073u);
  EXPECT_EQ(encode(mk(M::kEbreak, 0, 0, 0)), 0x00100073u);
  EXPECT_EQ(encode(mk(M::kMul, 5, 6, 7)), 0x027302b3u);       // mul t0,t1,t2
  EXPECT_EQ(encode(mk(M::kSrai, 1, 2, 0, 3)), 0x40315093u);   // srai ra,sp,3
}

// Golden words for one entry of every custom-space shape. The PULP layout
// is this repository's own design (see encoding.hpp), so these literals are
// its specification: any change to a table entry or to a shape's bit
// packing shows up here.
TEST(Encoding, GoldenPulpWords) {
  // Post-increment immediate load / store.
  EXPECT_EQ(encode(mk(M::kPLwPostImm, 10, 11, 0, 4)), 0x0045a50bu);
  EXPECT_EQ(encode(mk(M::kPSwPostImm, 0, 12, 10, -4)), 0xfea62e2bu);
  // Register-addressed memory: .r! and .rr, loads and stores (stores carry
  // the increment/index register in the rd field).
  EXPECT_EQ(encode(mk(M::kPLwPostReg, 10, 11, 12)), 0x04c5855bu);
  EXPECT_EQ(encode(mk(M::kPLbuRegReg, 10, 11, 12)), 0x06c5955bu);
  EXPECT_EQ(encode(mk(M::kPSwPostReg, 13, 11, 10)), 0x04a5a6dbu);
  EXPECT_EQ(encode(mk(M::kPShRegReg, 13, 11, 10)), 0x02a5b6dbu);
  // Scalar ALU (binary and unary), p.clip, bit manipulation.
  EXPECT_EQ(encode(mk(M::kPMac, 5, 6, 7)), 0x207342dbu);
  EXPECT_EQ(encode(mk(M::kPAbs, 5, 6, 0)), 0x000342dbu);
  EXPECT_EQ(encode(mk(M::kPClip, 10, 11, 0, 8)), 0x1c85c55bu);
  EXPECT_EQ(encode(mk(M::kPExtract, 10, 11, 0, /*Is2=*/12, /*Is3=*/7)),
            0x0ec5e55bu);
  EXPECT_EQ(encode(mk(M::kPBset, 10, 11, 0, 3, 4)), 0x0835f55bu);
  // All six hardware-loop forms and an immediate-compare branch.
  EXPECT_EQ(encode(mk(M::kLpStarti, 0, 0, 0, 64, 0)), 0x0200007bu);
  EXPECT_EQ(encode(mk(M::kLpEndi, 0, 0, 0, 128, 1)), 0x040010fbu);
  EXPECT_EQ(encode(mk(M::kLpCount, 0, 9, 0, 0, 0)), 0x0004a07bu);
  EXPECT_EQ(encode(mk(M::kLpCounti, 0, 0, 0, 4095, 1)), 0xfff030fbu);
  EXPECT_EQ(encode(mk(M::kLpSetup, 0, 9, 0, 40, 0)), 0x0144c07bu);
  EXPECT_EQ(encode(mk(M::kLpSetupi, 0, 31, 0, 40, 1)), 0x014fd0fbu);
  EXPECT_EQ(encode(mk(M::kPBeqimm, 0, 11, 0, 16, /*imm5=-3*/ 29)),
            0x01d5a863u);
  // Packed SIMD: register, unary and lane forms.
  EXPECT_EQ(encode(mk(M::kPvSdotusp, 14, 12, 10, 0, 0, SimdFmt::kN)),
            0x28a64757u);
  EXPECT_EQ(encode(mk(M::kPvAdd, 5, 6, 7, 0, 0, SimdFmt::kCSc)),
            0x007372d7u);
  EXPECT_EQ(encode(mk(M::kPvAbs, 5, 6, 0, 0, 0, SimdFmt::kH)), 0x160322d7u);
  EXPECT_EQ(encode(mk(M::kPvElemExtract, 10, 11, 0, 3, 0, SimdFmt::kB)),
            0x2c358557u);
  EXPECT_EQ(encode(mk(M::kPvElemInsert, 10, 11, 0, 1, 0, SimdFmt::kH)),
            0x3015a557u);
  // pv.qnt in both sub-byte formats and a mixed virtual dot product.
  EXPECT_EQ(encode(mk(M::kPvQnt, 14, 12, 10, 0, 0, SimdFmt::kN)),
            0x40a64757u);
  EXPECT_EQ(encode(mk(M::kPvQnt, 14, 12, 10, 0, 0, SimdFmt::kC)),
            0x40a66757u);
  EXPECT_EQ(encode(mk(M::kPvMlsdotsp, 14, 12, 10)), 0x46a60757u);
}

// One digest over the whole encoding space: every table entry's
// (op, fmt, mask, match) and the encoded words of its canonical samples.
// A change to any entry, to sample generation, or to any shape's packing
// moves it.
TEST(Encoding, TableDigestIsPinned) {
  u64 h = 0xcbf29ce484222325ull;  // FNV-1a, byte at a time
  const auto mix = [&h](u32 v) {
    for (int i = 0; i < 4; ++i, v >>= 8) {
      h = (h ^ (v & 0xffu)) * 0x100000001b3ull;
    }
  };
  size_t words = 0;
  for (const IsaTableEntry& e : isa_table()) {
    mix(static_cast<u32>(e.op));
    mix(static_cast<u32>(e.fmt));
    mix(e.mask);
    mix(e.match);
    for (const Instr& s : canonical_samples(e)) {
      mix(encode(s));
      ++words;
    }
  }
  EXPECT_EQ(isa_table().size(), 294u);
  EXPECT_EQ(words, 876u);
  EXPECT_EQ(h, 0xc153c96c626383c6ull);
}

TEST(Encoding, RangeChecksThrow) {
  EXPECT_THROW(encode(mk(M::kAddi, 1, 2, 0, 2048)), AsmError);
  EXPECT_THROW(encode(mk(M::kAddi, 1, 2, 0, -2049)), AsmError);
  EXPECT_THROW(encode(mk(M::kSlli, 1, 2, 0, 32)), AsmError);
  EXPECT_THROW(encode(mk(M::kBeq, 0, 1, 2, 3)), AsmError);      // odd offset
  EXPECT_THROW(encode(mk(M::kBeq, 0, 1, 2, 4096)), AsmError);   // too far
  EXPECT_THROW(encode(mk(M::kJal, 1, 0, 0, 1 << 20)), AsmError);
  EXPECT_THROW(encode(mk(M::kLpSetupi, 0, 32, 0, 8, 0)), AsmError);
  EXPECT_THROW(encode(mk(M::kPvQnt, 1, 2, 3, 0, 0, SimdFmt::kB)), AsmError);
  EXPECT_THROW(encode(mk(M::kPvQnt, 1, 2, 3, 0, 0, SimdFmt::kNSc)), AsmError);
  EXPECT_THROW(encode(Instr{}), AsmError);
}

TEST(Encoding, HwLoopIndexRangeCheckedForCounti) {
  // lp.counti once packed L straight into rd: L = 2 assembled silently and
  // decoded as L = 0, L = 3 as L = 1. Every lp.* form rejects L > 1 alike.
  const auto error_of = [](auto emit) -> std::string {
    xasm::Assembler a(0);
    try {
      emit(a);
      a.ecall();
      a.finish();
    } catch (const AsmError& e) {
      return e.what();
    }
    return "assembled";
  };
  for (const unsigned l : {2u, 3u}) {
    const std::string setupi = error_of([l](xasm::Assembler& a) {
      const xasm::Assembler::Label end = a.new_label();
      a.lp_setupi(l, 4, end);
      a.nop();
      a.bind(end);
    });
    EXPECT_NE(setupi, "assembled");
    EXPECT_EQ(error_of([l](xasm::Assembler& a) { a.lp_counti(l, 5); }),
              setupi);
  }
  // L = 1 still round-trips.
  xasm::Assembler a(0);
  a.lp_counti(1, 5);
  const Instr in = decode(a.finish().words().front(), 0);
  EXPECT_EQ(in.op, M::kLpCounti);
  EXPECT_EQ(in.imm2, 1u);
  EXPECT_EQ(in.imm, 5);
}

TEST(Decoder, IllegalEncodingsThrow) {
  EXPECT_THROW(decode(0xffffffffu, 0), IllegalInstruction);  // opcode 0x7f
  // LOAD with funct3 == 3 (no such width).
  EXPECT_THROW(decode(0x00003003u | (3u << 12), 0), IllegalInstruction);
  // SYSTEM with a non-ecall/ebreak funct3==0 payload.
  EXPECT_THROW(decode(0x00200073u, 0), IllegalInstruction);
  // SIMD with an unused funct7 slot.
  EXPECT_THROW(decode(enc_r(kOpPulpSimd, 0, 63, 1, 2, 3), 0),
               IllegalInstruction);
  // Scalar-PULP subclass 101 is unallocated.
  EXPECT_THROW(decode(enc_r(kOpPulpScalar, 0b101, 0, 1, 2, 3), 0),
               IllegalInstruction);
  // Mixed dot products reserve every nonzero funct3 slot (no .sc or
  // format variants: the widths live in the mpc CSR, not the encoding).
  for (const u32 f7 : {27u, 28u, 29u, 33u, 34u, 35u}) {
    ASSERT_NO_THROW(decode(enc_r(kOpPulpSimd, 0, f7, 1, 2, 3), 0));
    for (u32 f3 = 1; f3 < 8; ++f3) {
      EXPECT_THROW(decode(enc_r(kOpPulpSimd, f3, f7, 1, 2, 3), 0),
                   IllegalInstruction)
          << "funct7=" << f7 << " funct3=" << f3;
    }
  }
}

TEST(Decoder, ReportsFaultingPcAndWord) {
  try {
    decode(0xffffffffu, 0x1234);
    FAIL() << "expected IllegalInstruction";
  } catch (const IllegalInstruction& e) {
    EXPECT_EQ(e.pc(), 0x1234u);
    EXPECT_EQ(e.raw(), 0xffffffffu);
  }
}

}  // namespace
}  // namespace xpulp::isa
