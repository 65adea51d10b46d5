#include "isa/isa_table.hpp"

#include <algorithm>
#include <array>

#include "isa/encoding.hpp"

namespace xpulp::isa {

namespace {

constexpr u32 kMaskOpc = 0x7fu;
constexpr u32 kMaskF3 = 7u << 12;
constexpr u32 kMaskF7 = 0x7fu << 25;
constexpr u32 kMaskRs1 = 0x1fu << 15;
constexpr u32 kMaskRs2 = 0x1fu << 20;
constexpr u32 kMaskImmI = 0xfffu << 20;
// Hardware loops: the decoder uses only rd bit 0 (the loop index); the
// encoder always emits rd[4:1] = 0, so those bits are part of the
// canonical match but not of the decode mask.
constexpr u32 kMaskHwRdHigh = 0xfu << 8;
// Bit manipulation: funct7[6:5] selects the op, funct7[4:0] is the free
// Is3 operand.
constexpr u32 kMaskBitmanipOp = 3u << 30;

u32 base_match(u32 opcode, u32 funct3 = 0, u32 funct7 = 0) {
  return opcode | (funct3 << 12) | (funct7 << 25);
}

IsaTableEntry ent(Mnemonic op, EncShape shape, u32 mask, u32 match,
                  SimdFmt fmt = SimdFmt::kNone) {
  IsaTableEntry e;
  e.op = op;
  e.fmt = fmt;
  e.shape = shape;
  e.mask = mask;
  e.match = match;
  // Unary ops ignore their rs2 field when decoding.
  e.decode_mask = shape == EncShape::kRUnary ? mask & ~kMaskRs2 : mask;
  return e;
}

void add_u(std::vector<IsaTableEntry>& t, Mnemonic op, u32 opcode) {
  t.push_back(ent(op, EncShape::kU, kMaskOpc, base_match(opcode)));
}

void add_i(std::vector<IsaTableEntry>& t, Mnemonic op, u32 opcode, u32 f3,
           EncShape shape = EncShape::kI) {
  t.push_back(ent(op, shape, kMaskOpc | kMaskF3, base_match(opcode, f3)));
}

void add_shift(std::vector<IsaTableEntry>& t, Mnemonic op, u32 f3, u32 f7) {
  t.push_back(ent(op, EncShape::kShift, kMaskOpc | kMaskF3 | kMaskF7,
                  base_match(kOpOpImm, f3, f7)));
}

void add_b(std::vector<IsaTableEntry>& t, Mnemonic op, u32 f3,
           EncShape shape = EncShape::kB) {
  t.push_back(ent(op, shape, kMaskOpc | kMaskF3, base_match(kOpBranch, f3)));
}

void add_s(std::vector<IsaTableEntry>& t, Mnemonic op, u32 opcode, u32 f3) {
  t.push_back(ent(op, EncShape::kS, kMaskOpc | kMaskF3, base_match(opcode, f3)));
}

void add_r(std::vector<IsaTableEntry>& t, Mnemonic op, u32 opcode, u32 f3,
           u32 f7, EncShape shape = EncShape::kR) {
  u32 mask = kMaskOpc | kMaskF3 | kMaskF7;
  if (shape == EncShape::kRUnary) mask |= kMaskRs2;
  t.push_back(ent(op, shape, mask, base_match(opcode, f3, f7)));
}

void add_fixed(std::vector<IsaTableEntry>& t, Mnemonic op, u32 word,
               u32 decode_mask = 0xffffffffu) {
  IsaTableEntry e = ent(op, EncShape::kFixedWord, 0xffffffffu, word);
  e.decode_mask = decode_mask;
  t.push_back(e);
}

void add_alu(std::vector<IsaTableEntry>& t, Mnemonic op, ScalarAluFunct7 f7,
             EncShape shape = EncShape::kR) {
  add_r(t, op, kOpPulpScalar, kScalarAlu, static_cast<u32>(f7), shape);
}

void add_scalar_mem(std::vector<IsaTableEntry>& t, Mnemonic op, u32 f3,
                    MemSizeCode size) {
  const bool store = f3 == kScalarStorePostReg || f3 == kScalarStoreRegReg;
  add_r(t, op, kOpPulpScalar, f3, static_cast<u32>(size),
        store ? EncShape::kRStore : EncShape::kRLoad);
}

void add_bitmanip(std::vector<IsaTableEntry>& t, Mnemonic op, u32 f3, u32 op2) {
  t.push_back(ent(op, EncShape::kBitmanip,
                  kMaskOpc | kMaskF3 | kMaskBitmanipOp,
                  base_match(kOpPulpScalar, f3) | (op2 << 30)));
}

void add_hwloop(std::vector<IsaTableEntry>& t, Mnemonic op, HwloopFunct3 f3,
                EncShape shape) {
  u32 mask = kMaskOpc | kMaskF3 | kMaskHwRdHigh;
  // lp.starti/lp.endi take no register; lp.counti's count lives in the
  // I-immediate. The encoder zeroes the unused field in each case.
  if (shape == EncShape::kHwBound || shape == EncShape::kHwCounti) {
    mask |= kMaskRs1;
  }
  if (shape == EncShape::kHwCount) mask |= kMaskImmI;
  IsaTableEntry e =
      ent(op, shape, mask, base_match(kOpPulpHwloop, static_cast<u32>(f3)));
  // The decoder reads only the fields of the loop form; the rest may hold
  // anything.
  e.decode_mask = kMaskOpc | kMaskF3;
  t.push_back(e);
}

void add_simd(std::vector<IsaTableEntry>& t, Mnemonic op, SimdFunct7 f7,
              SimdFmt fmt, EncShape shape = EncShape::kR) {
  u32 mask = kMaskOpc | kMaskF3 | kMaskF7;
  if (shape == EncShape::kRUnary) mask |= kMaskRs2;
  t.push_back(ent(op, shape, mask,
                  base_match(kOpPulpSimd, simd_fmt_to_funct3(fmt),
                             static_cast<u32>(f7)),
                  fmt));
}

// Mixed virtual dot products: funct3 is fixed to 0 (no format field), so
// add_simd's simd_fmt_to_funct3 path does not apply.
void add_simd_mixed(std::vector<IsaTableEntry>& t, Mnemonic op,
                    SimdFunct7 f7) {
  t.push_back(ent(op, EncShape::kR, kMaskOpc | kMaskF3 | kMaskF7,
                  base_match(kOpPulpSimd, 0, static_cast<u32>(f7))));
}

constexpr SimdFmt kAllFmts[] = {SimdFmt::kB, SimdFmt::kBSc, SimdFmt::kH,
                                SimdFmt::kHSc, SimdFmt::kN, SimdFmt::kNSc,
                                SimdFmt::kC, SimdFmt::kCSc};

void add_simd_all(std::vector<IsaTableEntry>& t, Mnemonic op, SimdFunct7 f7,
                  EncShape shape = EncShape::kR) {
  for (SimdFmt f : kAllFmts) add_simd(t, op, f7, f, shape);
}

std::vector<IsaTableEntry> build_table() {
  std::vector<IsaTableEntry> t;
  using M = Mnemonic;
  using S = EncShape;

  // ---- RV32I ----
  add_u(t, M::kLui, kOpLui);
  add_u(t, M::kAuipc, kOpAuipc);
  t.push_back(ent(M::kJal, S::kJ, kMaskOpc, base_match(kOpJal)));
  add_i(t, M::kJalr, kOpJalr, 0, S::kIAddr);
  add_b(t, M::kBeq, 0);
  add_b(t, M::kBne, 1);
  add_b(t, M::kPBeqimm, 2, S::kBImm5);
  add_b(t, M::kPBneimm, 3, S::kBImm5);
  add_b(t, M::kBlt, 4);
  add_b(t, M::kBge, 5);
  add_b(t, M::kBltu, 6);
  add_b(t, M::kBgeu, 7);
  add_i(t, M::kLb, kOpLoad, 0, S::kIAddr);
  add_i(t, M::kLh, kOpLoad, 1, S::kIAddr);
  add_i(t, M::kLw, kOpLoad, 2, S::kIAddr);
  add_i(t, M::kLbu, kOpLoad, 4, S::kIAddr);
  add_i(t, M::kLhu, kOpLoad, 5, S::kIAddr);
  add_s(t, M::kSb, kOpStore, 0);
  add_s(t, M::kSh, kOpStore, 1);
  add_s(t, M::kSw, kOpStore, 2);
  add_i(t, M::kAddi, kOpOpImm, 0);
  add_i(t, M::kSlti, kOpOpImm, 2);
  add_i(t, M::kSltiu, kOpOpImm, 3);
  add_i(t, M::kXori, kOpOpImm, 4);
  add_i(t, M::kOri, kOpOpImm, 6);
  add_i(t, M::kAndi, kOpOpImm, 7);
  add_shift(t, M::kSlli, 1, 0x00);
  add_shift(t, M::kSrli, 5, 0x00);
  add_shift(t, M::kSrai, 5, 0x20);
  add_r(t, M::kAdd, kOpOp, 0, 0x00);
  add_r(t, M::kSub, kOpOp, 0, 0x20);
  add_r(t, M::kSll, kOpOp, 1, 0x00);
  add_r(t, M::kSlt, kOpOp, 2, 0x00);
  add_r(t, M::kSltu, kOpOp, 3, 0x00);
  add_r(t, M::kXor, kOpOp, 4, 0x00);
  add_r(t, M::kSrl, kOpOp, 5, 0x00);
  add_r(t, M::kSra, kOpOp, 5, 0x20);
  add_r(t, M::kOr, kOpOp, 6, 0x00);
  add_r(t, M::kAnd, kOpOp, 7, 0x00);
  // Single hart: every MISC-MEM word decodes as fence.
  add_fixed(t, M::kFence, 0x0000000fu, kMaskOpc);
  add_fixed(t, M::kEcall, 0x00000073u);
  add_fixed(t, M::kEbreak, 0x00100073u);
  add_i(t, M::kCsrrw, kOpSystem, 1, S::kCsr);
  add_i(t, M::kCsrrs, kOpSystem, 2, S::kCsr);
  add_i(t, M::kCsrrc, kOpSystem, 3, S::kCsr);
  add_i(t, M::kCsrrwi, kOpSystem, 5, S::kCsrImm);
  add_i(t, M::kCsrrsi, kOpSystem, 6, S::kCsrImm);
  add_i(t, M::kCsrrci, kOpSystem, 7, S::kCsrImm);

  // ---- RV32M ----
  add_r(t, M::kMul, kOpOp, 0, 0x01);
  add_r(t, M::kMulh, kOpOp, 1, 0x01);
  add_r(t, M::kMulhsu, kOpOp, 2, 0x01);
  add_r(t, M::kMulhu, kOpOp, 3, 0x01);
  add_r(t, M::kDiv, kOpOp, 4, 0x01);
  add_r(t, M::kDivu, kOpOp, 5, 0x01);
  add_r(t, M::kRem, kOpOp, 6, 0x01);
  add_r(t, M::kRemu, kOpOp, 7, 0x01);

  // ---- XpulpV2 post-increment immediate memory ----
  add_i(t, M::kPLbPostImm, kOpPulpLoadPost, 0, S::kIAddr);
  add_i(t, M::kPLhPostImm, kOpPulpLoadPost, 1, S::kIAddr);
  add_i(t, M::kPLwPostImm, kOpPulpLoadPost, 2, S::kIAddr);
  add_i(t, M::kPLbuPostImm, kOpPulpLoadPost, 4, S::kIAddr);
  add_i(t, M::kPLhuPostImm, kOpPulpLoadPost, 5, S::kIAddr);
  add_s(t, M::kPSbPostImm, kOpPulpStorePost, 0);
  add_s(t, M::kPShPostImm, kOpPulpStorePost, 1);
  add_s(t, M::kPSwPostImm, kOpPulpStorePost, 2);

  // ---- XpulpV2 register-addressed memory ----
  add_scalar_mem(t, M::kPLbPostReg, kScalarLoadPostReg, MemSizeCode::kLb);
  add_scalar_mem(t, M::kPLhPostReg, kScalarLoadPostReg, MemSizeCode::kLh);
  add_scalar_mem(t, M::kPLwPostReg, kScalarLoadPostReg, MemSizeCode::kLw);
  add_scalar_mem(t, M::kPLbuPostReg, kScalarLoadPostReg, MemSizeCode::kLbu);
  add_scalar_mem(t, M::kPLhuPostReg, kScalarLoadPostReg, MemSizeCode::kLhu);
  add_scalar_mem(t, M::kPLbRegReg, kScalarLoadRegReg, MemSizeCode::kLb);
  add_scalar_mem(t, M::kPLhRegReg, kScalarLoadRegReg, MemSizeCode::kLh);
  add_scalar_mem(t, M::kPLwRegReg, kScalarLoadRegReg, MemSizeCode::kLw);
  add_scalar_mem(t, M::kPLbuRegReg, kScalarLoadRegReg, MemSizeCode::kLbu);
  add_scalar_mem(t, M::kPLhuRegReg, kScalarLoadRegReg, MemSizeCode::kLhu);
  add_scalar_mem(t, M::kPSbPostReg, kScalarStorePostReg, MemSizeCode::kLb);
  add_scalar_mem(t, M::kPShPostReg, kScalarStorePostReg, MemSizeCode::kLh);
  add_scalar_mem(t, M::kPSwPostReg, kScalarStorePostReg, MemSizeCode::kLw);
  add_scalar_mem(t, M::kPSbRegReg, kScalarStoreRegReg, MemSizeCode::kLb);
  add_scalar_mem(t, M::kPShRegReg, kScalarStoreRegReg, MemSizeCode::kLh);
  add_scalar_mem(t, M::kPSwRegReg, kScalarStoreRegReg, MemSizeCode::kLw);

  // ---- XpulpV2 scalar ALU ----
  add_alu(t, M::kPAbs, ScalarAluFunct7::kAbs, S::kRUnary);
  add_alu(t, M::kPMin, ScalarAluFunct7::kMin);
  add_alu(t, M::kPMinu, ScalarAluFunct7::kMinu);
  add_alu(t, M::kPMax, ScalarAluFunct7::kMax);
  add_alu(t, M::kPMaxu, ScalarAluFunct7::kMaxu);
  add_alu(t, M::kPExths, ScalarAluFunct7::kExths, S::kRUnary);
  add_alu(t, M::kPExthz, ScalarAluFunct7::kExthz, S::kRUnary);
  add_alu(t, M::kPExtbs, ScalarAluFunct7::kExtbs, S::kRUnary);
  add_alu(t, M::kPExtbz, ScalarAluFunct7::kExtbz, S::kRUnary);
  add_alu(t, M::kPCnt, ScalarAluFunct7::kCnt, S::kRUnary);
  add_alu(t, M::kPFf1, ScalarAluFunct7::kFf1, S::kRUnary);
  add_alu(t, M::kPFl1, ScalarAluFunct7::kFl1, S::kRUnary);
  add_alu(t, M::kPClb, ScalarAluFunct7::kClb, S::kRUnary);
  add_alu(t, M::kPRor, ScalarAluFunct7::kRor);
  add_alu(t, M::kPClip, ScalarAluFunct7::kClip, S::kClipImm);
  add_alu(t, M::kPClipu, ScalarAluFunct7::kClipu, S::kClipImm);
  add_alu(t, M::kPMac, ScalarAluFunct7::kMac);
  add_alu(t, M::kPMsu, ScalarAluFunct7::kMsu);

  // ---- XpulpV2 bit manipulation ----
  add_bitmanip(t, M::kPExtract, kScalarBitmanipA,
               static_cast<u32>(BitmanipA::kExtract));
  add_bitmanip(t, M::kPExtractu, kScalarBitmanipA,
               static_cast<u32>(BitmanipA::kExtractu));
  add_bitmanip(t, M::kPInsert, kScalarBitmanipA,
               static_cast<u32>(BitmanipA::kInsert));
  add_bitmanip(t, M::kPBclr, kScalarBitmanipA,
               static_cast<u32>(BitmanipA::kBclr));
  add_bitmanip(t, M::kPBset, kScalarBitmanipB,
               static_cast<u32>(BitmanipB::kBset));

  // ---- Hardware loops ----
  add_hwloop(t, M::kLpStarti, HwloopFunct3::kStarti, S::kHwBound);
  add_hwloop(t, M::kLpEndi, HwloopFunct3::kEndi, S::kHwBound);
  add_hwloop(t, M::kLpCount, HwloopFunct3::kCount, S::kHwCount);
  add_hwloop(t, M::kLpCounti, HwloopFunct3::kCounti, S::kHwCounti);
  add_hwloop(t, M::kLpSetup, HwloopFunct3::kSetup, S::kHwSetup);
  add_hwloop(t, M::kLpSetupi, HwloopFunct3::kSetupi, S::kHwSetupi);

  // ---- Packed SIMD ----
  add_simd_all(t, M::kPvAdd, SimdFunct7::kAdd);
  add_simd_all(t, M::kPvSub, SimdFunct7::kSub);
  add_simd_all(t, M::kPvAvg, SimdFunct7::kAvg);
  add_simd_all(t, M::kPvAvgu, SimdFunct7::kAvgu);
  add_simd_all(t, M::kPvMax, SimdFunct7::kMax);
  add_simd_all(t, M::kPvMaxu, SimdFunct7::kMaxu);
  add_simd_all(t, M::kPvMin, SimdFunct7::kMin);
  add_simd_all(t, M::kPvMinu, SimdFunct7::kMinu);
  add_simd_all(t, M::kPvSrl, SimdFunct7::kSrl);
  add_simd_all(t, M::kPvSra, SimdFunct7::kSra);
  add_simd_all(t, M::kPvSll, SimdFunct7::kSll);
  add_simd_all(t, M::kPvAbs, SimdFunct7::kAbs, S::kRUnary);
  add_simd_all(t, M::kPvAnd, SimdFunct7::kAnd);
  add_simd_all(t, M::kPvOr, SimdFunct7::kOr);
  add_simd_all(t, M::kPvXor, SimdFunct7::kXor);
  add_simd_all(t, M::kPvDotup, SimdFunct7::kDotup);
  add_simd_all(t, M::kPvDotusp, SimdFunct7::kDotusp);
  add_simd_all(t, M::kPvDotsp, SimdFunct7::kDotsp);
  add_simd_all(t, M::kPvSdotup, SimdFunct7::kSdotup);
  add_simd_all(t, M::kPvSdotusp, SimdFunct7::kSdotusp);
  add_simd_all(t, M::kPvSdotsp, SimdFunct7::kSdotsp);
  // Mixed virtual dot products: one canonical encoding per mnemonic
  // (funct3 fixed 0, no static format — the mpc CSR supplies the widths).
  add_simd_mixed(t, M::kPvMldotup, SimdFunct7::kMldotup);
  add_simd_mixed(t, M::kPvMldotusp, SimdFunct7::kMldotusp);
  add_simd_mixed(t, M::kPvMldotsp, SimdFunct7::kMldotsp);
  add_simd_mixed(t, M::kPvMlsdotup, SimdFunct7::kMlsdotup);
  add_simd_mixed(t, M::kPvMlsdotusp, SimdFunct7::kMlsdotusp);
  add_simd_mixed(t, M::kPvMlsdotsp, SimdFunct7::kMlsdotsp);
  // Element manipulation and shuffle/pack are restricted to the plain
  // byte/halfword formats; pv.qnt to the plain sub-byte formats.
  for (SimdFmt f : {SimdFmt::kB, SimdFmt::kH}) {
    add_simd(t, M::kPvElemExtract, SimdFunct7::kElemExtract, f, S::kSimdLane);
    add_simd(t, M::kPvElemExtractu, SimdFunct7::kElemExtractu, f,
             S::kSimdLane);
    add_simd(t, M::kPvElemInsert, SimdFunct7::kElemInsert, f, S::kSimdLane);
    add_simd(t, M::kPvShuffle, SimdFunct7::kShuffle, f);
  }
  add_simd(t, M::kPvPackH, SimdFunct7::kPack, SimdFmt::kH);
  add_simd(t, M::kPvQnt, SimdFunct7::kQnt, SimdFmt::kN, S::kSimdQnt);
  add_simd(t, M::kPvQnt, SimdFunct7::kQnt, SimdFmt::kC, S::kSimdQnt);

  return t;
}

}  // namespace

const std::vector<IsaTableEntry>& isa_table() {
  static const std::vector<IsaTableEntry> table = build_table();
  return table;
}

namespace {

constexpr size_t kOps = static_cast<size_t>(Mnemonic::kCount);
constexpr size_t kFmts = static_cast<size_t>(SimdFmt::kCSc) + 1;
using LookupIndex = std::array<const IsaTableEntry*, kOps * kFmts>;

// Dense (mnemonic, format) index; a scalar mnemonic has no format field,
// so its one entry fills its whole row. Not inlined: it runs once, and
// keeping it out of isa_table_lookup keeps the lookup a leaf.
[[gnu::noinline]] LookupIndex build_lookup_index() {
  LookupIndex ix{};
  for (const IsaTableEntry& e : isa_table()) {
    const size_t row = static_cast<size_t>(e.op) * kFmts;
    if (is_simd(e.op)) {
      ix[row + static_cast<size_t>(e.fmt)] = &e;
    } else {
      std::fill_n(ix.begin() + static_cast<ptrdiff_t>(row), kFmts, &e);
    }
  }
  return ix;
}

}  // namespace

const IsaTableEntry* isa_table_lookup(Mnemonic op, SimdFmt fmt) {
  static const LookupIndex index = build_lookup_index();
  const auto o = static_cast<size_t>(op);
  const auto f = static_cast<size_t>(fmt);
  if (o >= kOps) return nullptr;
  if (f >= kFmts) return is_simd(op) ? nullptr : index[o * kFmts];
  return index[o * kFmts + f];
}

std::vector<Instr> canonical_samples(const IsaTableEntry& e) {
  // Three operand-varied samples per entry (one for fixed-word entries).
  // Register picks avoid x0-only degenerate cases; immediates exercise
  // zero, negative/maximal, and mid-range values within each field's
  // constraints.
  static constexpr u8 kRd[3] = {5, 11, 31};
  static constexpr u8 kRs1[3] = {6, 12, 1};
  static constexpr u8 kRs2[3] = {7, 13, 2};

  std::vector<Instr> out;
  const int n = e.shape == EncShape::kFixedWord ? 1 : 3;
  for (int j = 0; j < n; ++j) {
    Instr in;
    in.op = e.op;
    in.fmt = e.fmt;
    switch (e.shape) {
      case EncShape::kU:
        in.rd = kRd[j];
        in.imm = static_cast<i32>(
            static_cast<u32>(j == 0 ? 0x1000 : j == 1 ? 0xfffff000u : 0x12345000u));
        break;
      case EncShape::kJ:
        in.rd = kRd[j];
        in.imm = j == 0 ? 0 : j == 1 ? 2048 : -4096;
        break;
      case EncShape::kI:
      case EncShape::kIAddr:
        in.rd = kRd[j];
        in.rs1 = kRs1[j];
        in.imm = j == 0 ? 0 : j == 1 ? -4 : 2047;
        break;
      case EncShape::kShift:
        in.rd = kRd[j];
        in.rs1 = kRs1[j];
        in.imm = j == 0 ? 0 : j == 1 ? 5 : 31;
        break;
      case EncShape::kB:
        in.rs1 = kRs1[j];
        in.rs2 = kRs2[j];
        in.imm = j == 0 ? 8 : j == 1 ? -8 : 16;
        break;
      case EncShape::kBImm5:
        in.rs1 = kRs1[j];
        in.imm2 = static_cast<u8>(j == 0 ? 0 : j == 1 ? 31 : 5);
        in.imm = j == 0 ? 8 : j == 1 ? -8 : 16;
        break;
      case EncShape::kS:
        in.rs1 = kRs1[j];
        in.rs2 = kRs2[j];
        in.imm = j == 0 ? 0 : j == 1 ? -4 : 2047;
        break;
      case EncShape::kR:
      case EncShape::kRLoad:
      case EncShape::kRStore:
      case EncShape::kSimdQnt:
        in.rd = kRd[j];
        in.rs1 = kRs1[j];
        in.rs2 = kRs2[j];
        break;
      case EncShape::kRUnary:
        in.rd = kRd[j];
        in.rs1 = kRs1[j];
        break;
      case EncShape::kClipImm:
        in.rd = kRd[j];
        in.rs1 = kRs1[j];
        in.imm = j == 0 ? 0 : j == 1 ? 5 : 31;
        break;
      case EncShape::kCsr:
        in.rd = kRd[j];
        in.rs1 = kRs1[j];
        in.imm = j == 0 ? 0x300 : j == 1 ? 0xf14 : 0x7c0;
        break;
      case EncShape::kCsrImm:
        in.rd = kRd[j];
        in.imm2 = static_cast<u8>(j == 0 ? 0 : j == 1 ? 31 : 5);
        in.imm = j == 0 ? 0x300 : j == 1 ? 0xf14 : 0x7c0;
        break;
      case EncShape::kFixedWord:
        break;
      case EncShape::kBitmanip:
        in.rd = kRd[j];
        in.rs1 = kRs1[j];
        // (Is2, Is3) with Is2 + Is3 + 1 <= 32.
        in.imm = j == 0 ? 0 : j == 1 ? 8 : 31;
        in.imm2 = static_cast<u8>(j == 2 ? 0 : 7);
        break;
      case EncShape::kHwBound:
        in.imm2 = static_cast<u8>(j == 1 ? 1 : j == 2 ? 1 : 0);
        in.imm = j == 0 ? 8 : j == 1 ? -8 : 1000;
        break;
      case EncShape::kHwCount:
        in.imm2 = static_cast<u8>(j & 1);
        in.rs1 = kRs1[j];
        break;
      case EncShape::kHwCounti:
        in.imm2 = static_cast<u8>(j & 1);
        in.imm = j == 0 ? 0 : j == 1 ? 4095 : 100;
        break;
      case EncShape::kHwSetup:
        in.imm2 = static_cast<u8>(j & 1);
        in.rs1 = kRs1[j];
        in.imm = j == 0 ? 8 : j == 1 ? 60 : 1000;
        break;
      case EncShape::kHwSetupi:
        in.imm2 = static_cast<u8>(j & 1);
        in.rs1 = static_cast<u8>(j == 0 ? 1 : j == 1 ? 31 : 16);  // count
        in.imm = j == 0 ? 8 : j == 1 ? 60 : 1000;
        break;
      case EncShape::kSimdLane: {
        const unsigned lanes = simd_elem_count(e.fmt);
        in.rd = kRd[j];
        in.rs1 = kRs1[j];
        in.imm = static_cast<i32>(j == 0 ? 0u : j == 1 ? lanes - 1 : 1u % lanes);
        break;
      }
    }
    finalize_decode(in);
    out.push_back(in);
  }
  return out;
}

}  // namespace xpulp::isa
