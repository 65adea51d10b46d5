#include "sim/dotp_unit.hpp"

#include <cassert>

#include "common/bitops.hpp"
#include "common/error.hpp"

namespace xpulp::sim {

using isa::Mnemonic;
using isa::SimdFmt;

DotpRegion region_for(SimdFmt fmt) {
  switch (isa::simd_elem_bits(fmt)) {
    case 16: return DotpRegion::k16;
    case 8: return DotpRegion::k8;
    case 4: return DotpRegion::k4;
    default: return DotpRegion::k2;
  }
}

i32 simd_extract(u32 v, SimdFmt fmt, unsigned i, bool sign) {
  const unsigned w = isa::simd_elem_bits(fmt);
  assert(i < isa::simd_elem_count(fmt));
  const u32 raw = bits(v, i * w + w - 1, i * w);
  return sign ? sign_extend(raw, w) : static_cast<i32>(raw);
}

u32 simd_insert(u32 v, SimdFmt fmt, unsigned i, u32 e) {
  const unsigned w = isa::simd_elem_bits(fmt);
  assert(i < isa::simd_elem_count(fmt));
  return insert_bits(v, e & low_mask(w), i * w, w);
}

u32 simd_elem_op(isa::Mnemonic op, SimdFmt fmt, i32 imm, u32 a, u32 b,
                 u32 d) {
  using M = isa::Mnemonic;
  const unsigned lanes = isa::simd_elem_count(fmt);
  const unsigned lane = static_cast<unsigned>(imm) & (lanes - 1);
  switch (op) {
    case M::kPvElemExtract:
      return static_cast<u32>(simd_extract(a, fmt, lane, /*sign=*/true));
    case M::kPvElemExtractu:
      return static_cast<u32>(simd_extract(a, fmt, lane, /*sign=*/false));
    case M::kPvElemInsert:
      return simd_insert(d, fmt, lane, a);
    case M::kPvShuffle: {
      u32 r = 0;
      for (unsigned i = 0; i < lanes; ++i) {
        const unsigned src =
            static_cast<unsigned>(simd_extract(b, fmt, i, false)) &
            (lanes - 1);
        r = simd_insert(r, fmt, i,
                        static_cast<u32>(simd_extract(a, fmt, src, false)));
      }
      return r;
    }
    case M::kPvPackH:
      return (a << 16) | (b & 0xffffu);
    default:
      return 0;
  }
}

u32 simd_operand_b(u32 rs2, SimdFmt fmt) {
  if (!isa::simd_is_scalar_rep(fmt)) return rs2;
  const unsigned w = isa::simd_elem_bits(fmt);
  const unsigned n = isa::simd_elem_count(fmt);
  const u32 scalar = rs2 & low_mask(w);
  u32 out = 0;
  for (unsigned i = 0; i < n; ++i) out |= scalar << (i * w);
  return out;
}

namespace {

bool op_is_signed(Mnemonic op) {
  switch (op) {
    case Mnemonic::kPvAvgu:
    case Mnemonic::kPvMaxu:
    case Mnemonic::kPvMinu:
    case Mnemonic::kPvSrl:
      return false;
    default:
      return true;
  }
}

i32 elem_op(Mnemonic op, i32 a, i32 b, unsigned w) {
  switch (op) {
    case Mnemonic::kPvAdd: return a + b;
    case Mnemonic::kPvSub: return a - b;
    // avg: (a+b)>>1, arithmetic for signed variant, logical for unsigned.
    case Mnemonic::kPvAvg: return (a + b) >> 1;
    case Mnemonic::kPvAvgu:
      return static_cast<i32>((static_cast<u32>(a) + static_cast<u32>(b)) >> 1);
    case Mnemonic::kPvMax: case Mnemonic::kPvMaxu: return a > b ? a : b;
    case Mnemonic::kPvMin: case Mnemonic::kPvMinu: return a < b ? a : b;
    case Mnemonic::kPvSrl:
      return static_cast<i32>(static_cast<u32>(a) >>
                              (static_cast<u32>(b) & (w - 1)));
    case Mnemonic::kPvSra: return a >> (static_cast<u32>(b) & (w - 1));
    case Mnemonic::kPvSll:
      return static_cast<i32>(static_cast<u32>(a)
                              << (static_cast<u32>(b) & (w - 1)));
    case Mnemonic::kPvAbs: return a < 0 ? -a : a;
    case Mnemonic::kPvAnd: return a & b;
    case Mnemonic::kPvOr: return a | b;
    case Mnemonic::kPvXor: return a ^ b;
    default:
      throw SimError("not an element-wise SIMD op");
  }
}

// Signedness of the two dot-product operands: {a_signed, b_signed}.
struct DotSign {
  bool a;
  bool b;
};

DotSign dot_sign(Mnemonic op) {
  switch (op) {
    case Mnemonic::kPvDotup: case Mnemonic::kPvSdotup:
    case Mnemonic::kPvMldotup: case Mnemonic::kPvMlsdotup:
      return {false, false};
    case Mnemonic::kPvDotusp: case Mnemonic::kPvSdotusp:
    case Mnemonic::kPvMldotusp: case Mnemonic::kPvMlsdotusp:
      return {false, true};
    case Mnemonic::kPvDotsp: case Mnemonic::kPvSdotsp:
    case Mnemonic::kPvMldotsp: case Mnemonic::kPvMlsdotsp:
      return {true, true};
    default:
      throw SimError("not a dot-product op");
  }
}

bool dot_accumulates(Mnemonic op) {
  return op == Mnemonic::kPvSdotup || op == Mnemonic::kPvSdotusp ||
         op == Mnemonic::kPvSdotsp || op == Mnemonic::kPvMlsdotup ||
         op == Mnemonic::kPvMlsdotusp || op == Mnemonic::kPvMlsdotsp;
}

}  // namespace

u32 DotpUnit::alu_op(Mnemonic op, SimdFmt fmt, u32 a, u32 b) const {
  const unsigned w = isa::simd_elem_bits(fmt);
  const unsigned n = isa::simd_elem_count(fmt);
  const bool sign = op_is_signed(op);
  const u32 vb = simd_operand_b(b, fmt);
  u32 out = 0;
  for (unsigned i = 0; i < n; ++i) {
    const i32 ea = simd_extract(a, fmt, i, sign);
    const i32 eb = simd_extract(vb, fmt, i, sign);
    out = simd_insert(out, fmt, i, static_cast<u32>(elem_op(op, ea, eb, w)));
  }
  return out;
}

i32 DotpUnit::dotp_reference(Mnemonic op, SimdFmt fmt, u32 a, u32 b, i32 acc) {
  const unsigned n = isa::simd_elem_count(fmt);
  const DotSign s = dot_sign(op);
  const u32 vb = simd_operand_b(b, fmt);
  i64 sum = dot_accumulates(op) ? acc : 0;
  for (unsigned i = 0; i < n; ++i) {
    sum += static_cast<i64>(simd_extract(a, fmt, i, s.a)) *
           static_cast<i64>(simd_extract(vb, fmt, i, s.b));
  }
  return static_cast<i32>(sum);  // 32-bit accumulator, truncating
}

DotpRegion mixed_region(u32 sel) {
  // The wide (activation) operand drives the multiplier array, so a mixed
  // op occupies the region of its activation width: 8x4/8x2 run on the
  // 8-bit region, 4x2 on the 4-bit region.
  return isa::mixed_width_a(sel) == 8 ? DotpRegion::k8 : DotpRegion::k4;
}

i32 DotpUnit::dotp_reference_mixed(Mnemonic op, u32 sel, u32 a, u32 b,
                                   i32 acc) {
  if (sel >= isa::kMpcSelCount) throw SimError("reserved mpc selector");
  const unsigned wa = isa::mixed_width_a(sel);
  const unsigned wb = isa::mixed_width_b(sel);
  const DotSign s = dot_sign(op);
  i64 sum = dot_accumulates(op) ? acc : 0;
  for (unsigned i = 0; i < 32 / wa; ++i) {
    const u32 ra = bits(a, i * wa + wa - 1, i * wa);
    const u32 rb = bits(b, i * wb + wb - 1, i * wb);
    const i64 ea = s.a ? sign_extend(ra, wa) : static_cast<i32>(ra);
    const i64 eb = s.b ? sign_extend(rb, wb) : static_cast<i32>(rb);
    sum += ea * eb;
  }
  return static_cast<i32>(sum);  // 32-bit accumulator, truncating
}

i32 DotpUnit::dotp_mixed(Mnemonic op, u32 sel, u32 a, u32 b, i32 acc) {
  const DotpRegion r = mixed_region(sel);
  if (clock_gating_) track(r, a, b);
  activity_.ops[static_cast<unsigned>(r)] += 1;
  return dotp_reference_mixed(op, sel, a, b, acc);
}

i32 DotpUnit::dotp(Mnemonic op, SimdFmt fmt, u32 a, u32 b, i32 acc) {
  // With gating the selected region's input registers latch the operands
  // here; without gating the core's per-instruction broadcast_operands()
  // already accounted for the toggles of all regions.
  if (clock_gating_) track(region_for(fmt), a, b);
  activity_.ops[static_cast<unsigned>(region_for(fmt))] += 1;
  return dotp_reference(op, fmt, a, b, acc);
}

void DotpUnit::broadcast_operands(u32 a, u32 b) {
  for (unsigned i = 0; i < 4; ++i) {
    activity_.operand_toggles[i] +=
        hamming_distance(last_a_[i], a) + hamming_distance(last_b_[i], b);
    last_a_[i] = a;
    last_b_[i] = b;
  }
}

void DotpUnit::track(DotpRegion region, u32 a, u32 b) {
  // Only the selected region's operand registers are clocked.
  const auto r = static_cast<unsigned>(region);
  activity_.operand_toggles[r] +=
      hamming_distance(last_a_[r], a) + hamming_distance(last_b_[r], b);
  last_a_[r] = a;
  last_b_[r] = b;
}

}  // namespace xpulp::sim
