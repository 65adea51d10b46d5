// Superblock engine: detection, compilation, fused execution and
// invalidation (DESIGN.md §12). These are Core member functions — the
// fused loop is an alternative inner loop of the same core, touching the
// same architectural state as step_fast(), never a separate machine.
//
// Bit-exactness contract (enforced by the three-way differential tests):
// every exit from a fused burst — normal completion, budget exhaustion,
// self-modifying-store bail, memory fault, also from inside an inner loop
// of a loop nest — leaves registers, pc, hardware-loop state, last-load
// tracking, PerfCounters and MemStats exactly as if the interpreter had
// stepped each instruction.
#include "sim/superblock.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "sim/dotp_lanes.hpp"
#include "sim/scalar_ops.hpp"

#if defined(__SSE4_1__)
#define XPULP_SB_HOST_SIMD 1
#include <immintrin.h>
#endif

namespace xpulp::sim {

using isa::Instr;
using isa::Mnemonic;
namespace iflag = isa::iflag;

namespace {

/// The last-load register the op leaves for the next one's hazard check;
/// for an inner loop, its body's last op's.
u8 load_dest(const SbOp& o) {
  if (o.kind == SbKind::kInnerLoop) return o.rd;
  return (o.flags & iflag::kIsLoad) ? o.rd : u8{0};
}

bool reads_reg(const SbOp& o, u8 r) {
  return ((o.flags & iflag::kReadsRs1) && o.rs1 == r) ||
         ((o.flags & iflag::kReadsRs2) && o.rs2 == r) ||
         ((o.flags & iflag::kReadsRd) && o.rd == r);
}

/// dst += d * k. Every PerfCounters field is linear in the number of
/// iterations, so a whole burst's static accounting is one scaled add
/// instead of one add per iteration.
void add_scaled(PerfCounters& dst, const PerfCounters& d, u64 k) {
  for_each_counter([k](const char*, u64& a, u64 b) { a += b * k; }, dst, d);
}

/// Static per-op accounting, batched into the per-iteration delta (and the
/// mid-iteration repair, add_prefix). Must mirror the fused op bodies in
/// sb_execute_impl(): every kind but kHandler batches its class counter,
/// fixed latency and memory counts here; kHandler ops run the
/// interpreter's exec helpers, which charge their class counters and
/// static stalls (mulh latency) eagerly, so only the base
/// cycle/instruction and intra-block hazard are batched for them.
void op_static_delta(const SbOp& o, PerfCounters& d, mem::MemStats& m) {
  d.instructions += 1;
  d.cycles += 1 + o.hazard;
  d.load_use_stall_cycles += o.hazard;
  switch (o.kind) {
    case SbKind::kHandler:
      break;
    case SbKind::kMac:
      d.scalar_alu_ops += 1;
      d.mul_ops += 1;
      d.mac_ops += 1;
      break;
    case SbKind::kMem:
      if (o.flags & iflag::kIsStore) {
        d.stores += 1;
        m.stores += 1;
        m.store_bytes += o.aux;
      } else {
        d.loads += 1;
        m.loads += 1;
        m.load_bytes += o.aux;
      }
      break;
    case SbKind::kDotp:
      d.dotp_ops[o.aux] += 1;
      // Mixed dots carry their baked mpc selector in imm; the per-selector
      // breakdown rides alongside the region counter above.
      if (o.flags & iflag::kDotMixed) {
        d.mixed_dotp_ops[static_cast<unsigned>(o.imm)] += 1;
      }
      break;
    case SbKind::kSimdAlu:
    case SbKind::kSimdElem:
      d.simd_alu_ops += 1;
      break;
    case SbKind::kQnt:
      // The unit's fixed latency (1 + 2Q: the base cycle, then 2Q compare
      // cycles stalling as qnt stalls) and its 2Q two-byte threshold
      // loads. Misalignment and contention stalls stay dynamic.
      d.cycles += 2u * o.aux;
      d.qnt_stall_cycles += 2u * o.aux;
      d.qnt_ops += 1;
      m.loads += 2u * o.aux;
      m.load_bytes += 4u * o.aux;
      break;
    default:  // lui/auipc, the ALU and bit-field kinds, an inner lp.setup
      d.scalar_alu_ops += 1;
      break;
  }
}

/// Batched static deltas of ops [0, k) into the live counters: the repair
/// a mid-iteration exit applies. Rare, so recomputed from the ops instead
/// of tabled per op.
void add_prefix(PerfCounters& perf, mem::Memory& mem,
                const SuperblockPlan& plan, size_t k) {
  mem::MemStats m{};
  for (size_t j = 0; j < k; ++j) op_static_delta(plan.ops[j], perf, m);
  mem.add_counts(m);
}

/// The four dot products of the 2x2-blocked MatMul body (SbShape::
/// kConvInner), [x0.w0, x1.w0, x0.w1, x1.w1]: rs1 words x0/x1 of WA-bit
/// lanes against rs2 words w0/w1 of WB-bit lanes (conv_block below).
using ConvDots = std::array<i32, 4>;

#ifdef XPULP_SB_HOST_SIMD
/// Host-SIMD dot products, bit-identical to dotp_lanes/dotp_lanes_mixed
/// for every lane width and signedness: each operand word expands once
/// into byte lanes in ISA lane order (lanes<W>), whose products are summed
/// in pairs into 16-bit lanes (pmaddubsw, sub-byte lanes) or into 32-bit
/// lanes after sign extension to 16 bits (pmaddwd). Neither can overflow
/// (or saturate) on these operand ranges; lane sums wrap mod 2^32 like
/// the scalar kernels'.

/// Lane i of the W-bit lanes packed in `v` as byte i (16 lanes at most:
/// 64 bits of bytes or nibbles, 32 bits of crumbs). Sub-byte lanes are
/// sign-extended into their byte via (x ^ h) - h where signed; byte lanes
/// keep their raw bits (widen() applies the signedness).
template <unsigned W>
inline __m128i lanes(u64 v, bool sgn) {
  const __m128i r = _mm_cvtsi64_si128(static_cast<long long>(v));
  if constexpr (W == 8) {
    return r;
  } else {
    const __m128i m = _mm_set1_epi8(static_cast<char>(low_mask(W)));
    const auto field = [&](int shift) {
      return _mm_and_si128(_mm_srli_epi16(r, shift), m);
    };
    __m128i l;
    if constexpr (W == 4) {
      l = _mm_unpacklo_epi8(field(0), field(4));
    } else {
      l = _mm_unpacklo_epi16(_mm_unpacklo_epi8(field(0), field(2)),
                             _mm_unpacklo_epi8(field(4), field(6)));
    }
    if (sgn) {
      const __m128i h = _mm_set1_epi8(static_cast<char>(1u << (W - 1)));
      l = _mm_sub_epi8(_mm_xor_si128(l, h), h);
    }
    return l;
  }
}

inline __m128i widen(__m128i v, bool sgn) {
  return sgn ? _mm_cvtepi8_epi16(v) : _mm_cvtepu8_epi16(v);
}

inline __m128i high_half(__m128i v) { return _mm_unpackhi_epi64(v, v); }

/// The rs2 bits a WA x WB dot reads: mixed formats pack the 32/WA weights
/// in the low (32/WA)*WB bits and ignore the rest.
template <unsigned WA, unsigned WB>
constexpr u32 weight_bits(u32 w) {
  if constexpr (WB < WA) return w & low_mask(32 / WA * WB);
  return w;
}

template <unsigned WA, unsigned WB = WA>
inline i32 host_dot(u32 a, u32 b, u32 sum, bool sa, bool sb) {
  const __m128i la = lanes<WA>(a, sa);
  const __m128i lb = lanes<WB>(weight_bits<WA, WB>(b), sb);
  __m128i p = _mm_madd_epi16(widen(la, sa), widen(lb, sb));
  if constexpr (WA == 2) {
    p = _mm_add_epi32(p, _mm_madd_epi16(widen(high_half(la), sa),
                                        widen(high_half(lb), sb)));
  }
  p = _mm_add_epi32(p, _mm_shuffle_epi32(p, 0xEE));
  const u64 q = static_cast<u64>(_mm_cvtsi128_si64(p));
  return static_cast<i32>(sum + static_cast<u32>(q) +
                          static_cast<u32>(q >> 32));
}

/// Pair sums of lane products of two sub-byte operands expanded to bytes,
/// as eight s16 lanes: pmaddubsw, whose first (unsigned) operand is `a`
/// unless both are signed, then |a| * (b with a's sign). Sub-byte products
/// are small enough that its s16 saturation is unreachable. No dot product
/// has signed activations with unsigned weights (matches_conv_inner
/// rejects them).
template <bool SA, bool SB>
inline __m128i madd_bytes(__m128i a, __m128i b) {
  static_assert(SB || !SA, "signed x unsigned dots take the generic loop");
  if constexpr (!SA) {
    return _mm_maddubs_epi16(a, b);
  } else {
    return _mm_maddubs_epi16(_mm_abs_epi8(a), _mm_sign_epi8(b, a));
  }
}

inline ConvDots to_dots(__m128i v) {
  ConvDots d;
  _mm_storeu_si128(reinterpret_cast<__m128i*>(d.data()), v);
  return d;
}

/// conv_block in host SIMD. Where both words of an operand fit one
/// register (N <= 8 lanes each) they expand together, word 0's lanes then
/// word 1's.
template <unsigned WA, unsigned WB, bool SA, bool SB>
[[gnu::always_inline]] inline ConvDots conv_block(u32 x0, u32 x1, u32 w0,
                                                  u32 w1) {
  constexpr unsigned N = 32 / WA;
  const __m128i ones = _mm_set1_epi16(1);
  const auto hsum = [&](__m128i p00, __m128i p10, __m128i p01, __m128i p11) {
    return _mm_hadd_epi32(
        _mm_hadd_epi32(_mm_madd_epi16(p00, ones), _mm_madd_epi16(p10, ones)),
        _mm_hadd_epi32(_mm_madd_epi16(p01, ones), _mm_madd_epi16(p11, ones)));
  };
  if constexpr (N == 16) {
    const __m128i a0 = lanes<WA>(x0, SA), a1 = lanes<WA>(x1, SA);
    const __m128i b0 = lanes<WB>(w0, SB), b1 = lanes<WB>(w1, SB);
    return to_dots(
        hsum(madd_bytes<SA, SB>(a0, b0), madd_bytes<SA, SB>(a1, b0),
             madd_bytes<SA, SB>(a0, b1), madd_bytes<SA, SB>(a1, b1)));
  } else {
    const __m128i pa = lanes<WA>(x0 | u64{x1} << 32, SA);
    const __m128i pb =
        lanes<WB>(weight_bits<WA, WB>(w0) |
                      u64{weight_bits<WA, WB>(w1)} << (N * WB),
                  SB);
    if constexpr (N == 4) {
      // [x0 | x1] against [w0 | w0] and [w1 | w1] in 16-bit lanes.
      const __m128i a = widen(pa, SA);
      const __m128i bd = _mm_unpacklo_epi32(pb, pb);
      return to_dots(
          _mm_hadd_epi32(_mm_madd_epi16(a, widen(bd, SB)),
                         _mm_madd_epi16(a, widen(high_half(bd), SB))));
    } else {
      // [x0 | x1] against [w0 | w0] and [w1 | w1] in byte lanes.
      const __m128i p0 =
          _mm_madd_epi16(madd_bytes<SA, SB>(pa, _mm_unpacklo_epi64(pb, pb)),
                         ones);
      const __m128i p1 =
          _mm_madd_epi16(madd_bytes<SA, SB>(pa, high_half(pb)), ones);
      return to_dots(_mm_hadd_epi32(p0, p1));
    }
  }
}

#else
template <unsigned WA, unsigned WB = WA>
inline i32 host_dot(u32 a, u32 b, u32 sum, bool sa, bool sb) {
  if constexpr (WA == WB) {
    return dotp_lanes<WA, false>(a, b, sum, sa, sb);
  } else {
    return dotp_lanes_mixed<WA, WB>(a, b, sum, sa, sb);
  }
}

template <unsigned WA, unsigned WB, bool SA, bool SB>
ConvDots conv_block(u32 x0, u32 x1, u32 w0, u32 w1) {
  return {host_dot<WA, WB>(x0, w0, 0, SA, SB),
          host_dot<WA, WB>(x1, w0, 0, SA, SB),
          host_dot<WA, WB>(x0, w1, 0, SA, SB),
          host_dot<WA, WB>(x1, w1, 0, SA, SB)};
}
#endif  // XPULP_SB_HOST_SIMD

/// The bytes [lo, hi) that `k` word accesses at first, first + step, ...
/// touch; `ok` when every one of them is aligned and inside `msize` bytes
/// of memory. One such check per post-increment stream per run is what
/// lets a whole run (kCopyWords, kConvInner) use raw host addresses.
struct WordStream {
  i64 lo, hi;
  bool ok;
};

WordStream word_stream(i64 first, i64 step, u64 k, u32 msize) {
  const i64 last = first + step * static_cast<i64>(k - 1);
  const i64 lo = std::min(first, last);
  const i64 hi = std::max(first, last) + 4;
  return {lo, hi, ((first | step) & 3) == 0 && lo >= 0 && hi <= msize};
}

/// A whole run of kConvInner iterations, carried in locals: the four load
/// streams in op order, the 2x2 operand block and its accumulators, and
/// the LSU and dot latches.
struct ConvRun {
  const u8* mem;  // guest memory; every access of the run is in bounds
  std::array<u32, 4> addr;  // next address of each load, in op order
  std::array<u32, 4> step;  // and its advance per iteration
  std::array<u8, 4> load;   // the load that fills each of x0, x1, w0, w1
  std::array<u32, 4> v;     // x0, x1, w0, w1
  std::array<u32, 4> acc;   // dots [x0.w0, x1.w0, x0.w1, x1.w1]
  bool accumulate;
  u32 lld;
  u64 toggles;
  u32 dla, dlb;
  u64 dtog;
};

template <unsigned WA, unsigned WB, bool SA, bool SB>
void conv_run(ConvRun& r, u64 k) {
  const u8* const mem = r.mem;
  const std::array<u32, 4> step = r.step;
  const std::array<u8, 4> load = r.load;
  const u32 keep = r.accumulate ? ~0u : 0u;
  std::array<u32, 4> addr = r.addr;
  std::array<u32, 4> v = r.v;
  std::array<u32, 4> acc = r.acc;
  u32 lld = r.lld, dla = r.dla, dlb = r.dlb;
  u64 toggles = 0, dtog = 0;
  for (u64 j = 0; j < k; ++j) {
    std::array<u32, 4> l;
    for (unsigned i = 0; i < 4; ++i) {
      std::memcpy(&l[i], mem + addr[i], 4);
      addr[i] += step[i];
    }
    toggles += hamming_distance(lld, l[0]) + hamming_distance(l[0], l[1]) +
               hamming_distance(l[1], l[2]) + hamming_distance(l[2], l[3]);
    lld = l[3];
    // Each operand read as one word: a wider read spanning two of the
    // stores to `l` would not be forwarded from them.
    for (unsigned q = 0; q < 4; ++q) v[q] = l[load[q]];
    const ConvDots d = conv_block<WA, WB, SA, SB>(v[0], v[1], v[2], v[3]);
    for (unsigned q = 0; q < 4; ++q) {
      acc[q] = (acc[q] & keep) + static_cast<u32>(d[q]);
    }
    // The dot-latch sequence x0,x1,x0,x1 / w0,w0,w1,w1 folds to four
    // Hamming distances (two of the b-side steps are zero).
    dtog += hamming_distance(dla, v[0]) + 3 * hamming_distance(v[0], v[1]) +
            hamming_distance(dlb, v[2]) + hamming_distance(v[2], v[3]);
    dla = v[1];
    dlb = v[3];
  }
  r.addr = addr;
  r.v = v;
  r.acc = acc;
  r.lld = lld;
  r.toggles = toggles;
  r.dla = dla;
  r.dlb = dlb;
  r.dtog = dtog;
}

using ConvRunFn = void (*)(ConvRun&, u64);

/// conv_run for lane widths WA x WB, by signedness 2*sa + sb (0, 1 or 3).
template <unsigned WA, unsigned WB>
ConvRunFn conv_run_signed(unsigned sign) {
  switch (sign) {
    case 0: return &conv_run<WA, WB, false, false>;
    case 1: return &conv_run<WA, WB, false, true>;
    default: return &conv_run<WA, WB, true, true>;
  }
}

/// The conv_run instantiation of a matched body, chosen once per run:
/// lane widths from the dot's format or baked mpc selector, then its
/// signedness.
ConvRunFn conv_run_for(const SbOp& d) {
  const unsigned sign = (d.flags & iflag::kDotSignedA ? 2u : 0u) +
                        (d.flags & iflag::kDotSignedB ? 1u : 0u);
  if (d.flags & iflag::kDotMixed) {
    switch (d.imm) {
      case 0: return conv_run_signed<8, 4>(sign);
      case 1: return conv_run_signed<8, 2>(sign);
      default: return conv_run_signed<4, 2>(sign);
    }
  }
  switch (d.fmt) {
    case isa::SimdFmt::kB: return conv_run_signed<8, 8>(sign);
    case isa::SimdFmt::kN: return conv_run_signed<4, 4>(sign);
    default: return conv_run_signed<2, 2>(sign);
  }
}

}  // namespace

bool matches_conv_inner(const SuperblockPlan& p) {
  if (!p.is_hwloop || p.ops.size() != 8) return false;
  for (size_t k = 0; k < 4; ++k) {
    const SbOp& o = p.ops[k];
    if (o.kind != SbKind::kMem) return false;
    const u16 f = o.flags;
    if ((f & iflag::kIsStore) || !(f & iflag::kMemPostInc) ||
        (f & iflag::kMemRegOff) || o.aux != 4) {
      return false;
    }
  }
  const SbOp& d0 = p.ops[4];
  if (!(d0.flags & iflag::kDotMixed) && d0.fmt != isa::SimdFmt::kB &&
      d0.fmt != isa::SimdFmt::kN && d0.fmt != isa::SimdFmt::kC) {
    return false;
  }
  constexpr u16 kDotMask = iflag::kDotAccum | iflag::kDotSignedA |
                           iflag::kDotSignedB | iflag::kDotMixed;
  for (size_t k = 4; k < 8; ++k) {
    const SbOp& o = p.ops[k];
    if (o.kind != SbKind::kDotp || o.fmt != d0.fmt || o.imm != d0.imm) {
      return false;
    }
    if ((o.flags & kDotMask) != (d0.flags & kDotMask)) return false;
  }
  if ((d0.flags & iflag::kDotSignedA) && !(d0.flags & iflag::kDotSignedB)) {
    return false;  // no conv_block instantiation for signed x unsigned
  }
  if (p.ops[4].rs1 != p.ops[6].rs1 || p.ops[5].rs1 != p.ops[7].rs1) {
    return false;
  }
  if (p.ops[4].rs2 != p.ops[5].rs2 || p.ops[6].rs2 != p.ops[7].rs2) {
    return false;
  }
  for (size_t k = 4; k < 8; ++k) {
    const u8 rd = p.ops[k].rd;
    if (rd == 0) return false;
    for (size_t j = 4; j < 8; ++j) {
      if (j != k && p.ops[j].rd == rd) return false;
      if (p.ops[j].rs1 == rd || p.ops[j].rs2 == rd) return false;
    }
  }
  // The loads fill exactly the four operands, one each, from four
  // distinct base registers that no load destination or accumulator
  // writes: each base then moves by its own increment per iteration, so
  // every load is an affine stream a whole run checks once.
  const u8 operands[] = {p.ops[4].rs1, p.ops[5].rs1, p.ops[4].rs2,
                         p.ops[6].rs2};
  for (size_t k = 0; k < 4; ++k) {
    const SbOp& ld = p.ops[k];
    if (ld.rd == 0 || ld.rs1 == 0 ||
        std::count(operands, operands + 4, ld.rd) != 1) {
      return false;
    }
    for (size_t j = 0; j < 8; ++j) {
      if (j != k && p.ops[j].rd == ld.rd) return false;
      if (p.ops[j].rd == ld.rs1) return false;
      if (j < 4 && j != k && p.ops[j].rs1 == ld.rs1) return false;
    }
  }
  return true;
}

namespace {

/// Recognize the im2col copy body (SbShape::kCopyWords): `p.lw rX, a(rS!)`
/// then `p.sw rX, b(rD!)`, word accesses with word-multiple immediate
/// increments, and rX, rS, rD distinct and nonzero, so each iteration
/// copies one word and moves both pointers by a constant.
bool matches_copy_words(const SuperblockPlan& p) {
  if (!p.is_hwloop || p.ops.size() != 2) return false;
  const SbOp& ld = p.ops[0];
  const SbOp& st = p.ops[1];
  for (const SbOp* o : {&ld, &st}) {
    if (o->kind != SbKind::kMem || o->aux != 4 ||
        !(o->flags & iflag::kMemPostInc) || (o->flags & iflag::kMemRegOff) ||
        (o->imm & 3) != 0) {
      return false;
    }
  }
  return !(ld.flags & iflag::kIsStore) && (st.flags & iflag::kIsStore) &&
         st.rs2 == ld.rd && ld.rd != 0 && ld.rs1 != 0 && st.rs1 != 0 &&
         ld.rd != ld.rs1 && ld.rd != st.rs1 && ld.rs1 != st.rs1;
}

/// `code` holds exactly the words of `p`'s straight-line body.
bool holds_body(std::span<const u8> code, const SuperblockPlan& p) {
  size_t o = 0;
  for (const Instr& in : p.instrs) {
    u32 w = 0;
    std::memcpy(&w, &code[o], in.size);
    if (w != in.raw) return false;
    o += in.size;
  }
  return o == code.size();
}

/// A .sc operand as a full vector: lane 0's raw bits replicated (lane
/// extension happens inside host_dot, so this is exactly dotp_lanes<W,
/// true>).
template <unsigned W>
constexpr u32 replicate(u32 b) {
  return (b & low_mask(W)) * (~0u / low_mask(W));
}

/// The op kind of an RV32I ALU mnemonic, immediate or register form.
SbKind alu_kind(Mnemonic op) {
  using M = Mnemonic;
  using K = SbKind;
  switch (op) {
    case M::kAddi: return K::kAddImm;
    case M::kSlti: return K::kSltImm;
    case M::kSltiu: return K::kSltuImm;
    case M::kXori: return K::kXorImm;
    case M::kOri: return K::kOrImm;
    case M::kAndi: return K::kAndImm;
    case M::kSlli: return K::kSllImm;
    case M::kSrli: return K::kSrlImm;
    case M::kSrai: return K::kSraImm;
    case M::kAdd: return K::kAdd;
    case M::kSub: return K::kSub;
    case M::kSlt: return K::kSlt;
    case M::kSltu: return K::kSltu;
    case M::kXor: return K::kXor;
    case M::kOr: return K::kOr;
    case M::kAnd: return K::kAnd;
    case M::kSll: return K::kSll;
    case M::kSrl: return K::kSrl;
    case M::kSra: return K::kSra;
    default: return K::kHandler;
  }
}

/// Resolve an XpulpV2 scalar op (ExecClass::kPulpScalar) into `o`: its
/// kind, and the field position and width or clip width it needs. False
/// for an illegal bit-field shape: width legality is a static property of
/// the immediates, so such an op (which traps with its pc) never compiles
/// and plans stay IllegalInstruction-free.
bool resolve_pulp_scalar(const Instr& in, SbOp& o) {
  using M = Mnemonic;
  const unsigned width = static_cast<unsigned>(in.imm2) + 1;
  const unsigned pos = static_cast<unsigned>(in.imm);
  const auto field = [&o](SbKind k, unsigned at, unsigned w) {
    o.kind = k;
    o.aux = static_cast<u8>(at);
    o.imm = static_cast<i32>(w);
  };
  switch (in.op) {
    case M::kPMac:
    case M::kPMsu:
      o.kind = SbKind::kMac;
      o.aux = in.op == M::kPMsu;
      return true;
    case M::kPExtract: field(SbKind::kExtract, pos, width); return true;
    case M::kPExths: field(SbKind::kExtract, 0, 16); return true;
    case M::kPExtbs: field(SbKind::kExtract, 0, 8); return true;
    case M::kPExtractu: field(SbKind::kExtractu, pos, width); return true;
    case M::kPExthz: field(SbKind::kExtractu, 0, 16); return true;
    case M::kPExtbz: field(SbKind::kExtractu, 0, 8); return true;
    case M::kPInsert:
    case M::kPBclr:
    case M::kPBset:
      if (pos + width > 32) return false;
      if (in.op == M::kPInsert) {
        field(SbKind::kInsert, pos, width);
      } else {
        const u32 mask = low_mask(width) << pos;
        o.kind = in.op == M::kPBclr ? SbKind::kAndImm : SbKind::kOrImm;
        o.imm = static_cast<i32>(in.op == M::kPBclr ? ~mask : mask);
      }
      return true;
    case M::kPClip:
    case M::kPClipu:
      o.kind = in.op == M::kPClip ? SbKind::kClip : SbKind::kClipu;
      o.imm = static_cast<i32>(clip_width(in.imm));
      return true;
    default:
      o.kind = SbKind::kPulpAlu;
      return true;
  }
}

bool is_conditional_branch(Mnemonic op) {
  using M = Mnemonic;
  switch (op) {
    case M::kBeq: case M::kBne: case M::kBlt: case M::kBge:
    case M::kBltu: case M::kBgeu: case M::kPBeqimm: case M::kPBneimm:
      return true;
    default:
      return false;
  }
}

}  // namespace

u64 Core::superblock_ops_compiled(SbKind k) const {
  static_assert(static_cast<size_t>(SbKind::kCount) <=
                std::tuple_size_v<decltype(sb_kind_ops_)>);
  return sb_kind_ops_[static_cast<size_t>(k)];
}

void Core::sb_note_backedge(addr_t branch_pc, addr_t target) {
  // One promotion rule for both loop kinds: kSbHeatThreshold backedges,
  // counted across entries of the loop. Branch loops are keyed by the
  // branch pc, hardware loops by their body's shape (sb_note_loop_backedge),
  // each in its own table, so the two kinds never share or evict a counter.
  // A loop that already has a plan re-enters it directly.
  if (sb_find(target) != nullptr) {
    sb_candidate_ = target;
    sb_candidate_branch_ = branch_pc;
    return;
  }
  SbHeatEntry& e = sb_heat_[0][heat_slot(branch_pc)];
  if (e.key != branch_pc) {
    e.key = branch_pc;
    e.count = 1;
    return;
  }
  if (++e.count >= kSbHeatThreshold) {
    e.count = 0;
    sb_candidate_ = target;
    sb_candidate_branch_ = branch_pc;
  }
}

void Core::sb_note_loop_backedge(unsigned l) {
  if (sb_find_loop(l) != nullptr) {
    sb_candidate_ = hwl_start_[l];
    sb_candidate_branch_ = 0;
    return;
  }
  const u64 key = sb_loop_key(l);
  SbHeatEntry& e = sb_heat_[1][heat_slot(key)];
  if (e.key != key) {
    sb_unlink(e);  // evicted
    e = SbHeatEntry{key, nullptr, 1, false};
    return;
  }
  if (e.rejected) return;
  if (++e.count >= kSbHeatThreshold) {
    e.count = 0;
    sb_candidate_ = hwl_start_[l];
    sb_candidate_branch_ = 0;
  }
}

u64 Core::sb_loop_key(unsigned l) {
  if (hwl_key_[l] != 0) return hwl_key_[l];
  const addr_t start = hwl_start_[l];
  const addr_t end = hwl_end_[l];
  u64 h = 0xcbf29ce484222325ull;  // FNV-1a over the body's words
  const auto mix = [&h](u64 v) { h = (h ^ v) * 0x100000001b3ull; };
  bool pinned = true;
  if (end > start && end - start <= 4 * kSbMaxOps && (end - start) % 2 == 0 &&
      end <= mem_.size()) {
    const std::span<const u8> body = mem_.view(start, end - start);
    pinned = false;
    for (size_t o = 0; o < body.size();) {
      const size_t n = (body[o] & 3u) == 3u && o + 4 <= body.size() ? 4 : 2;
      u32 w = 0;
      std::memcpy(&w, &body[o], n);
      // auipc: its plan bakes the pc into a kConst op.
      if (n == 4 && (w & 0x7fu) == 0x17u) pinned = true;
      mix(w);
      o += n;
    }
    mix(body.size());
  }
  // A body that cannot roam (or be read) is keyed by its position too.
  if (pinned) mix(u64{start} << 32 | end);
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 32;
  hwl_key_[l] = h | 1;  // 0 marks a key not yet computed
  return hwl_key_[l];
}

SuperblockPlan* Core::sb_find_loop(unsigned l) {
  const addr_t start = hwl_start_[l];
  const u64 key = sb_loop_key(l);
  const SbHeatEntry& e = sb_heat_[1][heat_slot(key)];
  if (e.key == key && e.plan != nullptr) {
    SuperblockPlan& p = *e.plan;
    if (p.start == start) return &p;
    const u32 len = hwl_end_[l] - start;
    // The words decide, not the hash: this copy must hold the exact body
    // the plan was compiled from.
    if (p.roams && &p != sb_active_ && p.end - p.start == len &&
        static_cast<u64>(start) + len <= mem_.size() &&
        holds_body(mem_.view(start, len), p)) {
      return sb_rebase(p, start);
    }
  }
  return sb_find(start);
}

SuperblockPlan* Core::sb_rebase(SuperblockPlan& plan, addr_t start) {
  // Roaming plans are found through their shape's heat entry, never by
  // pc, so the move touches no index. A plan pinned at `start` keeps it,
  // and this one stays where it was.
  if (SuperblockPlan* pinned = sb_find(start)) return pinned;
  // Shift every pc the plan reports: bail-out, fault, access-hook and
  // burst-sink pcs all come from start/end/op_pc.
  const addr_t delta = start - plan.start;
  plan.start = start;
  plan.end += delta;
  for (addr_t& pc : plan.op_pc) pc += delta;
  // The store filter only needs to cover every plan.
  sb_lo_ = std::min(sb_lo_, plan.start);
  sb_hi_ = std::max(sb_hi_, plan.end);
  sb_stats_.rebases += 1;
  return &plan;
}

void Core::sb_unlink(SbHeatEntry& e) {
  SuperblockPlan* p = e.plan;
  if (p == nullptr) return;
  e.plan = nullptr;
  p->shape_key = 0;
  if (!p->roams) return;  // pinned plans are indexed by pc already
  // No heat entry finds it any more: pin it where it stands, or drop it
  // when another plan is pinned there.
  p->roams = false;
  if (!sb_at_.emplace(p->start, p).second) sb_erase(*p);
}

void Core::sb_erase(SuperblockPlan& p) {
  if (p.shape_key != 0) {
    SbHeatEntry& e = sb_heat_[1][heat_slot(p.shape_key)];
    if (e.plan == &p) e.plan = nullptr;
  }
  if (!p.roams) {
    const auto at = sb_at_.find(p.start);
    if (at != sb_at_.end() && at->second == &p) sb_at_.erase(at);
  }
  const auto it =
      std::find_if(sb_plans_.begin(), sb_plans_.end(),
                   [&p](const auto& q) { return q.get() == &p; });
  std::swap(*it, sb_plans_.back());
  sb_plans_.pop_back();
}

SuperblockPlan* Core::sb_find(addr_t start) {
  const auto it = sb_at_.find(start);
  return it != sb_at_.end() ? it->second : nullptr;
}

void Core::sb_recompute_extent() {
  sb_lo_ = ~addr_t{0};
  sb_hi_ = 0;
  for (const auto& p : sb_plans_) {
    sb_lo_ = std::min(sb_lo_, p->start);
    sb_hi_ = std::max(sb_hi_, p->end);
  }
  if (sb_plans_.empty()) sb_lo_ = sb_hi_ = 0;
  // An evicted plan recompiles on heat again, not on the next fall-in.
  if (sb_fallin_ != kNoSbCandidate && sb_find(sb_fallin_) == nullptr) {
    sb_fallin_ = kNoSbCandidate;
  }
}

template <typename Hit>
void Core::sb_evict_if(Hit hit) {
  bool changed = false;
  for (size_t k = 0; k < sb_plans_.size();) {
    SuperblockPlan& p = *sb_plans_[k];
    if (!hit(p)) {
      ++k;
      continue;
    }
    sb_stats_.invalidations += 1;
    changed = true;
    if (&p == sb_active_) {
      // The fused loop is executing this plan right now (self-modifying
      // store): the storage can't be freed under it. Flag it — the burst
      // bails at the next op boundary and sb_exit() evicts it.
      sb_active_dirty_ = true;
      p.dead = true;
      ++k;
    } else {
      sb_erase(p);  // swaps the last plan into slot k
    }
  }
  if (changed) sb_recompute_extent();
}

void Core::sb_invalidate_range(addr_t a, unsigned size) {
  const u64 sa = a;
  const u64 se = sa + size;
  sb_evict_if([sa, se](const SuperblockPlan& p) {
    return se > p.start && sa < p.end;
  });
  for (auto it = sb_rejects_.begin(); it != sb_rejects_.end();) {
    // The patched region may compile now; forget the rejection.
    if (se > it->first && sa < it->second) {
      it = sb_rejects_.erase(it);
    } else {
      ++it;
    }
  }
}

void Core::sb_evict_mixed_plans() {
  // A value-changing write to the precision-status CSR (or a checkpoint
  // restore with a different mpc) invalidates every plan that baked the
  // old selector into its fused dot bodies. CSR ops never compile into a
  // block, so this cannot fire from inside a burst executing the plan —
  // but restore paths could in principle; sb_evict_if handles a live plan
  // the way a self-modifying store does.
  const u64 before = sb_stats_.invalidations;
  sb_evict_if([](const SuperblockPlan& p) { return p.uses_mixed; });
  sb_stats_.mpc_evictions += sb_stats_.invalidations - before;
}

void Core::sb_clear() {
  sb_plans_.clear();
  sb_at_.clear();
  sb_rejects_.clear();
  sb_heat_ = {};
  sb_candidate_ = kNoSbCandidate;
  sb_candidate_branch_ = 0;
  sb_fallin_ = kNoSbCandidate;
  sb_active_ = nullptr;
  sb_active_dirty_ = false;
  sb_lo_ = sb_hi_ = 0;
}

SuperblockPlan* Core::sb_compile(addr_t start, addr_t branch_pc) {
  // Block bounds from the trigger: a hardware loop whose start register
  // equals `start` gives exact bounds; otherwise the heat counter recorded
  // the backward branch that targets `start`.
  addr_t end = branch_pc;  // one past the last *body* byte
  // A hardware loop's shape heat entry links the shape to its plan, or
  // records that the shape does not compile.
  SbHeatEntry* shape = nullptr;
  if (const int l = branch_pc == 0 ? live_loop_at(start) : -1; l >= 0) {
    end = hwl_end_[l];
    const u64 key = sb_loop_key(static_cast<unsigned>(l));
    shape = &sb_heat_[1][heat_slot(key)];
    sb_unlink(*shape);
    *shape = SbHeatEntry{key, nullptr, 0, true};
  }
  auto plan = std::make_unique<SuperblockPlan>();
  if (!sb_build(*plan, start, end, branch_pc)) {
    sb_stats_.compile_rejects += 1;
    if (sb_rejects_.size() >= 64) sb_rejects_.clear();  // bounded memory
    sb_rejects_.emplace_back(start, std::max(end, start) + 4);
    return nullptr;
  }
  sb_stats_.blocks_compiled += 1;
  const auto count_kinds = [this](const SuperblockPlan& q) {
    for (const SbOp& o : q.ops) sb_kind_ops_[static_cast<size_t>(o.kind)] += 1;
  };
  count_kinds(*plan);
  for (const SuperblockPlan& body : plan->inner) count_kinds(body);
  if (shape != nullptr) {
    shape->plan = plan.get();
    shape->rejected = false;
    plan->shape_key = shape->key;
    plan->roams =
        std::none_of(plan->ops.begin(), plan->ops.end(),
                     [](const SbOp& o) { return o.op == Mnemonic::kAuipc; });
  }
  SuperblockPlan* out = plan.get();
  sb_plans_.push_back(std::move(plan));
  if (!out->roams) sb_at_.emplace(start, out);
  if (branch_pc != 0) {
    sb_fallin_ = start;
    sb_fallin_branch_ = branch_pc;
  }
  sb_recompute_extent();
  return out;
}

bool Core::sb_build(SuperblockPlan& plan, addr_t start, addr_t end,
                    addr_t branch_pc) {
  const bool is_hwloop = branch_pc == 0;
  if (end < start || end - start > 4 * kSbMaxOps) return false;
  plan.start = start;
  plan.is_hwloop = is_hwloop;

  u8 prev_load_rd = 0;  // op[0]'s entry hazard is dynamic, not static
  try {
    for (addr_t pc = start; pc < end;) {
      // Copy: fetch_decode returns a reference into the decode cache,
      // which later fetches may reallocate.
      const Instr in = fetch_decode(pc);
      if (pc + in.size > end) return false;  // straddles the boundary
      if (in.flags & feature_guard_) return false;  // would trap
      if (plan.ops.size() >= kSbMaxOps) return false;

      SbOp o{};
      o.rd = in.rd;
      o.rs1 = in.rs1;
      o.rs2 = in.rs2;
      o.flags = in.flags;
      o.fmt = in.fmt;
      o.cls = in.cls;
      o.op = in.op;
      o.imm = in.imm;
      addr_t next = pc + in.size;
      using C = isa::ExecClass;
      switch (in.cls) {
        case C::kLui:
          o.kind = SbKind::kConst;
          break;
        case C::kAuipc:
          o.kind = SbKind::kConst;
          o.imm = static_cast<i32>(pc + static_cast<u32>(in.imm));
          break;
        case C::kAluImm:
        case C::kAluReg:
          o.kind = alu_kind(in.op);
          break;
        case C::kMem:
          o.kind = SbKind::kMem;
          o.aux = in.mem_size;
          break;
        case C::kSimdDotp:
          o.kind = SbKind::kDotp;
          if (in.flags & iflag::kDotMixed) {
            // Virtual SIMD: the operand formats live in the precision-
            // status CSR. Bake the current selector into the plan (imm is
            // unused by dot ops); any later mpc write evicts the plan. The
            // reserved selector would trap, so it never compiles.
            if (mpc_ >= isa::kMpcSelCount) return false;
            o.aux = static_cast<u8>(mixed_region(mpc_));
            o.imm = static_cast<i32>(mpc_);
            plan.uses_mixed = true;
            plan.baked_mpc = static_cast<u8>(mpc_);
          } else {
            o.aux = static_cast<u8>(region_for(in.fmt));
          }
          break;
        case C::kPulpScalar:
          if (!resolve_pulp_scalar(in, o)) return false;
          break;
        case C::kSimdAlu:
          o.kind = SbKind::kSimdAlu;
          break;
        case C::kSimdElem:
          o.kind = SbKind::kSimdElem;
          break;
        case C::kSimdQnt:
          o.kind = SbKind::kQnt;
          o.aux = static_cast<u8>(isa::simd_elem_bits(in.fmt));
          break;
        case C::kMulDiv:
          o.kind = SbKind::kHandler;
          break;
        case C::kHwloop: {
          // A counted loop inside a backward-branch region, one level
          // deep: its body compiles as an ordinary hardware-loop plan
          // owned by this one, and the walk resumes at the loop end.
          if (is_hwloop ||
              (in.op != Mnemonic::kLpSetup && in.op != Mnemonic::kLpSetupi)) {
            return false;
          }
          next = pc + static_cast<u32>(in.imm);
          if (next <= pc + in.size || next > end) return false;
          SuperblockPlan body;
          if (!sb_build(body, pc + in.size, next, 0)) return false;
          if (body.uses_mixed) {
            plan.uses_mixed = true;
            plan.baked_mpc = body.baked_mpc;
          }
          o.kind = SbKind::kInnerLoop;
          o.aux = in.imm2 & 1u;
          o.imm = static_cast<i32>(plan.inner.size());
          o.rd = body.exit_last_load_rd;
          plan.inner.push_back(std::move(body));
          break;
        }
        default:
          // Control flow, CSR (reads live cycle counters), fence/ecall/
          // ebreak, illegal: never fused.
          return false;
      }

      if (prev_load_rd != 0 && reads_reg(o, prev_load_rd)) {
        o.hazard = static_cast<u8>(timing_.load_use_penalty);
      }
      prev_load_rd = load_dest(o);

      plan.op_pc.push_back(pc);
      plan.ops.push_back(o);
      plan.instrs.push_back(in);
      pc = next;
    }

    if (!is_hwloop) {
      const Instr in = fetch_decode(branch_pc);
      if (!is_conditional_branch(in.op)) return false;
      if (in.flags & feature_guard_) return false;
      if (branch_pc + static_cast<u32>(in.imm) != start) return false;
      SbOp b{};
      b.kind = SbKind::kBranch;
      b.op = in.op;
      b.rs1 = in.rs1;
      b.rs2 = in.rs2;
      b.flags = in.flags;
      if (in.op == Mnemonic::kPBeqimm || in.op == Mnemonic::kPBneimm) {
        b.imm = static_cast<i32>(sign_extend(in.imm2, 5));
      }
      if (prev_load_rd != 0 && reads_reg(b, prev_load_rd)) {
        b.hazard = static_cast<u8>(timing_.load_use_penalty);
      }
      plan.branch = b;
      plan.end = branch_pc + in.size;
      plan.op_pc.push_back(branch_pc);
    } else {
      if (plan.ops.empty()) return false;
      plan.end = end;
      plan.op_pc.push_back(end);
    }
  } catch (...) {
    // Decode walked off mapped memory; the interpreter will fault at the
    // precise instruction if execution ever reaches it.
    return false;
  }

  // Single-region dot-product blocks let the fused loop keep that region's
  // operand latches in host registers for the whole burst (0xff = none or
  // mixed; the per-op note_dotp path handles those).
  {
    u8 dr = 0xff;
    bool mixed = false;
    for (const SbOp& o : plan.ops) {
      if (o.kind != SbKind::kDotp) continue;
      if (dr == 0xff) {
        dr = o.aux;
      } else if (dr != o.aux) {
        mixed = true;
      }
    }
    plan.dotp_region = mixed ? u8{0xff} : dr;
  }
  if (matches_conv_inner(plan)) plan.shape = SbShape::kConvInner;
  if (matches_copy_words(plan)) plan.shape = SbShape::kCopyWords;

  // Worst-case dynamic cycles per iteration in slim memory mode, for the
  // sampled-burst arming check. Conservative per kind: a memory op can
  // pay the misaligned penalty, a divide the maximal significant-bit
  // latency, a quantization op one misaligned stall per threshold fetch
  // (its fixed latency is static).
  {
    u64 dyn = 0;
    for (const SbOp& o : plan.ops) {
      switch (o.kind) {
        case SbKind::kMem: dyn += 2; break;
        case SbKind::kHandler: dyn += 40; break;
        case SbKind::kQnt: dyn += 2u * o.aux; break;  // one per fetch
        default: break;
      }
    }
    plan.max_dyn_iter = dyn;
  }

  // Batched static accounting: per-op cycle prefixes for boundary
  // coordinates, plus the full-iteration deltas the fused loop applies.
  const size_t n = plan.ops.size();
  plan.cycle_prefix.resize(n + 1);
  PerfCounters pacc{};
  mem::MemStats macc{};
  for (size_t i = 0; i < n; ++i) {
    plan.cycle_prefix[i] = pacc.cycles;
    op_static_delta(plan.ops[i], pacc, macc);
  }
  plan.cycle_prefix[n] = pacc.cycles;
  plan.iter_mem = macc;
  if (is_hwloop) {
    plan.iter_perf = pacc;
    // All but the final iteration charge a hardware-loop backedge; the
    // burst exit subtracts the final one when the count is exhausted.
    plan.iter_perf.hwloop_backedges = 1;
    plan.exit_perf = pacc;  // unused: hwloop exits need no extra delta
    plan.exit_last_load_rd = load_dest(plan.ops[n - 1]);
    if (plan.exit_last_load_rd != 0 &&
        reads_reg(plan.ops[0], plan.exit_last_load_rd)) {
      plan.wrap_hazard = static_cast<u8>(timing_.load_use_penalty);
    }
  } else {
    const SbOp& b = plan.branch;
    PerfCounters taken = pacc;
    taken.instructions += 1;
    taken.cycles += 1 + b.hazard + timing_.taken_branch_penalty;
    taken.load_use_stall_cycles += b.hazard;
    taken.branch_stall_cycles += timing_.taken_branch_penalty;
    taken.taken_branches += 1;
    PerfCounters fall = pacc;
    fall.instructions += 1;
    fall.cycles += 1 + b.hazard;
    fall.load_use_stall_cycles += b.hazard;
    fall.not_taken_branches += 1;
    plan.iter_perf = taken;
    plan.exit_perf = fall;
    // The op before op[0] on later iterations is the branch — never a
    // load — so both wrap_hazard and the exit last-load slot stay 0.
  }
  return true;
}

u64 Core::superblock_enter(addr_t start, addr_t branch_pc, u64 budget) {
  // The ungated config broadcasts EX-stage operands per instruction (a
  // power-model effect the batched loop can't reproduce), and reference
  // dispatch / tracing want the plain interpreters.
  if (!cfg_.superblock || !cfg_.clock_gating) return 0;
  const int l = branch_pc == 0 ? live_loop_at(start) : -1;
  SuperblockPlan* plan = l >= 0 ? sb_find_loop(static_cast<unsigned>(l))
                                : sb_find(start);
  if (plan == nullptr) {
    for (const auto& r : sb_rejects_) {
      if (r.first == start) return 0;
    }
    plan = sb_compile(start, branch_pc);
    if (plan == nullptr) return 0;
  }
  if (l >= 0 && plan->shape != SbShape::kGeneric) {
    // A whole-run shape entered from interpreted code (an im2col copy
    // between the per-pixel glue): retire the loop without a burst.
    u32 lld = last_load_data_;
    u64 toggles = 0;
    if (const u64 r = sb_enter_whole(*plan, static_cast<unsigned>(l), budget,
                                     perf_.cycles, lld, toggles, false)) {
      last_load_data_ = lld;
      perf_.lsu_data_toggles += toggles;
      return r;
    }
  }
  return sb_execute(*plan, budget);
}

namespace {

/// Reserve the burst-sink entries of a whole run at once and write the op
/// loop's coordinates: its memory ops are ops [0, m), at first[i] + j *
/// step[i] in iteration j, which starts at t0 + j * c_iter. Both shapes
/// end in a non-load, so wrap_hazard is 0 and only the run's first access
/// carries an entry hazard, `hz` (already in t0).
void log_run(std::vector<BurstAccess>& sink, const SuperblockPlan& p, u64 k,
             unsigned hz, cycles_t t0, size_t m, const u32* first,
             const u32* step) {
  const size_t at = sink.size();
  sink.resize(at + m * k);
  BurstAccess* out = sink.data() + at;
  const u64 c_iter = p.iter_perf.cycles;
  for (u64 j = 0; j < k; ++j) {
    for (size_t i = 0; i < m; ++i) {
      const SbOp& o = p.ops[i];
      *out++ = {t0 + j * c_iter + p.cycle_prefix[i], p.op_pc[i],
                first[i] + static_cast<u32>(j) * step[i],
                static_cast<u16>(o.hazard), 4,
                static_cast<u8>((o.flags & iflag::kIsStore) != 0)};
    }
  }
  BurstAccess& e = sink[at];
  e.start -= hz;
  e.cycle_delta = static_cast<u16>(hz);
}

}  // namespace

bool Core::sb_run_whole(const SuperblockPlan& p, u64 k, unsigned hz,
                        cycles_t t0, SbLatches& s) {
  const SbOp* const ops = p.ops.data();
  const u32 msize = mem_.size();
  if (p.shape == SbShape::kCopyWords) {
    const SbOp& ld = ops[0];
    const SbOp& st = ops[1];
    const WordStream src = word_stream(regs_[ld.rs1], ld.imm, k, msize);
    const WordStream dst = word_stream(regs_[st.rs1], st.imm, k, msize);
    // A store covers the parcel below it too (a 32-bit instruction
    // starting there), so keep a parcel clear of the decode cache.
    const i64 code_lo = i64{icache_base_} - 2;
    const i64 code_hi = i64{icache_base_} + 2 * i64(icache_valid_.size()) + 2;
    if (!src.ok || !dst.ok || (dst.hi > code_lo && dst.lo < code_hi) ||
        (dst.hi > i64{sb_lo_} && dst.lo < i64{sb_hi_})) {
      return false;
    }
    const u32 first[] = {regs_[ld.rs1], regs_[st.rs1]};
    const u32 step[] = {static_cast<u32>(ld.imm), static_cast<u32>(st.imm)};
    if (burst_sink_ != nullptr) log_run(*burst_sink_, p, k, hz, t0, 2, first, step);
    u32 src_at = first[0];
    u32 dst_at = first[1];
    u32 v = 0;
    u32 lld = s.lld;
    u64 toggles = 0;
    for (u64 j = 0; j < k; ++j) {
      v = mem_.load_unchecked(src_at, 4);
      toggles += hamming_distance(lld, v);
      lld = v;
      mem_.store_unchecked(dst_at, v, 4);
      src_at += step[0];
      dst_at += step[1];
    }
    regs_[ld.rd] = v;
    regs_[ld.rs1] = src_at;
    regs_[st.rs1] = dst_at;
    s.lld = lld;
    s.toggles += toggles;
    return true;
  }
  ConvRun r{};
  const u8 operand[] = {ops[4].rs1, ops[5].rs1, ops[4].rs2, ops[6].rs2};
  for (unsigned i = 0; i < 4; ++i) {
    const SbOp& o = ops[i];
    if (!word_stream(regs_[o.rs1], o.imm, k, msize).ok) return false;
    r.addr[i] = regs_[o.rs1];
    r.step[i] = static_cast<u32>(o.imm);
    r.load[std::find(operand, operand + 4, o.rd) - operand] =
        static_cast<u8>(i);
  }
  if (burst_sink_ != nullptr) {
    log_run(*burst_sink_, p, k, hz, t0, 4, r.addr.data(), r.step.data());
  }
  r.mem = mem_.view(0, msize).data();
  for (unsigned q = 0; q < 4; ++q) r.acc[q] = regs_[ops[4 + q].rd];
  r.accumulate = (ops[4].flags & iflag::kDotAccum) != 0;
  r.lld = s.lld;
  r.dla = s.dla;
  r.dlb = s.dlb;
  conv_run_for(ops[4])(r, k);
  for (unsigned i = 0; i < 4; ++i) regs_[ops[i].rs1] = r.addr[i];
  for (unsigned q = 0; q < 4; ++q) {
    regs_[operand[q]] = r.v[q];
    regs_[ops[4 + q].rd] = r.acc[q];
  }
  s.lld = r.lld;
  s.toggles += r.toggles;
  s.dla = r.dla;
  s.dlb = r.dlb;
  s.dtog += r.dtog;
  s.dops += 4 * k;
  return true;
}

u64 Core::sb_enter_whole(SuperblockPlan& p, unsigned l, u64 budget,
                         cycles_t t0, u32& lld, u64& toggles, bool nested) {
  // The shapes and memory modes sb_execute_impl runs whole (an access
  // hook without a sink, or a contention injector, must see every access
  // in order), a run the budget covers to the loop's end, and the entry
  // guards of a burst.
  const bool conv = p.shape == SbShape::kConvInner && dotp_.clock_gating();
  if (!conv && p.shape != SbShape::kCopyWords) return 0;
  if ((mem_.has_access_hook() && burst_sink_ == nullptr) ||
      mem_.contention_period() != 0 ||
      (p.uses_mixed && p.baked_mpc != mpc_)) {
    return 0;
  }
  const u64 n = p.ops.size();
  const u64 count = hwl_count_[l];
  if (hwl_start_[l] != p.start || hwl_end_[l] != p.end || count == 0 ||
      count > budget / n) {
    return 0;
  }
  const unsigned o = 1 - l;
  if (hwl_count_[o] != 0 &&
      ((hwl_end_[o] > p.start && hwl_end_[o] < p.end) ||
       (hwl_end_[o] == p.end && l != 0))) {
    return 0;
  }
  const unsigned hz =
      last_load_rd_ != 0 && reads_reg(p.ops[0], last_load_rd_)
          ? timing_.load_use_penalty
          : 0;
  // No boundary inside the run is visible: its worst-case end must stay
  // before the sampling deadline or burst horizon (sb_execute_impl's
  // arming bound).
  if (t0 + hz + count * p.iter_perf.cycles + p.max_dyn_iter >=
      std::min(sample_due_, burst_due_)) {
    return 0;
  }
  const unsigned dr = p.dotp_region;
  SbLatches s{};
  s.lld = lld;
  if (conv) {
    s.dla = dotp_.latch_a(dr);
    s.dlb = dotp_.latch_b(dr);
  }
  if (!sb_run_whole(p, count, hz, t0 + hz, s)) return 0;
  perf_.cycles += hz;
  perf_.load_use_stall_cycles += hz;
  p.pending_iters += count;
  p.pending_runs += 1;
  if (nested) {
    perf_.cycles += count * p.iter_perf.cycles;
  } else {
    sb_settle(p, true);
  }
  hwl_count_[l] = 0;
  update_hwl_active();
  pc_ = p.end;
  last_load_rd_ = p.exit_last_load_rd;
  lld = s.lld;
  toggles += s.toggles;
  if (conv) {
    dotp_.set_latches(dr, s.dla, s.dlb);
    dotp_.add_activity(dr, s.dtog, s.dops);
  }
  return n * count;
}

void Core::sb_settle(SuperblockPlan& p, bool with_cycles) {
  const u64 k = p.pending_iters;
  PerfCounters d = p.iter_perf;
  if (!with_cycles) d.cycles = 0;
  add_scaled(perf_, d, k);
  // Each run's final iteration falls through instead of taking the
  // backedge.
  perf_.hwloop_backedges -= p.pending_runs;
  mem_.add_counts(p.iter_mem, k);
  sb_stats_.entries += p.pending_runs;
  sb_stats_.nested_entries += with_cycles ? 0 : p.pending_runs;
  sb_stats_.whole_runs += p.pending_runs;
  sb_stats_.fused_iterations += k;
  if (p.shape == SbShape::kConvInner) sb_stats_.macro_iterations += k;
  sb_stats_.fused_instructions += p.ops.size() * k;
  p.pending_iters = p.pending_runs = 0;
}

void Core::sb_settle_inner(SuperblockPlan& plan) {
  for (SuperblockPlan& body : plan.inner) {
    if (body.pending_runs != 0) sb_settle(body, false);
  }
}

void Core::sb_exit(SuperblockPlan& plan) {
  sb_active_ = nullptr;
  if (plan.dead) {
    sb_erase(plan);
    sb_recompute_extent();
  }
  sb_active_dirty_ = false;
}

u64 Core::sb_execute(SuperblockPlan& plan, u64 budget) {
  // Sampled bursts pay per-iteration (and, near the deadline, per-op)
  // boundary checks; unsampled bursts compile to the pre-xtel loop. A
  // cluster burst horizon (burst_due_, set by run_burst) rides the same
  // deadline mechanism — whichever comes first is the effective due.
  const cycles_t due = std::min(sample_due_, burst_due_);
  return due != kNoSampleDue ? sb_execute_impl<true>(plan, budget)
                             : sb_execute_impl<false>(plan, budget);
}

template <bool Sampled>
u64 Core::sb_execute_impl(SuperblockPlan& plan, u64 budget, bool nested) {
  const size_t n = plan.ops.size();
  const u64 per_iter = n + (plan.is_hwloop ? 0 : 1);

  // Mixed-format plans bake the precision-status selector into their dot
  // ops. mpc writes evict them, so a mismatch here should be unreachable —
  // but a stale plan misfusing silently would be a correctness bug, so
  // reject defensively and let the interpreter (and a recompile) take over.
  if (plan.uses_mixed && plan.baked_mpc != mpc_) [[unlikely]] {
    sb_stats_.entry_rejects += 1;
    return 0;
  }

  // Entry guards: the cached plan is keyed by its start address; verify
  // the *current* machine state still matches the structure it was
  // compiled for, else fall back to the interpreter for this visit.
  int l = -1;
  if (plan.is_hwloop) {
    if (hwl_start_[0] == plan.start && hwl_end_[0] == plan.end &&
        hwl_count_[0] > 0) {
      l = 0;
    } else if (hwl_start_[1] == plan.start && hwl_end_[1] == plan.end &&
               hwl_count_[1] > 0) {
      l = 1;
    } else {
      sb_stats_.entry_rejects += 1;
      return 0;
    }
    // The other loop must not claim an instruction boundary inside the
    // block: the interpreter services L0 before L1 at every boundary, so
    // a shared end address is only safe when we fused L0.
    const unsigned o = 1 - static_cast<unsigned>(l);
    if (hwl_count_[o] != 0) {
      const addr_t oe = hwl_end_[o];
      if ((oe > plan.start && oe < plan.end) || (oe == plan.end && l != 0)) {
        sb_stats_.entry_rejects += 1;
        return 0;
      }
    }
  } else if (hwl_active_) {
    // A live hardware loop could take a backedge at any boundary inside
    // the block; the plan has no hwloop checks compiled in.
    sb_stats_.entry_rejects += 1;
    return 0;
  }

  u64 iters = budget / per_iter;
  u64 count_entry = 0;
  if (plan.is_hwloop) {
    count_entry = hwl_count_[l];
    iters = std::min<u64>(iters, count_entry);
  }
  if (iters == 0) return 0;  // budget smaller than one iteration

  sb_stats_.entries += 1;
  if (nested) {
    // An inner loop of the active plan: that plan stays the one stores
    // and evictions check against, and it owns this plan's storage.
    sb_stats_.nested_entries += 1;
  } else {
    sb_active_ = &plan;
    sb_active_dirty_ = false;
  }

  // op[0]'s load-use hazard against the live entry context (first
  // iteration only; afterwards it wraps around statically).
  const SbOp* const ops = plan.ops.data();
  unsigned hz0 = 0;
  if (last_load_rd_ != 0) {
    const SbOp& first = n != 0 ? ops[0] : plan.branch;
    if (reads_reg(first, last_load_rd_)) hz0 = timing_.load_use_penalty;
  }

  // Burst-local hoisting. None of the ops a plan can contain reach these
  // core members except the inlined kMem/kDotp bodies below (kMem never
  // compiles to kHandler, note_dotp is only called from the dotp fast
  // path, and broadcast_operands only runs ungated — excluded at entry),
  // so they can live in host registers for the whole burst and be flushed
  // once at every exit (and around every inner loop):
  //   - the LSU data latch and its toggle count;
  //   - the operand latches of the block's single dot-product region.
  // The memory model's dynamic stall sources are loop-invariant too: with
  // no hook and no contention injector, an aligned in-bounds access costs
  // zero stalls and nothing else in access_stalls() can fire.
  const u32 msize = mem_.size();
  const u8* const host = mem_.view(0, msize).data();
  // A burst sink restores slim eligibility under an access hook: the
  // cluster's burst phase installs a hook that only logs and returns zero
  // stalls, so the slim path's "aligned in-bounds accesses are stall-free"
  // invariant (and max_dyn_iter's dynamic bound) hold again — the slim
  // fast path then appends each access directly to the sink with the same
  // exact coordinates the hook latches would have carried, skipping the
  // per-access std::function dispatch entirely.
  const bool sink_log = burst_sink_ != nullptr;
  const bool mem_slim =
      (!mem_.has_access_hook() || sink_log) &&
      mem_.contention_period() == 0;
  // With an access hook installed (cluster runs) the slim path is off, so
  // every access flows through access_stalls() (pv.qnt's threshold
  // fetches through QuantUnit::execute_stalls).
  // Latch the exact reference coordinates (pc, instruction-start cycle,
  // access cycle) the hook reads via access_pc()/access_start()/
  // access_cycle() — the same cycle-prefix arithmetic as the repair, plus
  // the op's own hazard, which the step paths charge before the access.
  const bool latch = mem_.has_access_hook();

  // Sampling: the run loop fires at instruction boundaries before entering
  // a burst, so cycles < due here. The true cycle count at any boundary
  // inside the burst is perf_.cycles (entry value + eager dynamic charges)
  // + done * iter_cycles (batched statics of completed iterations)
  // + the current iteration's static cycle prefix — exactly the repair
  // arithmetic, so a deadline crossing is detected at the same boundary
  // the interpreter would sample at. An iteration whose worst-case end
  // cannot reach the deadline ("unarmed") runs at full fused speed; with
  // an access hook or contention injector the dynamic bound does not hold
  // and every iteration is armed.
  const cycles_t due =
      Sampled ? std::min(sample_due_, burst_due_) : kNoSampleDue;
  // Attribution of deadline flushes: a strictly-earlier burst horizon is
  // the binding deadline (burst_flushes); otherwise the sampler is.
  const bool burst_bound = Sampled && burst_due_ < sample_due_;
  const u64 c_iter = plan.iter_perf.cycles;
  const u64 max_dyn = mem_slim ? plan.max_dyn_iter : (~u64{0} >> 1);
  u32 lld = last_load_data_;
  u64 toggles = 0;
  const unsigned dr = plan.dotp_region;
  const bool hoist_dotp = dr != 0xff && dotp_.clock_gating();
  u32 dla = 0, dlb = 0;
  u64 dtog = 0, dops = 0;
  const auto load_latches = [&]() {
    lld = last_load_data_;
    if (hoist_dotp) {
      dla = dotp_.latch_a(dr);
      dlb = dotp_.latch_b(dr);
    }
  };
  const auto flush = [&]() {
    last_load_data_ = lld;
    perf_.lsu_data_toggles += toggles;
    toggles = 0;
    if (hoist_dotp) {
      dotp_.set_latches(dr, dla, dlb);
      dotp_.add_activity(dr, dtog, dops);
      dtog = dops = 0;
    }
  };
  load_latches();

  // Whole runs of the kConvInner and kCopyWords shapes need the slim
  // memory path (an access hook or contention injector must observe every
  // access in order) and, for kConvInner, the hoisted dot latches;
  // otherwise the generic op loop serves.
  const bool whole =
      mem_slim && ((plan.shape == SbShape::kConvInner && hoist_dotp) ||
                   plan.shape == SbShape::kCopyWords);

  // The static accounting of completed iterations is applied ONCE at burst
  // exit, scaled by `done` (it is linear in the iteration count); only
  // dynamic effects (memory stalls, toggles, handler-internal latencies,
  // inner loops) touch the counters inside the loop. Same for the
  // hardware-loop count register. Every exit path below — completion,
  // budget, SMC bail, trap — therefore finishes with the batched add
  // before leaving.
  u64 done = 0;      // completed iterations (incl. a final not-taken one)
  u64 macro_done = 0;  // of which kConvInner ones in whole runs
  u64 retired = 0;   // instructions retired by this plan's own ops
  u64 inner_retired = 0;  // and by its inner loops
  size_t i = 0;      // op cursor, read by the trap-repair path
  bool fell_through = false;  // branch plans: exited via the not-taken side
  bool exhausted = false;     // hwloop plans: final iteration retired
  // Batched static cycles lent to perf_.cycles while an inner loop's
  // burst runs (nonzero only then: it includes the lp.setup's cycle).
  u64 lent = 0;
  // The cycle count at the start of the current iteration, and at the
  // boundary before its op k.
  const auto iter_start = [&] { return perf_.cycles + done * c_iter; };
  const auto cycle_at = [&](size_t k) {
    return iter_start() + plan.cycle_prefix[k];
  };
  const auto leave = [&]() {
    if (!nested) sb_exit(plan);
  };
  try {
    for (;;) {
      // Per-iteration guards, checked at the block-start boundary: a
      // store from a previous iteration hit this block, or a trace hook
      // attached mid-burst (possible only via a handler side effect —
      // cheap to check, so check it anyway).
      if (done != 0 && (sb_active_dirty_ || trace_)) [[unlikely]] {
        pc_ = plan.start;
        last_load_rd_ = plan.is_hwloop ? plan.exit_last_load_rd : 0;
        break;
      }
      if constexpr (Sampled) {
        // Iteration-start boundary: the previous iteration's final op or
        // backedge crossed the deadline. Identical repair to the dirty
        // bail above — the run loop fires the sample at this boundary.
        if (done != 0 && iter_start() >= due) [[unlikely]] {
          pc_ = plan.start;
          last_load_rd_ = plan.is_hwloop ? plan.exit_last_load_rd : 0;
          (burst_bound ? sb_stats_.burst_flushes : sb_stats_.sample_flushes) +=
              1;
          break;
        }
      }
      const unsigned hz = done == 0 ? hz0 : plan.wrap_hazard;
      if (hz != 0) {
        perf_.cycles += hz;
        perf_.load_use_stall_cycles += hz;
      }

      // Armed: this iteration's worst case can reach the deadline, so run
      // the generic loop with per-op boundary checks instead of the
      // whole run (whose intermediate boundaries are not visible).
      bool armed = false;
      if constexpr (Sampled) {
        armed = iter_start() + c_iter + max_dyn >= due;
      }
      bool sample_break = false;
      bool inner_stop = false;  // an inner loop's burst stopped early

      if (whole && !armed) {
        // The iterations left in the run, or (sampled) the ones that
        // cannot reach the deadline.
        u64 k = iters - done;
        if constexpr (Sampled) {
          k = std::min(k, (due - 1 - max_dyn - perf_.cycles) / c_iter - done);
        }
        // One host loop for the k iterations, after one check per access
        // stream: a misaligned stream or one leaving memory (or, for the
        // copy, a store that could reach cached code or a plan) returns
        // false, touching nothing, and the op loop below stalls, faults
        // and invalidates exactly.
        SbLatches st{lld, 0, dla, dlb, 0, 0};
        if (sb_run_whole(plan, k, hz, iter_start(), st)) {
          lld = st.lld;
          toggles += st.toggles;
          dla = st.dla;
          dlb = st.dlb;
          dtog += st.dtog;
          dops += st.dops;
          if (plan.shape == SbShape::kConvInner) macro_done += k;
          sb_stats_.whole_runs += 1;
          retired += n * k;
          done += k;
          if (done == iters) {
            exhausted = done == count_entry;
            pc_ = exhausted ? plan.end : plan.start;
            last_load_rd_ = plan.exit_last_load_rd;
            break;
          }
          continue;  // the next iteration is armed
        }
      }

      size_t completed = n;
      for (i = 0; i < n; ++i) {
        const SbOp& o = ops[i];
        const u32 imm = static_cast<u32>(o.imm);
        switch (o.kind) {
          case SbKind::kConst:
            set_reg(o.rd, static_cast<u32>(o.imm));
            break;
          case SbKind::kAddImm: set_reg(o.rd, alu<AluFn::kAdd>(regs_[o.rs1], imm)); break;
          case SbKind::kSltImm: set_reg(o.rd, alu<AluFn::kSlt>(regs_[o.rs1], imm)); break;
          case SbKind::kSltuImm: set_reg(o.rd, alu<AluFn::kSltu>(regs_[o.rs1], imm)); break;
          case SbKind::kXorImm: set_reg(o.rd, alu<AluFn::kXor>(regs_[o.rs1], imm)); break;
          case SbKind::kOrImm: set_reg(o.rd, alu<AluFn::kOr>(regs_[o.rs1], imm)); break;
          case SbKind::kAndImm: set_reg(o.rd, alu<AluFn::kAnd>(regs_[o.rs1], imm)); break;
          case SbKind::kSllImm: set_reg(o.rd, alu<AluFn::kSll>(regs_[o.rs1], imm)); break;
          case SbKind::kSrlImm: set_reg(o.rd, alu<AluFn::kSrl>(regs_[o.rs1], imm)); break;
          case SbKind::kSraImm: set_reg(o.rd, alu<AluFn::kSra>(regs_[o.rs1], imm)); break;
          case SbKind::kAdd: set_reg(o.rd, alu<AluFn::kAdd>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kSub: set_reg(o.rd, alu<AluFn::kSub>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kSlt: set_reg(o.rd, alu<AluFn::kSlt>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kSltu: set_reg(o.rd, alu<AluFn::kSltu>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kXor: set_reg(o.rd, alu<AluFn::kXor>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kOr: set_reg(o.rd, alu<AluFn::kOr>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kAnd: set_reg(o.rd, alu<AluFn::kAnd>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kSll: set_reg(o.rd, alu<AluFn::kSll>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kSrl: set_reg(o.rd, alu<AluFn::kSrl>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kSra: set_reg(o.rd, alu<AluFn::kSra>(regs_[o.rs1], regs_[o.rs2])); break;
          case SbKind::kMac: {
            const u32 prod = regs_[o.rs1] * regs_[o.rs2];
            set_reg(o.rd, o.aux ? regs_[o.rd] - prod : regs_[o.rd] + prod);
            break;
          }
          case SbKind::kExtract:
            set_reg(o.rd, static_cast<u32>(sign_extend(regs_[o.rs1] >> o.aux, imm)));
            break;
          case SbKind::kExtractu:
            set_reg(o.rd, zero_extend(regs_[o.rs1] >> o.aux, imm));
            break;
          case SbKind::kInsert:
            set_reg(o.rd, insert_bits(regs_[o.rd], regs_[o.rs1], o.aux, imm));
            break;
          case SbKind::kClip:
            set_reg(o.rd, static_cast<u32>(sat_signed(static_cast<i32>(regs_[o.rs1]), imm)));
            break;
          case SbKind::kClipu:
            set_reg(o.rd, sat_unsigned(static_cast<i32>(regs_[o.rs1]), imm));
            break;
          case SbKind::kPulpAlu:
            set_reg(o.rd, pulp_alu(o.op, regs_[o.rs1], regs_[o.rs2]));
            break;
          case SbKind::kSimdAlu:
            set_reg(o.rd, dotp_.alu_op(o.op, o.fmt, regs_[o.rs1], regs_[o.rs2]));
            break;
          case SbKind::kSimdElem:
            set_reg(o.rd, simd_elem_op(o.op, o.fmt, o.imm, regs_[o.rs1],
                                       regs_[o.rs2], regs_[o.rd]));
            break;
          case SbKind::kQnt: {
            // Both trees read from host memory after one alignment and
            // bounds check of the pair, or, when that fails or an access
            // must be seen (contention injector, hook without a sink),
            // QuantUnit's stalls-only path, which walks first — a tree
            // leaving memory traps before any charge — then accounts each
            // fetch through access_stalls.
            const unsigned q = o.aux;
            const addr_t tree = regs_[o.rs2];
            u32 r = 0;
            if (mem_slim && (tree & 1) == 0 &&
                QuantUnit::trees_end(tree, q) <= msize) [[likely]] {
              addr_t nodes[2][4];
              r = QuantUnit::quantize_pair(
                  [host](addr_t a) {
                    u16 t;
                    std::memcpy(&t, host + a, 2);
                    return t;
                  },
                  regs_[o.rs1], tree, q, nodes);
              if (sink_log) {
                // QuantUnit's interleaved fetch order, at the
                // coordinates the access hook would have latched.
                const cycles_t start = cycle_at(i) - (i == 0 ? hz : 0);
                const u16 delta = static_cast<u16>(i == 0 ? hz : o.hazard);
                for (unsigned level = 0; level < q; ++level) {
                  for (const addr_t a : {nodes[0][level], nodes[1][level]}) {
                    burst_sink_->push_back(
                        {start, plan.op_pc[i], a, delta, 2, 0});
                  }
                }
              }
            } else {
              if (latch) {
                hook_pc_ = plan.op_pc[i];
                hook_start_ = cycle_at(i) - (i == 0 ? hz : 0);
                hook_cycle_ = hook_start_ + (i == 0 ? hz : o.hazard);
              }
              const QuantResult res =
                  qnt_.execute_stalls(mem_, regs_[o.rs1], tree, q);
              r = res.rd;
              if (res.mem_stalls != 0) {
                perf_.cycles += res.mem_stalls;
                perf_.mem_stall_cycles += res.mem_stalls;
              }
            }
            set_reg(o.rd, r);
            break;
          }
          case SbKind::kMem: {
            const u16 f = o.flags;
            const bool store = (f & iflag::kIsStore) != 0;
            const u32 base = regs_[o.rs1];
            const u32 off = (f & iflag::kMemRegOff)
                                ? regs_[store ? o.rd : o.rs2]
                                : static_cast<u32>(o.imm);
            const addr_t addr =
                (f & iflag::kMemPostInc) ? base : base + off;
            // Aligned in-bounds accesses are stall-free in slim mode;
            // everything else (misaligned, out-of-range, hook, contention)
            // takes the full accounting/trapping path.
            if (!(mem_slim && (addr & (o.aux - 1u)) == 0 &&
                  static_cast<u64>(addr) + o.aux <= msize)) [[unlikely]] {
              if (latch) {
                hook_pc_ = plan.op_pc[i];
                hook_start_ = cycle_at(i) - (i == 0 ? hz : 0);
                hook_cycle_ = hook_start_ + (i == 0 ? hz : o.hazard);
              }
              const unsigned stalls = mem_.access_stalls(addr, o.aux, store);
              if (stalls != 0) {
                perf_.cycles += stalls;
                perf_.mem_stall_cycles += stalls;
              }
            } else if (sink_log) {
              // Slim fast path under deferred arbitration: log directly
              // with the exact hook coordinates (misaligned/out-of-range
              // accesses took the access_stalls branch, whose hook call
              // appends to the same log — program order is preserved).
              burst_sink_->push_back(
                  {cycle_at(i) - (i == 0 ? hz : 0), plan.op_pc[i], addr,
                   static_cast<u16>(i == 0 ? hz : o.hazard),
                   static_cast<u8>(o.aux), static_cast<u8>(store)});
            }
            if (store) {
              mem_.store_unchecked(addr, regs_[o.rs2], o.aux);
              icache_invalidate(addr, o.aux);
            } else {
              u32 v = mem_.load_unchecked(addr, o.aux);
              if (f & iflag::kLoadSigned) {
                v = static_cast<u32>(sign_extend(v, o.aux * 8));
              }
              toggles += hamming_distance(lld, v);
              lld = v;
              set_reg(o.rd, v);
            }
            if (f & iflag::kMemPostInc) set_reg(o.rs1, base + off);
            if (store && sb_active_dirty_) [[unlikely]] {
              // Self-modifying store into this very block: stop at the
              // boundary after the store, before any stale decode runs.
              completed = i + 1;
              goto ops_done;
            }
            break;
          }
          case SbKind::kDotp: {
            const u32 a = regs_[o.rs1];
            const u32 b = regs_[o.rs2];
            const u16 f = o.flags;
            const bool sa = (f & iflag::kDotSignedA) != 0;
            const bool sb = (f & iflag::kDotSignedB) != 0;
            const u32 acc = (f & iflag::kDotAccum) ? regs_[o.rd] : 0;
            i32 r = 0;
            if (f & iflag::kDotMixed) {
              // Baked selector (entry guard proved it still equals mpc_).
              switch (o.imm) {
                case 0: r = host_dot<8, 4>(a, b, acc, sa, sb); break;
                case 1: r = host_dot<8, 2>(a, b, acc, sa, sb); break;
                default: r = host_dot<4, 2>(a, b, acc, sa, sb); break;
              }
            } else
            switch (o.fmt) {
              case isa::SimdFmt::kH: r = dotp_lanes<16, false>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kHSc: r = dotp_lanes<16, true>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kB: r = host_dot<8>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kBSc: r = host_dot<8>(a, replicate<8>(b), acc, sa, sb); break;
              case isa::SimdFmt::kN: r = host_dot<4>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kNSc: r = host_dot<4>(a, replicate<4>(b), acc, sa, sb); break;
              case isa::SimdFmt::kC: r = host_dot<2>(a, b, acc, sa, sb); break;
              case isa::SimdFmt::kCSc: r = host_dot<2>(a, replicate<2>(b), acc, sa, sb); break;
              default: break;  // unreachable: validated at compile time
            }
            if (hoist_dotp) {
              dtog += hamming_distance(dla, a) + hamming_distance(dlb, b);
              dla = a;
              dlb = b;
              dops += 1;
            } else {
              dotp_.note_dotp(o.aux, a, b);
            }
            set_reg(o.rd, static_cast<u32>(r));
            break;
          }
          case SbKind::kHandler:  // mul/div: no memory access
            (this->*kExecTable[static_cast<size_t>(o.cls)])(plan.instrs[i]);
            break;
          case SbKind::kInnerLoop: {
            // lp.setup's architectural effect (its static cost is batched
            // like any op's), then the loop's iterations as a nested burst
            // that charges its own accounting to the counters eagerly, with
            // the budget left after this iteration's ops. This plan's
            // pending static cycles through the lp.setup are lent to
            // perf_.cycles meanwhile, so the nested burst's deadlines and
            // access coordinates see the true cycle count.
            SuperblockPlan& body = plan.inner[static_cast<size_t>(o.imm)];
            hwl_start_[o.aux] = body.start;
            hwl_end_[o.aux] = body.end;
            hwl_count_[o.aux] =
                o.op == Mnemonic::kLpSetup ? regs_[o.rs1] : o.rs1;
            hwl_key_[o.aux] = 0;
            update_hwl_active();
            pc_ = body.start;
            last_load_rd_ = 0;
            if constexpr (Sampled) {
              // The boundary after the lp.setup: a burst never checks the
              // one it starts at, so check it here.
              if (cycle_at(i + 1) >= due) {
                (burst_bound ? sb_stats_.burst_flushes
                             : sb_stats_.sample_flushes) += 1;
                inner_stop = true;
                goto ops_done;
              }
            }
            if (hwl_count_[o.aux] == 0) {
              // A zero count runs the body once with no live loop: leave
              // that to the interpreter.
              inner_stop = true;
              goto ops_done;
            }
            const u64 inner_budget = budget - retired - inner_retired - per_iter;
            // A whole-run body runs in place, with this burst's LSU latch
            // (its dot latches unless they are this plan's hoisted ones);
            // any other body, or a run that does not qualify, runs as a
            // nested burst around a latch flush.
            u64 ran = 0;
            if (body.shape != SbShape::kGeneric &&
                !(hoist_dotp && body.dotp_region == dr)) {
              u32 in_lld = lld;
              u64 in_toggles = 0;
              ran = sb_enter_whole(body, o.aux, inner_budget, cycle_at(i + 1),
                                   in_lld, in_toggles, true);
              lld = in_lld;
              toggles += in_toggles;
            }
            if (ran == 0) {
              flush();
              lent = done * c_iter + plan.cycle_prefix[i + 1];
              perf_.cycles += lent;
              ran = sb_execute_impl<Sampled>(body, inner_budget, true);
              perf_.cycles -= lent;
              lent = 0;
              load_latches();
            }
            inner_retired += ran;
            if (pc_ != body.end) {
              // Budget, deadline or an SMC bail stopped it inside the
              // loop: leave this plan right there.
              inner_stop = true;
              goto ops_done;
            }
            if (sb_active_dirty_) [[unlikely]] {
              // Its last store hit this plan: stop after the loop.
              completed = i + 1;
              goto ops_done;
            }
            if constexpr (Sampled) {
              // The loop's cycles were not in the arming bound.
              armed = armed || iter_start() + c_iter + max_dyn >= due;
            }
            break;
          }
          case SbKind::kBranch:
          case SbKind::kCount:
            break;  // unreachable: the terminal branch is not in ops
        }
        if constexpr (Sampled) {
          // Boundary after op i: armed iterations check every one against
          // the deadline (an op that stops the iteration jumps past this:
          // an SMC bail takes precedence, its boundary is the same and the
          // repair identical).
          if (armed && cycle_at(i + 1) >= due) [[unlikely]] {
            if (i + 1 < n) {
              completed = i + 1;
              sample_break = true;
              goto ops_done;
            }
            if (!plan.is_hwloop) {
              // Pre-branch boundary: the interpreter samples before
              // executing the branch; bail below instead of branching.
              sample_break = true;
            }
            // hwloop with i + 1 == n: that boundary is the backedge
            // target, which the next iteration-start check (or the run
            // loop after a normal exit) observes with identical state.
          }
        }
      }
    ops_done:

      if (inner_stop) [[unlikely]] {
        // The inner burst left pc, hardware-loop state and last-load
        // tracking at its exact exit boundary (and counted its cause);
        // add the statics of this iteration's ops through the lp.setup.
        add_prefix(perf_, mem_, plan, i + 1);
        retired += i + 1;
        break;
      }
      if (completed != n) [[unlikely]] {
        // Mid-iteration SMC or sample-deadline bail at an exact boundary:
        // batched statics for the completed ops (the iteration-entry
        // hazard was charged eagerly above), pc at the next op, last-load
        // tracking from the op before it.
        add_prefix(perf_, mem_, plan, completed);
        pc_ = plan.op_pc[completed];
        last_load_rd_ = load_dest(ops[completed - 1]);
        retired += completed;
        if (sample_break) {
          (burst_bound ? sb_stats_.burst_flushes : sb_stats_.sample_flushes) +=
              1;
        } else {
          sb_stats_.smc_bails += 1;
        }
        break;
      }

      if (plan.is_hwloop) {
        retired += n;
        done += 1;
        if (done == iters) {
          exhausted = done == count_entry;
          pc_ = exhausted ? plan.end : plan.start;
          last_load_rd_ = plan.exit_last_load_rd;
          break;
        }
      } else {
        if (sb_active_dirty_ || sample_break) [[unlikely]] {
          // A store in this iteration hit the block with the terminal
          // branch's bytes covered by the invalidation too — or the
          // sampling deadline landed on the pre-branch boundary. Bail at
          // the branch boundary so it re-runs interpreted (from fresh
          // decode / after the sample fires).
          add_prefix(perf_, mem_, plan, n);
          pc_ = plan.op_pc[n];
          if (n != 0) last_load_rd_ = load_dest(ops[n - 1]);
          retired += n;
          if (sb_active_dirty_) {
            sb_stats_.smc_bails += 1;
          } else {
            (burst_bound ? sb_stats_.burst_flushes
                         : sb_stats_.sample_flushes) += 1;
          }
          break;
        }
        const SbOp& b = plan.branch;
        const u32 a = regs_[b.rs1];
        const u32 b2 = regs_[b.rs2];
        bool taken = false;
        switch (b.op) {
          case Mnemonic::kBeq: taken = a == b2; break;
          case Mnemonic::kBne: taken = a != b2; break;
          case Mnemonic::kBlt:
            taken = static_cast<i32>(a) < static_cast<i32>(b2);
            break;
          case Mnemonic::kBge:
            taken = static_cast<i32>(a) >= static_cast<i32>(b2);
            break;
          case Mnemonic::kBltu: taken = a < b2; break;
          case Mnemonic::kBgeu: taken = a >= b2; break;
          case Mnemonic::kPBeqimm: taken = static_cast<i32>(a) == b.imm; break;
          case Mnemonic::kPBneimm: taken = static_cast<i32>(a) != b.imm; break;
          default: break;  // unreachable: validated at compile time
        }
        retired += per_iter;
        done += 1;
        last_load_rd_ = 0;  // the branch is always the last instruction
        if (!taken) {
          fell_through = true;
          pc_ = plan.end;
          break;
        }
        // Inner loops make an iteration's length dynamic: go on while the
        // budget still covers this plan's own ops of one more iteration.
        if (budget - retired - inner_retired < per_iter) {
          pc_ = plan.start;
          break;
        }
      }
    }
  } catch (...) {
    // op[i] trapped mid-iteration. Only memory faults can reach a compiled
    // block (IllegalInstruction is statically excluded at compile time),
    // and MemoryFault carries the address, not the pc — but repair the pc
    // anyway so the machine state equals the interpreter's at the faulting
    // instruction: batched statics for the `done` whole iterations (all
    // taken, for branch plans) and the completed ops of this one, the
    // faulting op's own hazard (the step paths charge it before
    // executing), pc at the op, last-load tracking from its predecessor.
    // A fault inside an inner loop was repaired by its burst, which
    // flushed this plan's latches before it started; only the statics of
    // the ops through its lp.setup remain, and the lent cycles come back.
    const bool in_inner = lent != 0;
    perf_.cycles -= lent;
    if (!in_inner) flush();
    add_scaled(perf_, plan.iter_perf, done);
    mem_.add_counts(plan.iter_mem, done);
    if (plan.is_hwloop) hwl_count_[l] -= static_cast<u32>(done);
    add_prefix(perf_, mem_, plan, in_inner ? i + 1 : i);
    if (in_inner) {
      retired += i + 1;
    } else {
      if (i > 0) {
        const unsigned hzf = ops[i].hazard;
        if (hzf != 0) {
          perf_.cycles += hzf;
          perf_.load_use_stall_cycles += hzf;
        }
        last_load_rd_ = load_dest(ops[i - 1]);
      } else if (done > 0) {
        last_load_rd_ = plan.is_hwloop ? plan.exit_last_load_rd : 0;
      }  // else: entry value, untouched by the burst, is already correct
      pc_ = plan.op_pc[i];
      sb_stats_.trap_bails += 1;
      retired += i;
    }
    sb_stats_.fused_iterations += done;
    sb_stats_.macro_iterations += macro_done;
    sb_stats_.fused_instructions += retired;
    sb_settle_inner(plan);
    leave();
    throw;
  }

  // Batched static accounting of the completed iterations.
  flush();
  add_scaled(perf_, plan.iter_perf, done - (fell_through ? 1 : 0));
  if (fell_through) add_scaled(perf_, plan.exit_perf, 1);
  mem_.add_counts(plan.iter_mem, done);
  if (plan.is_hwloop) {
    hwl_count_[l] -= static_cast<u32>(done);
    if (exhausted) {
      // The final iteration falls through instead of taking the backedge.
      perf_.hwloop_backedges -= 1;
      update_hwl_active();
    }
  }
  sb_stats_.fused_iterations += done;
  sb_stats_.macro_iterations += macro_done;
  sb_stats_.fused_instructions += retired;
  sb_settle_inner(plan);
  leave();
  return retired + inner_retired;
}

}  // namespace xpulp::sim
