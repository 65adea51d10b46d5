// Generator for the convolution kernel programs (see conv_layer.hpp for the
// variant catalogue). The structure follows PULP-NN:
//
//   entry:  j main
//   matmul: the 2x2 matrix-multiplication subroutine (2 filters x 2
//           pixels, 4 accumulators) — runtime loop over output-channel
//           pairs, hardware inner loop over the filter,
//           re-quantization + packed store of 4 outputs per iteration
//   main:   for every output-pixel pair (specialized at generation time,
//           baking in the zero-padding pattern): im2col into two column
//           buffers, set output pointers, call matmul. Then ecall.
//
// Register map (shared by all variants):
//   a0/a1   weight pointers (filters oc, oc+1)
//   a2/a3   im2col buffer pointers
//   a4..a7  accumulators acc00 acc01 acc10 acc11  (accXY: filter X, pixel Y)
//   s0      threshold pointer (current channel)   s1/s2  output pointers
//   s3      channel-pair loop counter             s4     inner-loop count
//   s5/s6   quantization scratch / packing fragments
//   t0..t6, s7..s11  inner-loop and unpack temporaries
#include <algorithm>
#include <cassert>
#include <functional>

#include "common/error.hpp"
#include "kernels/conv_layer.hpp"

namespace xpulp::kernels {

namespace {

namespace r = xasm::reg;
using isa::SimdFmt;
using xasm::Assembler;
using Label = Assembler::Label;

SimdFmt fmt_for_bits(unsigned bits) {
  switch (bits) {
    case 8: return SimdFmt::kB;
    case 4: return SimdFmt::kN;
    case 2: return SimdFmt::kC;
    default: throw SimError("unsupported SIMD element width");
  }
}

struct Gen {
  Assembler a;
  const qnn::ConvSpec& spec;
  ConvVariant variant;
  ConvGenOptions opts;
  ConvMemLayout lay;
  obs::RegionMap regions;

  Gen(const qnn::ConvSpec& s, ConvVariant v, addr_t data_base,
      const ConvGenOptions& o)
      : a(o.code_base),
        spec(s),
        variant(v),
        opts(o),
        lay(ConvMemLayout::plan(
            s, v, data_base, o.buffer_slots,
            o.stream_weights ? ch_end() - ch_begin() : 0)) {}

  addr_t buf0_addr() const {
    return lay.buf0 + lay.buffer_slot_stride() *
                          static_cast<u32>(opts.buffer_slot);
  }
  addr_t buf1_addr() const {
    return lay.buf1 + lay.buffer_slot_stride() *
                          static_cast<u32>(opts.buffer_slot);
  }

  bool two_pixels() const { return opts.pixel_block == 2; }

  /// Wrap the dot-product loop body in either a zero-overhead hardware
  /// loop or (ablation) a decrement-and-branch loop. The software loop
  /// borrows tp (x4) as its counter -- no kernel code touches it.
  void emit_inner_loop(const std::function<void()>& body) {
    if (opts.use_hwloops) {
      const Label end = a.new_label();
      a.lp_setup(0, r::s4, end);
      body();
      a.bind(end);
    } else {
      a.mv(r::tp, r::s4);
      const Label loop = a.here();
      body();
      a.addi(r::tp, r::tp, -1);
      a.bne(r::tp, r::zero, loop);
    }
  }

  /// Counted loop for the im2col copy/fill/unpack helpers: a hardware
  /// loop when enabled, otherwise the same tp-counted decrement-and-branch
  /// as the ablation inner loop. `count_scratch` holds the iteration count
  /// when it does not fit lp.setupi's 5-bit immediate.
  void emit_counted_loop(u32 count, u8 count_scratch,
                         const std::function<void()>& body) {
    if (opts.use_hwloops) {
      const Label end = a.new_label();
      if (count <= 31) {
        a.lp_setupi(0, count, end);
      } else {
        a.li(count_scratch, static_cast<i32>(count));
        a.lp_setup(0, count_scratch, end);
      }
      body();
      a.bind(end);
    } else {
      a.li(r::tp, static_cast<i32>(count));
      const Label loop = a.here();
      body();
      a.addi(r::tp, r::tp, -1);
      a.bne(r::tp, r::zero, loop);
    }
  }

  bool is_baseline_sub() const {
    return variant == ConvVariant::kXpulpV2_Sub ||
           variant == ConvVariant::kXpulpV2_SubShf;
  }
  bool shuffle_unpack() const {
    return variant == ConvVariant::kXpulpV2_SubShf;
  }
  bool is_8bit() const { return variant == ConvVariant::kXpulpV2_8b; }
  bool is_mixed() const { return variant == ConvVariant::kXpulpNN_Mixed; }
  /// Mixed sub-byte outputs use pv.qnt: the core has XpulpNN by
  /// construction, and the threshold staircase is orthogonal to the mixed
  /// operand formats.
  bool hw_quant() const {
    return variant == ConvVariant::kXpulpNN_HwQ ||
           (is_mixed() && out_bits() != 8);
  }

  unsigned out_bits() const { return spec.out_bits; }
  unsigned in_bits() const { return spec.in_bits; }

  /// Elements consumed per inner-loop iteration: one 32-bit word of packed
  /// weights (32 / w_bits), except mixed kernels which pace on the
  /// *activation* word (32 / in_bits lanes; the grouped weight word covers
  /// the same lanes in its low bits).
  unsigned elems_per_iter() const {
    return 32 / (is_mixed() ? spec.in_bits : spec.w_bits);
  }
  unsigned inner_iters() const {
    return (static_cast<unsigned>(spec.filter_elems()) + elems_per_iter() - 1) /
           elems_per_iter();
  }

  /// Bytes per input pixel's channel block in the packed input image.
  u32 in_pixel_bytes() const {
    return static_cast<u32>(spec.in_c) * in_bits() / 8;
  }
  /// Bytes per pixel block in the im2col buffer (baseline unpacks to 8-bit).
  u32 buf_pixel_bytes() const {
    return is_baseline_sub() ? static_cast<u32>(spec.in_c)
                             : in_pixel_bytes();
  }
  addr_t input_pixel_addr(int y, int x) const {
    return lay.input + static_cast<u32>(y * spec.in_w + x) * in_pixel_bytes();
  }
  int ch_begin() const { return std::clamp(opts.ch_begin, 0, spec.out_c); }
  int ch_end() const {
    return opts.ch_end < 0 ? spec.out_c : std::min(opts.ch_end, spec.out_c);
  }

  addr_t output_pixel_addr(int oy, int ox) const {
    return lay.output +
           static_cast<u32>((oy * spec.out_w() + ox) * spec.out_c +
                            ch_begin()) *
               out_bits() / 8;
  }

  // ---------- im2col ----------

  /// Zero `words` words at the post-incrementing destination pointer t3.
  void emit_zero_fill(u32 words) {
    if (words == 0) return;
    if (words <= 4) {
      for (u32 i = 0; i < words; ++i) a.p_sw_post(r::zero, r::t3, 4);
      return;
    }
    // Hardware-loop body must be >= 2 instructions: store two words/iter.
    emit_counted_loop(words / 2, r::t4, [&] {
      a.p_sw_post(r::zero, r::t3, 4);
      a.p_sw_post(r::zero, r::t3, 4);
    });
    if (words % 2) a.p_sw_post(r::zero, r::t3, 4);
  }

  /// Copy `words` packed words from `src_addr` to the destination pointer
  /// t3 (ext variants: buffers stay packed).
  void emit_copy(addr_t src_addr, u32 words) {
    if (words == 0) return;
    a.li(r::t0, static_cast<i32>(src_addr));
    if (words <= 2) {
      for (u32 i = 0; i < words; ++i) {
        a.p_lw_post(r::t1, r::t0, 4);
        a.p_sw_post(r::t1, r::t3, 4);
      }
      return;
    }
    emit_counted_loop(words, r::t4, [&] {
      a.p_lw_post(r::t1, r::t0, 4);
      a.p_sw_post(r::t1, r::t3, 4);
    });
  }

  /// Baseline sub-byte: copy + unpack `packed_words` words of Q-bit codes
  /// into bytes at t3 (2 or 4 output words per packed word).
  void emit_copy_unpack(addr_t src_addr, u32 packed_words) {
    if (packed_words == 0) return;
    const unsigned q = in_bits();
    const unsigned per_word = 32 / q;       // elements in a packed word
    const unsigned out_words = per_word / 4;  // byte-words produced
    a.li(r::t0, static_cast<i32>(src_addr));

    auto body = [&] {
      a.p_lw_post(r::t1, r::t0, 4);
      for (unsigned ow = 0; ow < out_words; ++ow) {
        for (unsigned j = 0; j < 4; ++j) {
          const unsigned elem = ow * 4 + j;
          // Activations are unsigned codes: zero-extending extract.
          a.p_extractu(r::t4, r::t1, q, elem * q);
          a.p_insert(r::t2, r::t4, 8, j * 8);
        }
        a.p_sw_post(r::t2, r::t3, 4);
      }
    };

    if (packed_words <= 2) {
      for (u32 i = 0; i < packed_words; ++i) body();
      return;
    }
    emit_counted_loop(packed_words, r::t5, body);
  }

  /// Emit the im2col block for output pixel (oy, ox) into buffer at
  /// `buf_addr`. Padding rows/columns are zero-filled; the pattern is baked
  /// in at generation time (positions are compile-time constants, as in a
  /// fully specialized kernel).
  void emit_im2col(int oy, int ox, addr_t buf_addr) {
    a.li(r::t3, static_cast<i32>(buf_addr));
    const u32 pix_words = buf_pixel_bytes() / 4;
    for (int ky = 0; ky < spec.k_h; ++ky) {
      const int y = oy * spec.stride - spec.pad + ky;
      const int x0 = ox * spec.stride - spec.pad;
      if (y < 0 || y >= spec.in_h) {
        emit_zero_fill(static_cast<u32>(spec.k_w) * pix_words);
        continue;
      }
      const int left = std::max(0, -x0);
      const int right = std::max(0, x0 + spec.k_w - spec.in_w);
      const int mid = spec.k_w - left - right;
      emit_zero_fill(static_cast<u32>(left) * pix_words);
      if (mid > 0) {
        const addr_t src = input_pixel_addr(y, x0 + left);
        if (is_baseline_sub()) {
          emit_copy_unpack(src,
                           static_cast<u32>(mid) * in_pixel_bytes() / 4);
        } else {
          emit_copy(src, static_cast<u32>(mid) * pix_words);
        }
      }
      emit_zero_fill(static_cast<u32>(right) * pix_words);
    }
  }

  // ---------- matmul inner loops ----------

  /// Extended-core inner loop: packed operands, sub-byte (or byte) SIMD
  /// sdot; 8 instructions per weight word, 4 accumulators (2x1 blocking:
  /// 6 instructions, 2 accumulators).
  void emit_inner_ext() {
    if (is_mixed()) {
      // Virtual mixed dot product: operand widths come from the mpc CSR
      // (written once in the prologue), so the instruction itself is
      // format-free. Same 2x2 blocking (pixel_block 2) as the uniform
      // loop; one activation word + one grouped weight word per filter
      // per iteration.
      if (two_pixels()) {
        emit_inner_loop([&] {
          a.p_lw_post(r::t0, r::a0, 4);  // w0 (grouped)
          a.p_lw_post(r::t1, r::a1, 4);  // w1 (grouped)
          a.p_lw_post(r::t2, r::a2, 4);  // x0
          a.p_lw_post(r::t3, r::a3, 4);  // x1
          a.pv_mlsdotusp(r::a4, r::t2, r::t0);
          a.pv_mlsdotusp(r::a5, r::t3, r::t0);
          a.pv_mlsdotusp(r::a6, r::t2, r::t1);
          a.pv_mlsdotusp(r::a7, r::t3, r::t1);
        });
      } else {
        emit_inner_loop([&] {
          a.p_lw_post(r::t2, r::a2, 4);  // x
          a.p_lw_post(r::t0, r::a0, 4);  // w0
          a.p_lw_post(r::t1, r::a1, 4);  // w1
          a.pv_mlsdotusp(r::a4, r::t2, r::t0);
          a.pv_mlsdotusp(r::a6, r::t2, r::t1);
        });
      }
      return;
    }
    const SimdFmt f = fmt_for_bits(spec.w_bits);
    if (two_pixels()) {
      emit_inner_loop([&] {
        a.p_lw_post(r::t0, r::a0, 4);  // w0
        a.p_lw_post(r::t1, r::a1, 4);  // w1
        a.p_lw_post(r::t2, r::a2, 4);  // x0
        a.p_lw_post(r::t3, r::a3, 4);  // x1
        a.pv_sdotusp(f, r::a4, r::t2, r::t0);
        a.pv_sdotusp(f, r::a5, r::t3, r::t0);
        a.pv_sdotusp(f, r::a6, r::t2, r::t1);
        a.pv_sdotusp(f, r::a7, r::t3, r::t1);
      });
    } else {
      emit_inner_loop([&] {
        a.p_lw_post(r::t2, r::a2, 4);  // x
        a.p_lw_post(r::t0, r::a0, 4);  // w0
        a.p_lw_post(r::t1, r::a1, 4);  // w1
        a.pv_sdotusp(f, r::a4, r::t2, r::t0);
        a.pv_sdotusp(f, r::a6, r::t2, r::t1);
      });
    }
  }

  /// Unpack one packed sub-byte weight word in `src` into byte-words
  /// dst[0..n-1] using sign-extending extract + insert (the packing tax the
  /// paper eliminates). `tmp` is a scratch register.
  void emit_unpack_weights(u8 src, const std::vector<u8>& dst, u8 tmp) {
    if (shuffle_unpack()) {
      // Optimistic-baseline ablation: spread nibble pairs with pv.shuffle,
      // then sign-extend in-lane with a shift pair. Constant registers
      // (initialized once per subroutine): s8 = low-half lane selectors,
      // s9 = high-half selectors, s10 = per-lane left shifts, s11 = 4.
      for (unsigned ow = 0; ow < dst.size(); ++ow) {
        a.pv_shuffle(SimdFmt::kB, dst[ow], src, ow == 0 ? r::s8 : r::s9);
        a.pv_sll(SimdFmt::kB, dst[ow], dst[ow], r::s10);
        a.pv_sra(SimdFmt::kBSc, dst[ow], dst[ow], r::s11);
      }
      return;
    }
    const unsigned q = spec.w_bits;
    for (unsigned ow = 0; ow < dst.size(); ++ow) {
      for (unsigned j = 0; j < 4; ++j) {
        const unsigned elem = ow * 4 + j;
        a.p_extract(tmp, src, q, elem * q);      // sign-extended weight
        a.p_insert(dst[ow], tmp, 8, j * 8);
      }
    }
  }

  /// Baseline sub-byte inner loop: packed weights unpacked on the fly to
  /// byte vectors, activations already unpacked to bytes by im2col, 8-bit
  /// SIMD sdot. One iteration covers one packed weight word.
  void emit_inner_baseline() {
    const unsigned q = spec.w_bits;               // 4 or 2
    const unsigned xw = (32 / q) / 4;             // x words per iteration
    const std::vector<u8> w0 =
        (q == 4) ? std::vector<u8>{r::t1, r::t2}
                 : std::vector<u8>{r::t1, r::t2, r::s8, r::s9};
    const std::vector<u8> w1 =
        (q == 4) ? std::vector<u8>{r::t4, r::t5}
                 : std::vector<u8>{r::t4, r::t5, r::s10, r::s11};

    // Streams `xw` activation words from `xptr` and feeds the two filters'
    // accumulators for that pixel; x registers alternate to dodge the
    // load-use stall.
    auto pixel_pass = [&](u8 xptr, u8 acc_f0, u8 acc_f1) {
      for (unsigned i = 0; i < xw; ++i) {
        const u8 xr = (i % 2 == 0) ? r::t6 : r::s7;
        a.p_lw_post(xr, xptr, 4);
        if (i + 1 < xw) {
          const u8 xr2 = ((i + 1) % 2 == 0) ? r::t6 : r::s7;
          a.p_lw_post(xr2, xptr, 4);
          a.pv_sdotusp(SimdFmt::kB, acc_f0, xr, w0[i]);
          a.pv_sdotusp(SimdFmt::kB, acc_f1, xr, w1[i]);
          a.pv_sdotusp(SimdFmt::kB, acc_f0, xr2, w0[i + 1]);
          a.pv_sdotusp(SimdFmt::kB, acc_f1, xr2, w1[i + 1]);
          ++i;
        } else {
          a.pv_sdotusp(SimdFmt::kB, acc_f0, xr, w0[i]);
          a.pv_sdotusp(SimdFmt::kB, acc_f1, xr, w1[i]);
        }
      }
    };

    emit_inner_loop([&] {
      a.p_lw_post(r::t0, r::a0, 4);  // packed w0
      a.p_lw_post(r::t3, r::a1, 4);  // packed w1
      emit_unpack_weights(r::t0, w0, r::t6);
      emit_unpack_weights(r::t3, w1, r::t6);
      pixel_pass(r::a2, r::a4, r::a6);
      if (two_pixels()) pixel_pass(r::a3, r::a5, r::a7);
    });
  }

  // ---------- re-quantization ----------

  /// Software staircase: unrolled balanced binary tree (Fig. 2), one lh +
  /// one branch per level, leaf writes the code. `acc` = 32-bit
  /// pre-activation register, `dest` receives the code, tree base is
  /// s0 + base_off (static per-channel offset).
  void emit_sw_tree(u8 acc, u8 dest, i32 base_off) {
    const unsigned q = out_bits();
    const Label merge = a.new_label();
    emit_sw_tree_node(acc, dest, base_off, 0, 0, 0, q, merge);
    a.bind(merge);
  }

  void emit_sw_tree_node(u8 acc, u8 dest, i32 base_off, u32 node,
                         unsigned depth, u32 code, unsigned q, Label merge) {
    if (depth == q) {
      a.addi(dest, r::zero, static_cast<i32>(code));
      a.j(merge);
      return;
    }
    a.lh(r::t6, r::s0, base_off + static_cast<i32>(node) * 2);
    const Label left = a.new_label();
    a.blt(acc, r::t6, left);             // acc < T -> bit 0 (left child)
    emit_sw_tree_node(acc, dest, base_off, 2 * node + 2, depth + 1,
                      (code << 1) | 1, q, merge);
    a.bind(left);
    emit_sw_tree_node(acc, dest, base_off, 2 * node + 1, depth + 1,
                      (code << 1) | 0, q, merge);
  }

  /// Hardware pv.qnt of accumulators (accA = channel oc, accB = channel
  /// oc+1, same output pixel); result codes land in `dest` bits [q-1:0] and
  /// [16+q-1:16]. `thr` = threshold pointer register for channel oc.
  void emit_hw_qnt_pair(u8 accA, u8 accB, u8 dest, u8 thr) {
    a.p_exthz(r::t4, accA);
    a.slli(r::t5, accB, 16);
    a.or_(r::t4, r::t4, r::t5);
    a.pv_qnt(out_bits(), dest, r::t4, thr);
  }

  /// Begin/end markers for quantization-cycle attribution.
  void quant_begin() { quant_start_ = a.current_addr(); }
  void quant_end() {
    regions.add_range("quant", quant_start_, a.current_addr());
  }
  addr_t quant_start_ = 0;

  /// Re-quantize + store the 4 accumulators of one channel pair (4-bit and
  /// 8-bit flavors; 2-bit handled by emit_quant_store_crumb_half).
  void emit_quant_store_pair() {
    quant_begin();
    if (out_bits() == 8) {
      // out = clamp(acc >> shift, 0, 255); two bytes per pixel, sh store.
      const u32 sh = spec.requant_shift;
      a.srai(r::t4, r::a4, sh);
      a.p_clipu(r::t4, r::t4, 8);
      a.srai(r::t5, r::a6, sh);
      a.p_clipu(r::t5, r::t5, 8);
      a.p_insert(r::t4, r::t5, 8, 8);
      a.p_sh_post(r::t4, r::s1, 2);
      if (two_pixels()) {
        a.srai(r::t4, r::a5, sh);
        a.p_clipu(r::t4, r::t4, 8);
        a.srai(r::t5, r::a7, sh);
        a.p_clipu(r::t5, r::t5, 8);
        a.p_insert(r::t4, r::t5, 8, 8);
        a.p_sh_post(r::t4, r::s2, 2);
      }
    } else if (hw_quant()) {
      assert(out_bits() == 4);
      emit_hw_qnt_pair(r::a4, r::a6, r::t4, r::s0);  // pixel 0
      a.p_extractu(r::t5, r::t4, 4, 16);
      a.p_insert(r::t4, r::t5, 4, 4);                // byte q00 | q10<<4
      a.p_sb_post(r::t4, r::s1, 1);
      if (two_pixels()) {
        emit_hw_qnt_pair(r::a5, r::a7, r::t4, r::s0);  // pixel 1
        a.p_extractu(r::t5, r::t4, 4, 16);
        a.p_insert(r::t4, r::t5, 4, 4);
        a.p_sb_post(r::t4, r::s2, 1);
      }
    } else {
      assert(out_bits() == 4);
      const i32 stride = static_cast<i32>(thr_stride());
      emit_sw_tree(r::a4, r::s5, 0);       // q00 (ch oc,  pix 0)
      emit_sw_tree(r::a6, r::s6, stride);  // q10 (ch oc+1, pix 0)
      a.p_insert(r::s5, r::s6, 4, 4);
      a.p_sb_post(r::s5, r::s1, 1);
      if (two_pixels()) {
        emit_sw_tree(r::a5, r::s5, 0);
        emit_sw_tree(r::a7, r::s6, stride);
        a.p_insert(r::s5, r::s6, 4, 4);
        a.p_sb_post(r::s5, r::s2, 1);
      }
    }
    quant_end();
  }

  /// 2-bit outputs pack four channels per byte, so the channel loop body
  /// processes two pairs; `half` selects static insert positions. Pixel-0
  /// fragments accumulate in s5, pixel-1 fragments in s6; stores on the
  /// second half.
  void emit_quant_store_crumb_half(unsigned half) {
    assert(out_bits() == 2);
    quant_begin();
    const unsigned pos = half * 4;  // bit position of this pair's codes
    if (hw_quant()) {
      emit_hw_qnt_pair(r::a4, r::a6, r::t4, r::s0);
      a.p_extractu(r::t5, r::t4, 2, 16);
      a.p_insert(r::t4, r::t5, 2, 2);          // nibble q0 | q1<<2
      a.p_insert(r::s5, r::t4, 4, pos);
      if (two_pixels()) {
        emit_hw_qnt_pair(r::a5, r::a7, r::t4, r::s0);
        a.p_extractu(r::t5, r::t4, 2, 16);
        a.p_insert(r::t4, r::t5, 2, 2);
        a.p_insert(r::s6, r::t4, 4, pos);
      }
    } else {
      const i32 stride = static_cast<i32>(thr_stride());
      emit_sw_tree(r::a4, r::t4, 0);
      emit_sw_tree(r::a6, r::t5, stride);
      a.p_insert(r::t4, r::t5, 2, 2);
      a.p_insert(r::s5, r::t4, 4, pos);
      if (two_pixels()) {
        emit_sw_tree(r::a5, r::t4, 0);
        emit_sw_tree(r::a7, r::t5, stride);
        a.p_insert(r::t4, r::t5, 2, 2);
        a.p_insert(r::s6, r::t4, 4, pos);
      }
    }
    if (half == 1) {
      a.p_sb_post(r::s5, r::s1, 1);
      if (two_pixels()) a.p_sb_post(r::s6, r::s2, 1);
    }
    quant_end();
  }

  u32 thr_stride() const { return (1u << out_bits()) * 2; }

  // ---------- the matmul subroutine ----------

  void emit_acc_clear() {
    a.mv(r::a4, r::zero);
    a.mv(r::a6, r::zero);
    if (two_pixels()) {
      a.mv(r::a5, r::zero);
      a.mv(r::a7, r::zero);
    }
  }

  void emit_pair_setup() {
    // a1 = a0 + filter_stride; strides of 2048 bytes or more do not fit
    // addi's 12-bit immediate.
    const i32 stride = static_cast<i32>(lay.filter_stride);
    if (stride < 2048) {
      a.addi(r::a1, r::a0, stride);
    } else {
      a.li(r::a1, stride);
      a.add(r::a1, r::a0, r::a1);
    }
    a.li(r::a2, static_cast<i32>(buf0_addr()));
    if (two_pixels()) a.li(r::a3, static_cast<i32>(buf1_addr()));
    emit_acc_clear();
  }

  void emit_inner() {
    if (is_baseline_sub()) {
      emit_inner_baseline();
    } else {
      emit_inner_ext();
    }
  }

  /// After the inner loop a1 points at the next pair's first filter.
  void emit_pair_advance() {
    a.mv(r::a0, r::a1);
    if (out_bits() != 8) {
      a.addi(r::s0, r::s0, static_cast<i32>(2 * thr_stride()));
    }
  }

  void emit_matmul_subroutine() {
    if (shuffle_unpack()) {
      a.li(r::s8, 0x01010000);   // byte lanes (0, 0, 1, 1)
      a.li(r::s9, 0x03030202);   // byte lanes (2, 2, 3, 3)
      a.li(r::s10, 0x00040004);  // left shifts (4, 0, 4, 0)
      a.li(r::s11, 4);           // arithmetic right shift
    }
    a.li(r::a0, static_cast<i32>(lay.filter_addr(ch_begin())));
    if (out_bits() != 8) {
      a.li(r::s0, static_cast<i32>(lay.thresholds +
                                   static_cast<u32>(ch_begin()) *
                                       thr_stride()));
    }
    a.li(r::s4, static_cast<i32>(inner_iters()));

    const bool crumb_out = out_bits() == 2;
    const int pairs_per_body = crumb_out ? 2 : 1;
    const int body_count = (ch_end() - ch_begin()) / (2 * pairs_per_body);
    a.li(r::s3, body_count);

    const Label loop = a.here();
    if (crumb_out) {
      emit_pair_setup();
      emit_inner();
      emit_quant_store_crumb_half(0);
      emit_pair_advance();
      emit_pair_setup();
      emit_inner();
      emit_quant_store_crumb_half(1);
      emit_pair_advance();
    } else {
      emit_pair_setup();
      emit_inner();
      emit_quant_store_pair();
      emit_pair_advance();
    }
    a.addi(r::s3, r::s3, -1);
    a.bne(r::s3, r::zero, loop);
    a.ret();
  }

  // ---------- top level ----------

  ConvKernel generate() {
    if (is_mixed()) {
      mixed_sel_for(in_bits(), spec.w_bits);  // throws on unsupported pair
      if (spec.out_bits != 8 && spec.out_bits != 4 && spec.out_bits != 2) {
        throw SimError("variant/bitwidth mismatch");
      }
    } else if (spec.in_bits != spec.w_bits) {
      throw SimError("kernels assume in_bits == w_bits (PULP-NN convention)");
    } else if (is_8bit() ? (spec.out_bits != 8 || spec.in_bits != 8)
                         : (spec.out_bits != 4 && spec.out_bits != 2)) {
      throw SimError("variant/bitwidth mismatch");
    }
    if (shuffle_unpack() && spec.w_bits != 4) {
      throw SimError("the shuffle-unpack ablation supports 4-bit only");
    }
    if ((spec.in_c * static_cast<int>(in_bits())) % 32 != 0) {
      throw SimError("input channel block must be word-aligned");
    }
    if (opts.pixel_block != 1 && opts.pixel_block != 2) {
      throw SimError("pixel_block must be 1 or 2");
    }
    if (two_pixels() && spec.out_w() % 2 != 0) {
      throw SimError("2x2 blocking (pixel_block 2) requires an even output "
                     "width");
    }
    const int ch_group = out_bits() == 2 ? 4 : 2;
    if (spec.out_c % ch_group != 0) {
      throw SimError("output channels must be a multiple of the pack group");
    }
    if (ch_begin() % ch_group != 0 || (ch_end() - ch_begin()) % ch_group != 0 ||
        ch_end() <= ch_begin()) {
      throw SimError("channel tile must be a non-empty multiple of the pack group");
    }

    // Phase regions for the profiler. Creation order is attribution
    // priority (later wins on overlap): the quantization staircase is
    // emitted *inside* the matmul subroutine and must attribute to
    // "quant", so "quant" is created after "matmul".
    regions.region("matmul");
    regions.region("quant");
    regions.region("im2col");

    // Mixed kernels select the virtual operand formats once at entry; the
    // CSR value then governs every pv.mlsdot* in the program.
    if (is_mixed()) {
      a.csrrwi(r::zero, isa::kMpcCsr, mixed_sel_for(in_bits(), spec.w_bits));
    }

    const Label main = a.new_label();
    a.jal(r::zero, main);  // entry: skip the subroutine

    const Label matmul = a.here();
    const addr_t matmul_lo = a.current_addr();
    emit_matmul_subroutine();
    regions.add_range("matmul", matmul_lo, a.current_addr());

    a.bind(main);
    const int step = opts.pixel_block;
    const int row_begin = std::clamp(opts.row_begin, 0, spec.out_h());
    const int row_end =
        opts.row_end < 0 ? spec.out_h() : std::min(opts.row_end, spec.out_h());
    for (int oy = row_begin; oy < row_end; ++oy) {
      for (int ox = 0; ox < spec.out_w(); ox += step) {
        addr_t im2col_lo = a.current_addr();
        emit_im2col(oy, ox, buf0_addr());
        regions.add_range("im2col", im2col_lo, a.current_addr());
        a.li(r::s1, static_cast<i32>(output_pixel_addr(oy, ox)));
        if (two_pixels()) {
          im2col_lo = a.current_addr();
          emit_im2col(oy, ox + 1, buf1_addr());
          regions.add_range("im2col", im2col_lo, a.current_addr());
          a.li(r::s2, static_cast<i32>(output_pixel_addr(oy, ox + 1)));
        }
        a.jal(r::ra, matmul);
      }
    }
    a.halt();

    xasm::Program prog = a.finish();
    if (prog.base() + prog.size_bytes() > lay.input) {
      throw SimError("generated code overlaps the data region");
    }
    if (opts.buffer_slot < 0 || opts.buffer_slot >= opts.buffer_slots) {
      throw SimError("buffer_slot out of range");
    }
    return ConvKernel{std::move(prog), lay, std::move(regions)};
  }
};

}  // namespace

ConvKernel generate_conv_kernel(const qnn::ConvSpec& spec, ConvVariant v,
                                addr_t data_base,
                                const ConvGenOptions& opts) {
  Gen g(spec, v, data_base, opts);
  return g.generate();
}

}  // namespace xpulp::kernels
