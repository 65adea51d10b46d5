#include "kernels/conv_layer.hpp"

#include <cstring>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "qnn/pack.hpp"

namespace xpulp::kernels {

const char* variant_name(ConvVariant v) {
  switch (v) {
    case ConvVariant::kXpulpV2_8b: return "xpulpv2-8b";
    case ConvVariant::kXpulpV2_Sub: return "xpulpv2-subbyte";
    case ConvVariant::kXpulpV2_SubShf: return "xpulpv2-subbyte-shuffle";
    case ConvVariant::kXpulpNN_SwQ: return "xpulpnn-swquant";
    case ConvVariant::kXpulpNN_HwQ: return "xpulpnn-hwquant";
    case ConvVariant::kXpulpNN_Mixed: return "xpulpnn-mixed";
  }
  return "?";
}

bool parse_variant(const char* s, ConvVariant& v) {
  if (!std::strcmp(s, "8b")) v = ConvVariant::kXpulpV2_8b;
  else if (!std::strcmp(s, "sub")) v = ConvVariant::kXpulpV2_Sub;
  else if (!std::strcmp(s, "subshf")) v = ConvVariant::kXpulpV2_SubShf;
  else if (!std::strcmp(s, "swq")) v = ConvVariant::kXpulpNN_SwQ;
  else if (!std::strcmp(s, "hwq")) v = ConvVariant::kXpulpNN_HwQ;
  else return false;
  return true;
}

u32 mixed_sel_for(unsigned in_bits, unsigned w_bits) {
  for (u32 sel = 0; sel < isa::kMpcSelCount; ++sel) {
    if (isa::mixed_width_a(sel) == in_bits &&
        isa::mixed_width_b(sel) == w_bits) {
      return sel;
    }
  }
  throw SimError("no mpc selector for " + std::to_string(in_bits) + "x" +
                 std::to_string(w_bits) + " operands");
}

bool variant_supported(ConvVariant v, const sim::CoreConfig& cfg) {
  switch (v) {
    case ConvVariant::kXpulpV2_8b:
    case ConvVariant::kXpulpV2_Sub:
    case ConvVariant::kXpulpV2_SubShf:
      return cfg.xpulpv2;
    case ConvVariant::kXpulpNN_SwQ:
    case ConvVariant::kXpulpNN_HwQ:
    case ConvVariant::kXpulpNN_Mixed:
      return cfg.xpulpv2 && cfg.xpulpnn;
  }
  return false;
}

namespace {

constexpr addr_t align16(addr_t a) { return (a + 15u) & ~15u; }

unsigned inner_iterations(const qnn::ConvSpec& s, ConvVariant v) {
  // Mixed kernels consume one *activation* word per iteration (the weight
  // word covers the same 32/in_bits lanes); uniform kernels consume one
  // weight word.
  const unsigned per_iter =
      32 / (v == ConvVariant::kXpulpNN_Mixed ? s.in_bits : s.w_bits);
  return (static_cast<unsigned>(s.filter_elems()) + per_iter - 1) / per_iter;
}

// Weight range per width: full two's-complement range except 4-bit, where
// we stay symmetric to keep accumulators comfortably inside int16.
std::pair<i32, i32> weight_range(unsigned bits) {
  switch (bits) {
    case 8: return {-100, 100};
    case 4: return {-7, 7};
    case 2: return {-2, 1};
    default: throw SimError("unsupported weight width");
  }
}

}  // namespace

ConvMemLayout ConvMemLayout::plan(const qnn::ConvSpec& spec, ConvVariant v,
                                  addr_t data_base, int buffer_slots) {
  ConvMemLayout l;
  l.code = 0;
  l.filter_stride =
      v == ConvVariant::kXpulpNN_Mixed
          ? qnn::packed_filter_stride_grouped(spec.filter_elems(),
                                              spec.in_bits)
          : qnn::packed_filter_stride(spec.filter_elems(), spec.w_bits);

  const unsigned iters = inner_iterations(spec, v);
  const bool unpacked_buf = (v == ConvVariant::kXpulpV2_Sub ||
                             v == ConvVariant::kXpulpV2_SubShf);
  l.buf_bytes = unpacked_buf ? iters * (32 / spec.w_bits) : iters * 4;

  addr_t cursor = align16(data_base);
  l.input = cursor;
  cursor = align16(cursor + qnn::packed_bytes(spec.in_h * spec.in_w * spec.in_c,
                                              spec.in_bits));
  l.weights = cursor;
  cursor = align16(cursor + l.filter_stride * static_cast<u32>(spec.out_c));
  l.thresholds = cursor;
  if (spec.out_bits != 8) {
    cursor = align16(cursor + (1u << spec.out_bits) * 2u *
                                  static_cast<u32>(spec.out_c));
  }
  l.buf0 = cursor;
  cursor = align16(cursor + l.buf_bytes);
  l.buf1 = cursor;
  cursor = align16(cursor + l.buf_bytes);
  // Additional slots for the remaining cores of a cluster.
  cursor += l.buffer_slot_stride() * static_cast<u32>(buffer_slots - 1);
  l.output = cursor;
  l.output_bytes = qnn::packed_bytes(
      spec.out_h() * spec.out_w() * spec.out_c, spec.out_bits);
  return l;
}

namespace {

/// Draw a layer's synthetic input codes, then its weights, from one RNG
/// stream. `input` may be null: the input draws still advance the stream,
/// so the weights do not depend on whether the input is kept.
qnn::FilterBank draw_layer(const qnn::ConvSpec& spec, u64 seed,
                           qnn::Tensor* input) {
  Rng rng(seed);
  const i32 act_max = static_cast<i32>((1u << spec.in_bits) - 1);
  const int in_elems = spec.in_h * spec.in_w * spec.in_c;
  if (input != nullptr) *input = qnn::Tensor({spec.in_h, spec.in_w, spec.in_c});
  for (int i = 0; i < in_elems; ++i) {
    const i32 v = rng.uniform(0, act_max);
    if (input != nullptr) input->flat(i) = v;
  }
  qnn::FilterBank weights(spec.out_c, {spec.k_h, spec.k_w, spec.in_c});
  const auto [wlo, whi] = weight_range(spec.w_bits);
  for (auto& w : weights.data()) w = rng.uniform(wlo, whi);
  return weights;
}

}  // namespace

ConvLayerData ConvLayerData::random(const qnn::ConvSpec& spec, u64 seed) {
  ConvLayerData d;
  d.spec = spec;
  d.weights = draw_layer(spec, seed, &d.input);
  // Calibrate on the layer's own input: the requantization shift for
  // 8-bit outputs, trained-style thresholds (which absorb bias + batchnorm
  // and exercise every output code) for sub-byte outputs.
  qnn::calibrate(qnn::conv_accumulators(d.input, d.weights, spec), d.spec,
                 d.thresholds);
  return d;
}

qnn::FilterBank ConvLayerData::random_weights(const qnn::ConvSpec& spec,
                                              u64 seed) {
  return draw_layer(spec, seed, nullptr);
}

qnn::Tensor ConvLayerData::golden() const {
  return qnn::requantize(qnn::conv_accumulators(input, weights, spec), spec,
                         thresholds);
}

std::vector<u8> pack_conv_weights(const ConvLayerData& data) {
  // Only the kXpulpNN_Mixed variant accepts in_bits != w_bits.
  const qnn::ConvSpec& spec = data.spec;
  return spec.in_bits != spec.w_bits
             ? qnn::pack_filter_bank_grouped(data.weights, spec.in_bits,
                                             spec.w_bits)
             : qnn::pack_filter_bank(data.weights, spec.w_bits);
}

void load_conv_data(const ConvLayerData& data, const ConvMemLayout& layout,
                    mem::Memory& mem) {
  const qnn::ConvSpec& spec = data.spec;
  const auto in_bytes = qnn::pack_tensor(data.input, spec.in_bits);
  mem.write_block(layout.input, in_bytes);
  mem.write_block(layout.weights, pack_conv_weights(data));
  if (spec.out_bits != 8) {
    const auto t_bytes = data.thresholds.serialize();
    mem.write_block(layout.thresholds, t_bytes);
  }
  mem.reset_stats();
}

ConvRunResult run_conv_layer(const ConvLayerData& data, ConvVariant v,
                             const sim::CoreConfig& cfg,
                             const ConvGenOptions& opts,
                             const ConvInstrument& instrument,
                             const ConvInstrument& after_run) {
  if (!variant_supported(v, cfg)) {
    throw SimError(std::string("variant ") + variant_name(v) +
                   " is not supported by core " + cfg.name);
  }
  const qnn::ConvSpec& spec = data.spec;
  ConvKernel kernel = generate_conv_kernel(spec, v, 0x40000, opts);

  mem::Memory mem;
  kernel.program.load(mem);
  load_conv_data(data, kernel.layout, mem);

  sim::Core core(mem, cfg);
  core.reset(kernel.program.entry(),
             kernel.program.base() + kernel.program.size_bytes());

  if (instrument) instrument(core, kernel);
  try {
    core.run(600'000'000);
  } catch (...) {
    // A guest fault: hooks still detach before the core goes away.
    if (after_run) after_run(core, kernel);
    throw;
  }
  if (after_run) after_run(core, kernel);
  if (core.halt_reason() == sim::HaltReason::kInstrLimit) {
    throw SimError("kernel did not terminate");
  }
  if (core.halt_reason() != sim::HaltReason::kEcall) {
    throw SimError("kernel stopped for an unexpected reason");
  }

  std::vector<u8> out_bytes(kernel.layout.output_bytes);
  mem.read_block(kernel.layout.output, out_bytes);
  ConvRunResult res;
  res.output = qnn::unpack_tensor(
      out_bytes, {spec.out_h(), spec.out_w(), spec.out_c}, spec.out_bits,
      /*is_signed=*/false);
  res.perf = core.perf();
  res.activity = core.dotp_unit().activity();
  res.mem_stats = mem.stats();
  res.code_bytes = kernel.program.size_bytes();
  res.macs = spec.macs();
  return res;
}

}  // namespace xpulp::kernels
