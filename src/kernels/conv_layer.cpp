#include "kernels/conv_layer.hpp"

#include <cstdio>
#include <cstring>
#include <utility>

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
                                  addr_t data_base, int buffer_slots,
                                  int tile_channels) {
  ConvMemLayout l;
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

  // Streamed: the weight region shrinks to the ping-pong tile buffers.
  l.tile_channels = tile_channels;
  const u32 resident = l.filter_stride * static_cast<u32>(spec.out_c);
  const u32 pingpong = 2 * l.tile_bytes();
  if (tile_channels != 0 && pingpong < resident) {
    const u32 saved = align16(resident - pingpong);
    l.thresholds -= saved;
    l.buf0 -= saved;
    l.buf1 -= saved;
    l.output -= saved;
  }
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
                    mem::Memory& mem, mem::Memory* l2) {
  const qnn::ConvSpec& spec = data.spec;
  mem.write_block(layout.input, qnn::pack_tensor(data.input, spec.in_bits));
  if (layout.tile_channels == 0) {
    mem.write_block(layout.weights, pack_conv_weights(data));
  } else if (l2 != nullptr) {
    l2->write_block(0, pack_conv_weights(data));
  } else {
    throw SimError("a streamed layout loads its weights into L2");
  }
  if (spec.out_bits != 8) {
    mem.write_block(layout.thresholds, data.thresholds.serialize());
  }
  mem.reset_stats();
}

qnn::Tensor read_conv_output(const qnn::ConvSpec& spec,
                             const ConvMemLayout& layout,
                             const mem::Memory& mem) {
  std::vector<u8> bytes(layout.output_bytes);
  mem.read_block(layout.output, bytes);
  return qnn::unpack_tensor(bytes, {spec.out_h(), spec.out_w(), spec.out_c},
                            spec.out_bits, /*is_signed=*/false);
}

void require_variant(ConvVariant v, const sim::CoreConfig& cfg) {
  if (!variant_supported(v, cfg)) {
    throw SimError(std::string("variant ") + variant_name(v) +
                   " is not supported by core " + cfg.name);
  }
}

void require_disjoint_programs(const std::vector<ConvKernel>& kernels,
                               addr_t data_base, const char* unit) {
  const auto range = [&](size_t k) {
    const xasm::Program& p = kernels[k].program;
    return std::pair<u64, u64>{p.base(), u64{p.base()} + p.size_bytes()};
  };
  const auto name = [&](size_t k) {
    const auto [lo, hi] = range(k);
    char buf[80];
    std::snprintf(buf, sizeof buf, "%s %zu program [0x%llx, 0x%llx)", unit, k,
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    return std::string(buf);
  };
  for (size_t a = 0; a < kernels.size(); ++a) {
    const auto [lo, hi] = range(a);
    if (hi > data_base) {
      char at[32];
      std::snprintf(at, sizeof at, "0x%x", data_base);
      throw SimError(name(a) + " overlaps the data region at " + at);
    }
    for (size_t b = 0; b < a; ++b) {
      const auto [blo, bhi] = range(b);
      if (lo < bhi && blo < hi) {
        throw SimError("program images overlap: " + name(b) + " and " +
                       name(a));
      }
    }
  }
}

void require_ecall(const sim::Core& core) {
  if (core.halt_reason() == sim::HaltReason::kInstrLimit) {
    throw SimError("kernel did not terminate");
  }
  if (core.halt_reason() != sim::HaltReason::kEcall) {
    throw SimError("kernel stopped for an unexpected reason");
  }
}

namespace {

/// "<target> (<variant>) faulted at pc 0x... in region <r>: <what>"; the
/// pc part is left out when no single core faulted.
std::string fault_report(const SimError& e, const GuestSite& site,
                         ConvVariant v) {
  std::string msg = site.target + " (" + variant_name(v) + ")";
  if (site.core != nullptr) {
    const auto* illegal = dynamic_cast<const IllegalInstruction*>(&e);
    const addr_t pc = illegal != nullptr ? illegal->pc() : site.core->pc();
    const int region = site.kernel->regions.lookup(pc);
    char at[32];
    std::snprintf(at, sizeof at, " faulted at pc 0x%08x", pc);
    msg += at + (region == obs::RegionMap::kNone
                     ? std::string(" outside the kernel regions")
                     : " in region " + site.kernel->regions.name(region));
  }
  return msg + ": " + e.what();
}

}  // namespace

void run_checked(ConvVariant v, const std::function<void()>& execute,
                 const std::function<GuestSite()>& locate,
                 const std::function<void()>& after_run) {
  try {
    execute();
  } catch (const SimError& e) {
    const std::string msg = fault_report(e, locate(), v);
    if (after_run) after_run();
    throw SimError(msg);
  } catch (...) {
    if (after_run) after_run();
    throw;
  }
  if (after_run) after_run();
}

ConvRunResult run_conv_layer(const ConvLayerData& data, ConvVariant v,
                             const sim::CoreConfig& cfg,
                             const ConvGenOptions& opts,
                             const ConvInstrument& instrument,
                             const ConvInstrument& after_run) {
  require_variant(v, cfg);
  const qnn::ConvSpec& spec = data.spec;
  ConvGenOptions o = opts;
  if (spec.out_w() % 2 != 0) o.pixel_block = 1;  // 2x2 needs pixel pairs
  const ConvKernel kernel = generate_conv_kernel(spec, v, 0x40000, o);

  mem::Memory mem;
  kernel.program.load(mem);
  load_conv_data(data, kernel.layout, mem);

  sim::Core core(mem, cfg);
  core.reset(kernel.program.entry(),
             kernel.program.base() + kernel.program.size_bytes());

  if (instrument) instrument(core, kernel);
  run_checked(
      v,
      [&] {
        core.run(kLayerInstrBudget);
        require_ecall(core);
      },
      [&] { return GuestSite{"core", &core, &kernel}; },
      [&] {
        if (after_run) after_run(core, kernel);
      });

  ConvRunResult res;
  res.output = read_conv_output(spec, kernel.layout, mem);
  res.perf = core.perf();
  res.activity = core.dotp_unit().activity();
  res.mem_stats = mem.stats();
  res.code_bytes = kernel.program.size_bytes();
  res.macs = spec.macs();
  return res;
}

}  // namespace xpulp::kernels
