// Convolution-layer kernel generation and execution on the simulated cores.
//
// Four kernel variants mirror the configurations benchmarked in the paper:
//   kXpulpV2_8b   — 8-bit kernel using XpulpV2 (runs identically on the
//                   baseline RI5CY and the extended core);
//   kXpulpV2_Sub  — 4/2-bit kernel for the *baseline* RI5CY: operands are
//                   stored packed (quantization as memory compression) but
//                   the ISA tops out at 8-bit SIMD, so weights are unpacked
//                   element-wise in the inner loop and activations are
//                   unpacked to bytes during im2col; outputs are re-packed
//                   with bit-manipulation ops; staircase quantization runs
//                   in software;
//   kXpulpNN_SwQ  — 4/2-bit kernel using the XpulpNN sub-byte SIMD dot
//                   products but software (binary-tree) quantization — the
//                   first variant of Fig. 6;
//   kXpulpNN_HwQ  — full XpulpNN kernel with pv.qnt — the second variant of
//                   Fig. 6 and the headline configuration of Figs. 7-9.
//
// The generator plays the role of the compiler: output-pixel loops are
// specialized at generation time (padding patterns are baked per position),
// the channel loop and the dot-product loop execute at run time using
// hardware loops and post-increment addressing, exactly like the PULP-NN
// matrix-multiplication inner kernel (4 accumulators = 2 filters x 2
// output pixels).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/region.hpp"
#include "qnn/ref_layers.hpp"
#include "sim/core.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::kernels {

enum class ConvVariant {
  kXpulpV2_8b,
  kXpulpV2_Sub,
  /// Ablation: like kXpulpV2_Sub but weights are unpacked with a
  /// pv.shuffle + shift sequence (3 ops per byte-vector) instead of
  /// per-element p.extract/p.insert — the best a baseline XpulpV2 kernel
  /// could plausibly do. 4-bit only.
  kXpulpV2_SubShf,
  kXpulpNN_SwQ,
  kXpulpNN_HwQ,
  /// Mixed-precision virtual-SIMD kernel: activations in_bits (8 or 4)
  /// wide, weights w_bits (4 or 2) wide, pv.mlsdotusp inner loop with the
  /// operand formats selected by the mpc CSR (written once in the kernel
  /// prologue). Weights are packed lane-aligned grouped (one word per
  /// activation word). Outputs: 8-bit scale path or 4/2-bit pv.qnt.
  kXpulpNN_Mixed,
};

/// mpc selector for an (in_bits, w_bits) pair; throws SimError if the pair
/// is not one of (8,4), (8,2), (4,2).
u32 mixed_sel_for(unsigned in_bits, unsigned w_bits);

const char* variant_name(ConvVariant v);

/// Parse a tool CLI variant name (8b | sub | subshf | swq | hwq) into `v`;
/// returns false, leaving `v` untouched, for any other string.
bool parse_variant(const char* s, ConvVariant& v);

/// Host-side layer data (input codes, signed weights, per-channel
/// thresholds for sub-byte outputs).
struct ConvLayerData {
  qnn::ConvSpec spec;
  qnn::Tensor input;
  qnn::FilterBank weights;
  qnn::LayerThresholds thresholds;  // empty for 8-bit outputs

  /// Deterministic synthetic data with ranges chosen so sub-byte
  /// accumulators fit the 16-bit pre-activation constraint, calibrated on
  /// its own input (qnn::calibrate).
  static ConvLayerData random(const qnn::ConvSpec& spec, u64 seed);

  /// Exactly the weights random(spec, seed) draws, without the input or
  /// the calibration: for a layer whose input comes from elsewhere (a
  /// network), calibrated on that input by the caller.
  static qnn::FilterBank random_weights(const qnn::ConvSpec& spec, u64 seed);

  /// Golden output via the reference layers.
  qnn::Tensor golden() const;
};

/// Guest memory placement of one layer.
struct ConvMemLayout {
  addr_t input = 0;
  addr_t weights = 0;
  addr_t thresholds = 0;
  addr_t buf0 = 0;  // im2col buffer, output pixel 0
  addr_t buf1 = 0;  // im2col buffer, output pixel 1
  addr_t output = 0;
  u32 filter_stride = 0;  // bytes between packed filters
  u32 buf_bytes = 0;      // size of one im2col buffer
  u32 output_bytes = 0;
  /// Output channels per µDMA weight tile; 0 = the weights are resident.
  int tile_channels = 0;

  /// `buffer_slots` reserves im2col buffer pairs for that many cores.
  /// A nonzero `tile_channels` plans the streamed layout: `weights` holds
  /// only the ping-pong pair of tile buffers (the full image stays in L2),
  /// and everything after it moves down by the bytes that saves.
  static ConvMemLayout plan(const qnn::ConvSpec& spec, ConvVariant v,
                            addr_t data_base, int buffer_slots = 1,
                            int tile_channels = 0);

  /// Byte offset between consecutive buffer slots.
  u32 buffer_slot_stride() const { return ((buf_bytes + 15u) & ~15u) * 2; }
  /// Bytes of one streamed weight tile.
  u32 tile_bytes() const {
    return static_cast<u32>(tile_channels) * filter_stride;
  }
  /// Where filter `oc`'s packed weights sit while its kernel runs: its
  /// resident slot, or its slot in the ping-pong buffer its tile streams
  /// into (even tiles in the first buffer, odd tiles in the second).
  addr_t filter_addr(int oc) const {
    const int tile = tile_channels ? oc / tile_channels : 0;
    return weights + static_cast<u32>(oc + (tile % 2 - tile) * tile_channels) *
                         filter_stride;
  }
};

/// A generated kernel: the program plus instrumentation metadata.
struct ConvKernel {
  xasm::Program program;
  ConvMemLayout layout;
  /// Named phase regions ("im2col", "matmul", "quant") for the profiler
  /// (Fig. 6 reports the quantization share of total cycles).
  obs::RegionMap regions;
};

/// Generator knobs for the ablation studies (DESIGN.md §7). Defaults
/// reproduce the PULP-NN kernel structure used in the paper.
struct ConvGenOptions {
  /// Use XpulpV2 zero-overhead hardware loops for the dot-product loop;
  /// when false, a decrement-and-branch loop quantifies their benefit.
  bool use_hwloops = true;
  /// Output pixels computed per matmul pass: 2 = 2x2 blocking (2 filters
  /// x 2 pixels, 4 accumulators), 1 = a 2x1 kernel that reloads weights
  /// twice as often per output.
  int pixel_block = 2;

  // ---- multi-core partitioning (src/cluster) ----
  /// Where this core's program is placed.
  addr_t code_base = 0;
  /// Output-row slice [row_begin, row_end) this program computes; -1 =
  /// all rows.
  int row_begin = 0;
  int row_end = -1;
  /// Total im2col buffer slots reserved in the layout and the slot this
  /// program uses (one slot per core).
  int buffer_slots = 1;
  int buffer_slot = 0;

  // ---- weight streaming (src/soc µDMA double buffering) ----
  /// Output-channel tile [ch_begin, ch_end) this program computes; -1 =
  /// all channels.
  int ch_begin = 0;
  int ch_end = -1;
  /// Stream the tile's weights: plan the layout with ch_end - ch_begin
  /// channels per tile (ConvMemLayout::plan), and read the filters from
  /// the ping-pong buffer the µDMA fills for this tile.
  bool stream_weights = false;
};

/// Generate the kernel program for a layer/variant. `data_base` is where
/// the planner starts placing tensors; code is placed at address 0.
ConvKernel generate_conv_kernel(const qnn::ConvSpec& spec, ConvVariant v,
                                addr_t data_base = 0x40000,
                                const ConvGenOptions& opts = {});

/// Result of running a generated kernel on a core.
struct ConvRunResult {
  qnn::Tensor output;
  sim::PerfCounters perf;
  sim::DotpActivity activity;  // dot-product-unit switching, for the power model
  mem::MemStats mem_stats;
  u32 code_bytes = 0;
  u64 macs = 0;

  double macs_per_cycle() const {
    return perf.cycles ? static_cast<double>(macs) / static_cast<double>(perf.cycles) : 0.0;
  }
};

/// A layer's weight image as its kernels read it: mixed-precision layers
/// (in_bits != w_bits) pack lane-aligned grouped, one weight word per
/// activation word; uniform layers pack flat. Every runner loads weights
/// through this.
std::vector<u8> pack_conv_weights(const ConvLayerData& data);

/// Pack and write a layer's tensors (input, weights, thresholds) into
/// guest memory at the layout's addresses and reset the memory stats; a
/// streamed layout puts the weight image at address 0 of `l2` instead.
/// Every runner loads its tensors through this.
void load_conv_data(const ConvLayerData& data, const ConvMemLayout& layout,
                    mem::Memory& mem, mem::Memory* l2 = nullptr);

/// Unpack a layer's output from guest memory; every runner reads it so.
qnn::Tensor read_conv_output(const qnn::ConvSpec& spec,
                             const ConvMemLayout& layout,
                             const mem::Memory& mem);

/// Instruction budget of one guest run: a core, a cluster or a tile.
inline constexpr u64 kLayerInstrBudget = 600'000'000;

/// Throws SimError unless `v` runs on `cfg`; runners call it before codegen.
void require_variant(ConvVariant v, const sim::CoreConfig& cfg);

/// Throws SimError unless `core` halted on its ecall.
void require_ecall(const sim::Core& core);

/// Throws SimError, naming both programs and their address ranges, unless
/// the program images of `kernels` are pairwise disjoint and all end at or
/// below `data_base`; `unit` names one program ("core", "tile"). Runners
/// that place one program per core or tile call it before loading any.
void require_disjoint_programs(const std::vector<ConvKernel>& kernels,
                               addr_t data_base, const char* unit);

/// Where a guest run faulted: the target ("core", "cluster core <i>",
/// "streamed tile <t>"), its core and its kernel (null: no single core).
struct GuestSite {
  std::string target;
  const sim::Core* core = nullptr;
  const ConvKernel* kernel = nullptr;
};

/// The run-and-check step of every runner: `execute` runs the guest and
/// checks its halt, `after_run` fires on every exit. A SimError escaping
/// `execute` is rethrown naming the site `locate` reports, the variant,
/// the faulting pc and the ConvKernel::regions region holding it.
void run_checked(ConvVariant v, const std::function<void()>& execute,
                 const std::function<GuestSite()>& locate,
                 const std::function<void()>& after_run);

/// Observability hook of run_conv_layer: `instrument` is invoked after the
/// program and data are loaded and the core reset, immediately before the
/// run; attach an obs::Profiler (cycle attribution per kernel.regions, e.g.
/// the Fig. 6 "quant" share) or a trace hook there. `after_run` fires
/// right after the run (also when it throws), while the core is still
/// alive: finalize profilers there, NOT after the call returns. The runner
/// itself attributes nothing, so an unhooked run stays on the fused path.
using ConvInstrument =
    std::function<void(sim::Core&, const ConvKernel& kernel)>;

/// Load data + kernel into a fresh memory image and run to completion on a
/// core with the given configuration: plan, load, run_checked,
/// read_conv_output. Throws SimError on an unsupported variant or a guest
/// fault. Layers with an odd output width run 2x1 (pixel_block 1), so a
/// linear layer runs here too, as its qnn::ConvSpec::linear spec.
ConvRunResult run_conv_layer(const ConvLayerData& data, ConvVariant v,
                             const sim::CoreConfig& cfg,
                             const ConvGenOptions& opts = {},
                             const ConvInstrument& instrument = {},
                             const ConvInstrument& after_run = {});

/// True if `v` is legal on a core configuration (sub-byte XpulpNN variants
/// need cfg.xpulpnn).
bool variant_supported(ConvVariant v, const sim::CoreConfig& cfg);

}  // namespace xpulp::kernels
