// Double-buffered weight streaming: run a convolution layer whose weights
// live in external L2, µDMA-ing one output-channel tile of filters at a
// time into a TCDM ping-pong buffer while the core computes the previous
// tile. This is the standard PULP execution scheme for layers that exceed
// L1, and an extension the paper's SoC (Fig. 5: µDMA + TCDM) enables.
#pragma once

#include "kernels/conv_layer.hpp"
#include "obs/timeline.hpp"
#include "soc/udma.hpp"

namespace xpulp::soc {

struct StreamedConvResult {
  qnn::Tensor output;
  cycles_t compute_cycles = 0;  // sum of per-tile kernel cycles
  cycles_t dma_cycles = 0;      // sum of per-tile transfer durations
  /// Compute-core activity over all tiles, for power/energy estimation
  /// (power::estimate_power / estimate_energy take these directly).
  sim::PerfCounters perf;
  sim::DotpActivity dotp;
  mem::MemStats tcdm_stats;
  /// Modelled makespan: serial DMA+compute without double buffering, or
  /// prologue + per-tile max(compute, next DMA) with it.
  cycles_t makespan = 0;
  int tiles = 0;
  u64 macs = 0;

  /// Fraction of DMA time hidden behind compute.
  double overlap_efficiency() const {
    const cycles_t serial = compute_cycles + dma_cycles;
    return serial ? 1.0 - static_cast<double>(makespan) /
                              static_cast<double>(serial)
                  : 0.0;
  }
};

/// Run the layer with `tile_channels` output channels per DMA tile
/// (must divide out_c and respect the packing group). When
/// `double_buffered` is false the DMA and compute serialize (single
/// buffer), quantifying what the ping-pong scheme buys.
///
/// When `timeline` is non-null, the modelled schedule is recorded on two
/// lanes — per-tile compute slices on track 0 ("core0") and µDMA transfer
/// windows on track 1 ("udma") — using the same makespan arithmetic the
/// result reports, so overlap (or its absence) is visible in Perfetto.
/// Each schedule slot additionally emits "soc/compute_busy" and
/// "soc/dma_busy" counter-track points (busy fraction of the slot, 0..1),
/// the streamed path's sampled-telemetry view (xtel, DESIGN.md §14).
///
/// `instrument` and `after_run` are run_conv_layer's hooks, fired per
/// tile with that tile's kernel: `instrument` right before the tile runs,
/// `after_run` right after it (also when it throws).
StreamedConvResult run_conv_streamed(
    const kernels::ConvLayerData& data, kernels::ConvVariant v,
    const sim::CoreConfig& cfg, int tile_channels,
    bool double_buffered = true, u32 dma_bytes_per_cycle = 4,
    obs::Timeline* timeline = nullptr,
    const kernels::ConvInstrument& instrument = {},
    const kernels::ConvInstrument& after_run = {});

}  // namespace xpulp::soc
