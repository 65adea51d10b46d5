#include "soc/streamed_conv.hpp"

#include "common/error.hpp"

namespace xpulp::soc {

using kernels::ConvGenOptions;
using kernels::ConvKernel;
using kernels::ConvLayerData;
using kernels::ConvMemLayout;
using kernels::ConvVariant;

StreamedConvResult run_conv_streamed(const ConvLayerData& data,
                                     ConvVariant v, const sim::CoreConfig& cfg,
                                     int tile_channels, bool double_buffered,
                                     u32 dma_bytes_per_cycle,
                                     obs::Timeline* timeline,
                                     const kernels::ConvInstrument& instrument,
                                     const kernels::ConvInstrument& after_run) {
  const qnn::ConvSpec& spec = data.spec;
  if (tile_channels <= 0 || spec.out_c < tile_channels ||
      spec.out_c % tile_channels != 0) {
    throw SimError("tile_channels must divide out_c");
  }
  const int tiles = spec.out_c / tile_channels;
  constexpr addr_t kCodeRegion = 0x6000;
  constexpr addr_t kDataBase = 0x40000;
  if (static_cast<u32>(tiles) * kCodeRegion > kDataBase) {
    throw SimError("too many tiles for the code region layout");
  }
  kernels::require_variant(v, cfg);

  // One program per tile, each reading its filters from the ping-pong
  // buffer its tile streams into. They share one streamed layout: the
  // TCDM holds only the tile buffers, the full weight image stays in L2,
  // which is what makes layers whose weights exceed the 512 kB TCDM
  // runnable.
  std::vector<ConvKernel> programs;
  for (int t = 0; t < tiles; ++t) {
    ConvGenOptions o;
    o.code_base = static_cast<addr_t>(t) * kCodeRegion;
    o.ch_begin = t * tile_channels;
    o.ch_end = (t + 1) * tile_channels;
    o.stream_weights = true;
    o.pixel_block = (spec.out_w() % 2 == 0) ? 2 : 1;
    programs.push_back(kernels::generate_conv_kernel(spec, v, kDataBase, o));
  }
  kernels::require_disjoint_programs(programs, kDataBase, "tile");
  const ConvMemLayout& layout = programs.front().layout;
  if (layout.output + layout.output_bytes > mem::Memory::kDefaultSize) {
    throw SimError("layer does not fit the TCDM even when streamed");
  }

  const u32 tile_bytes = layout.tile_bytes();
  const u32 l2_bytes = layout.filter_stride * static_cast<u32>(spec.out_c);
  mem::Memory l2((l2_bytes + 0xfffu) & ~0xfffu);
  mem::Memory tcdm;
  kernels::load_conv_data(data, layout, tcdm, &l2);
  for (const auto& k : programs) k.program.load(tcdm);

  Udma dma(l2, tcdm, dma_bytes_per_cycle);
  sim::Core core(tcdm, cfg);

  StreamedConvResult res;
  res.tiles = tiles;
  res.macs = spec.macs();

  std::vector<cycles_t> compute(static_cast<size_t>(tiles), 0);
  std::vector<cycles_t> dma_dur(static_cast<size_t>(tiles), 0);
  std::vector<u64> tile_instrs(static_cast<size_t>(tiles), 0);
  for (int t = 0; t < tiles; ++t) {
    // Functionally: transfer tile t, then run its program. (With double
    // buffering the transfer of tile t overlaps tile t-1's compute; the
    // ping-pong buffers make the functional order equivalent.)
    const int oc = t * tile_channels;
    dma_dur[static_cast<size_t>(t)] =
        dma.copy_in(static_cast<u32>(oc) * layout.filter_stride,
                    layout.filter_addr(oc), tile_bytes);
    const cycles_t before = core.perf().cycles;
    const u64 instrs_before = core.perf().instructions;
    const ConvKernel& tk = programs[static_cast<size_t>(t)];
    core.reset(tk.program.entry(),
               tk.program.base() + tk.program.size_bytes());
    if (instrument) instrument(core, tk);
    kernels::run_checked(
        v,
        [&] {
          core.run(kernels::kLayerInstrBudget);
          kernels::require_ecall(core);
        },
        [&] {
          return kernels::GuestSite{"streamed tile " + std::to_string(t),
                                    &core, &tk};
        },
        [&] {
          if (after_run) after_run(core, tk);
        });
    compute[static_cast<size_t>(t)] = core.perf().cycles - before;
    tile_instrs[static_cast<size_t>(t)] =
        core.perf().instructions - instrs_before;
  }

  for (int t = 0; t < tiles; ++t) {
    res.compute_cycles += compute[static_cast<size_t>(t)];
    res.dma_cycles += dma_dur[static_cast<size_t>(t)];
  }
  res.perf = core.perf();
  res.dotp = core.dotp_unit().activity();
  res.tcdm_stats = tcdm.stats();
  if (double_buffered) {
    // Prologue loads tile 0; tile t's compute overlaps tile t+1's DMA.
    res.makespan = dma_dur[0];
    for (int t = 0; t < tiles; ++t) {
      const cycles_t next_dma =
          (t + 1 < tiles) ? dma_dur[static_cast<size_t>(t + 1)] : 0;
      res.makespan += std::max(compute[static_cast<size_t>(t)], next_dma);
    }
  } else {
    res.makespan = res.compute_cycles + res.dma_cycles;
  }

  if (timeline) {
    // Replay the modelled schedule onto the timeline: compute slices on
    // track 0, µDMA windows on track 1. Window starts follow the same
    // arithmetic as the makespan above.
    timeline->set_track_name(0, "core0");
    timeline->set_track_name(1, "udma");
    const auto dma_window = [&](int t, u64 start) {
      obs::Event e;
      e.kind = obs::EventKind::kDmaWindow;
      e.track = 1;
      e.ts = start;
      e.dur = dma_dur[static_cast<size_t>(t)];
      e.value = tile_bytes;
      e.name = timeline->intern("weights tile " + std::to_string(t));
      timeline->record(e);
    };
    const auto compute_slice = [&](int t, u64 start) {
      obs::Event e;
      e.kind = obs::EventKind::kInstrBlock;
      e.track = 0;
      e.ts = start;
      e.dur = compute[static_cast<size_t>(t)];
      e.value = static_cast<u32>(tile_instrs[static_cast<size_t>(t)]);
      e.name = timeline->intern("compute tile " + std::to_string(t));
      timeline->record(e);
    };
    // Busy-fraction counter tracks, one point per schedule slot: what
    // share of the slot each engine spent working (1.0 = fully hidden).
    const u16 compute_busy = timeline->intern("soc/compute_busy");
    const u16 dma_busy = timeline->intern("soc/dma_busy");
    const auto busy_point = [&](u16 name, u8 track, u64 start, cycles_t used,
                                cycles_t slot) {
      obs::CounterPoint p;
      p.ts = start;
      p.value = slot ? static_cast<double>(used) / static_cast<double>(slot)
                     : 0.0;
      p.name = name;
      p.track = track;
      timeline->record_counter(p);
    };
    if (double_buffered) {
      dma_window(0, 0);
      busy_point(compute_busy, 0, 0, 0, dma_dur[0]);
      busy_point(dma_busy, 1, 0, dma_dur[0], dma_dur[0]);
      u64 start = dma_dur[0];
      for (int t = 0; t < tiles; ++t) {
        compute_slice(t, start);
        cycles_t next_dma = 0;
        if (t + 1 < tiles) {
          next_dma = dma_dur[static_cast<size_t>(t + 1)];
          dma_window(t + 1, start);
        }
        const cycles_t slot =
            std::max(compute[static_cast<size_t>(t)], next_dma);
        busy_point(compute_busy, 0, start, compute[static_cast<size_t>(t)],
                   slot);
        busy_point(dma_busy, 1, start, next_dma, slot);
        start += slot;
      }
    } else {
      u64 start = 0;
      for (int t = 0; t < tiles; ++t) {
        dma_window(t, start);
        busy_point(compute_busy, 0, start, 0, dma_dur[static_cast<size_t>(t)]);
        busy_point(dma_busy, 1, start, dma_dur[static_cast<size_t>(t)],
                   dma_dur[static_cast<size_t>(t)]);
        start += dma_dur[static_cast<size_t>(t)];
        compute_slice(t, start);
        busy_point(compute_busy, 0, start, compute[static_cast<size_t>(t)],
                   compute[static_cast<size_t>(t)]);
        busy_point(dma_busy, 1, start, 0, compute[static_cast<size_t>(t)]);
        start += compute[static_cast<size_t>(t)];
      }
    }
  }

  res.output = kernels::read_conv_output(spec, layout, tcdm);
  return res;
}

}  // namespace xpulp::soc
