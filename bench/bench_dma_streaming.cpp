// Extension bench: µDMA double-buffered weight streaming. Layers whose
// weights live in external L2 are executed tile-by-tile; the ping-pong
// scheme overlaps the next tile's transfer with the current tile's
// compute. DMA-bound layers (fully-connected: few MACs per weight byte)
// show the benefit most clearly.
//
// A second section times the host cost of the 4-bit paper layer streamed
// in 8-channel tiles against the same layer run resident, interleaved, in
// thread CPU time: the ratio is the median of the per-round ratios, so a
// round slowed by host contention skews one pair only. Both execute the
// same modelled work; the ratio prices the per-tile codegen, load and core
// reset that streaming adds.
//
// Emits BENCH_streaming.json (obs::Registry JSON): every makespan below,
// streamed_over_resident_x, and one streamed run's fused fraction, plans
// compiled and decode counts. --max-ratio X exits nonzero when the ratio
// exceeds X (the CI gate).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "isa/decoder.hpp"
#include "soc/streamed_conv.hpp"

using namespace xpulp;
using namespace xpulp::bench;
using kernels::ConvVariant;

namespace {

bool report(obs::Registry& reg, const std::string& key, const char* name,
            const kernels::ConvLayerData& data, const qnn::Tensor& gold,
            int tile, u32 dma_bpc) {
  std::printf("\n%s (tile = %d channels, DMA %u B/cycle):\n", name, tile,
              dma_bpc);
  std::printf("%14s %12s %12s %12s %10s %7s\n", "scheme", "compute",
              "dma", "makespan", "hidden", "check");
  bool all_ok = true;
  for (const bool dbuf : {false, true}) {
    const auto res =
        soc::run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                               sim::CoreConfig::extended(), tile, dbuf,
                               dma_bpc);
    const bool ok = !qnn::first_mismatch(res.output, gold);
    all_ok = all_ok && ok;
    std::printf("%14s %12llu %12llu %12llu %9.1f%% %7s\n",
                dbuf ? "double-buffer" : "serial",
                static_cast<unsigned long long>(res.compute_cycles),
                static_cast<unsigned long long>(res.dma_cycles),
                static_cast<unsigned long long>(res.makespan),
                100.0 * res.overlap_efficiency(), okstr(ok));
    const std::string p = key + (dbuf ? ".double_buffer" : ".serial");
    reg.counter(p + ".compute_cycles", res.compute_cycles);
    reg.counter(p + ".dma_cycles", res.dma_cycles);
    reg.counter(p + ".makespan", res.makespan);
    reg.flag(p + ".output_ok", ok);
  }
  return all_ok;
}

template <class Fn>
double seconds_of(Fn&& fn) {
  const double t0 = thread_seconds();
  fn();
  return thread_seconds() - t0;
}

}  // namespace

int main(int argc, char** argv) {
  double max_ratio = 0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--max-ratio") && i + 1 < argc) {
      max_ratio = std::atof(argv[++i]);
    }
  }

  print_header("uDMA weight streaming -- serial vs double-buffered tiles");
  obs::Registry reg;
  bool all_ok = true;

  // The paper's conv layer: compute-bound, streaming is essentially free.
  const auto conv_spec = qnn::ConvSpec::paper_layer(4);
  const auto conv = kernels::ConvLayerData::random(conv_spec, kSeed);
  const auto conv_gold = conv.golden();
  all_ok = report(reg, "conv4b_t8_dma4", "4-bit conv 16x16x32 -> 64ch", conv,
                  conv_gold, 8, 4) && all_ok;

  // A large fully-connected layer: DMA-bound at 1 B/cycle, the classic
  // double-buffering win.
  const auto fc =
      kernels::ConvLayerData::random(qnn::ConvSpec::linear(1024, 128, 4), kSeed);
  const auto fc_gold = fc.golden();
  all_ok = report(reg, "fc4b_t32_dma1", "4-bit FC 1024 -> 128", fc, fc_gold,
                  32, 1) && all_ok;
  all_ok = report(reg, "fc4b_t32_dma4", "4-bit FC 1024 -> 128", fc, fc_gold,
                  32, 4) && all_ok;

  std::printf("\n(weights stay in L2; the TCDM holds only the ping-pong tile\n");
  std::printf(" buffers, so layers larger than the 512 kB L1 stay runnable.)\n");

  // Host cost: alternate the two runners so slow drift hits both (the
  // first round is an uncounted warm-up).
  const sim::CoreConfig cfg = sim::CoreConfig::extended();
  constexpr int kRounds = 15;
  std::vector<double> streamed, resident, ratios;
  bool host_ok = true;
  for (int r = 0; r <= kRounds; ++r) {
    soc::StreamedConvResult s;
    kernels::ConvRunResult c;
    const double ts = seconds_of([&] {
      s = soc::run_conv_streamed(conv, ConvVariant::kXpulpNN_HwQ, cfg, 8);
    });
    const double tc = seconds_of([&] {
      c = kernels::run_conv_layer(conv, ConvVariant::kXpulpNN_HwQ, cfg);
    });
    host_ok = host_ok && s.output == conv_gold && c.output == conv_gold;
    if (r == 0) continue;
    streamed.push_back(ts);
    resident.push_back(tc);
    ratios.push_back(ts / tc);
  }
  all_ok = all_ok && host_ok;
  const double streamed_s = median(streamed);
  const double resident_s = median(resident);
  const double ratio = median(ratios);

  // Engine coverage of one more streamed run: the fused share of its
  // instructions, the plans its tiles compiled, and its decodes (decode()
  // calls, and of those the words decoded afresh past the per-thread memo).
  u64 instructions = 0, fused = 0, compiled = 0;
  const isa::DecodeStats d0 = isa::decode_stats();
  soc::run_conv_streamed(conv, ConvVariant::kXpulpNN_HwQ, cfg, 8, true, 4,
                         nullptr, {},
                         [&](sim::Core& core, const kernels::ConvKernel&) {
                           instructions = core.perf().instructions;
                           fused += core.superblock_stats().fused_instructions;
                           compiled += core.superblock_stats().blocks_compiled;
                         });
  const isa::DecodeStats d1 = isa::decode_stats();
  const double fused_frac =
      instructions != 0 ? static_cast<double>(fused) /
                              static_cast<double>(instructions)
                        : 0;
  std::printf("\nHost CPU time, 4-bit paper layer (median of %d rounds, "
              "superblocks on):\n",
              kRounds);
  std::printf("  streamed (8-ch tiles) %8.2f ms\n", streamed_s * 1e3);
  std::printf("  resident              %8.2f ms\n", resident_s * 1e3);
  std::printf("  streamed / resident   %8.2fx %s\n", ratio, okstr(host_ok));
  std::printf("  streamed run: %.3f fused, %llu plans compiled, %llu decodes "
              "(%llu fresh)\n",
              fused_frac, static_cast<unsigned long long>(compiled),
              static_cast<unsigned long long>(d1.calls - d0.calls),
              static_cast<unsigned long long>(d1.fresh - d0.fresh));
  reg.gauge("host.streamed_s", streamed_s);
  reg.gauge("host.resident_s", resident_s);
  reg.flag("host.output_ok", host_ok);
  reg.gauge("host.streamed_fused_frac", fused_frac);
  reg.counter("host.streamed_blocks_compiled", compiled);
  reg.counter("host.streamed_decodes", d1.calls - d0.calls);
  reg.counter("host.streamed_fresh_decodes", d1.fresh - d0.fresh);
  reg.gauge("streamed_over_resident_x", ratio);
  reg.gauge("required_max_ratio", max_ratio);
  reg.flag("all_ok", all_ok);

  all_ok = save_bench_json(reg, "BENCH_streaming.json") && all_ok;
  if (max_ratio > 0 && ratio > max_ratio) {
    std::fprintf(stderr,
                 "FAIL: streamed/resident host time %.2fx above allowed "
                 "%.2fx\n",
                 ratio, max_ratio);
    return 1;
  }
  return all_ok ? 0 : 1;
}
