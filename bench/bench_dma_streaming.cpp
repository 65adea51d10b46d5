// Extension bench: µDMA double-buffered weight streaming. Layers whose
// weights live in external L2 are executed tile-by-tile; the ping-pong
// scheme overlaps the next tile's transfer with the current tile's
// compute. DMA-bound layers (fully-connected: few MACs per weight byte)
// show the benefit most clearly.
#include "bench_util.hpp"
#include "soc/streamed_conv.hpp"

using namespace xpulp;
using namespace xpulp::bench;
using kernels::ConvVariant;

namespace {

void report(const char* name, const kernels::ConvLayerData& data,
            const qnn::Tensor& gold, int tile, u32 dma_bpc) {
  std::printf("\n%s (tile = %d channels, DMA %u B/cycle):\n", name, tile,
              dma_bpc);
  std::printf("%14s %12s %12s %12s %10s %7s\n", "scheme", "compute",
              "dma", "makespan", "hidden", "check");
  for (const bool dbuf : {false, true}) {
    const auto res =
        soc::run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                               sim::CoreConfig::extended(), tile, dbuf,
                               dma_bpc);
    const bool ok = !qnn::first_mismatch(res.output, gold);
    std::printf("%14s %12llu %12llu %12llu %9.1f%% %7s\n",
                dbuf ? "double-buffer" : "serial",
                static_cast<unsigned long long>(res.compute_cycles),
                static_cast<unsigned long long>(res.dma_cycles),
                static_cast<unsigned long long>(res.makespan),
                100.0 * res.overlap_efficiency(), okstr(ok));
  }
}

}  // namespace

int main() {
  print_header("uDMA weight streaming -- serial vs double-buffered tiles");

  // The paper's conv layer: compute-bound, streaming is essentially free.
  const auto conv_spec = qnn::ConvSpec::paper_layer(4);
  const auto conv = kernels::ConvLayerData::random(conv_spec, kSeed);
  report("4-bit conv 16x16x32 -> 64ch", conv, conv.golden(), 8, 4);

  // A large fully-connected layer: DMA-bound at 1 B/cycle, the classic
  // double-buffering win.
  const auto fc =
      kernels::ConvLayerData::random(qnn::ConvSpec::linear(1024, 128, 4), kSeed);
  report("4-bit FC 1024 -> 128", fc, fc.golden(), 32, 1);
  report("4-bit FC 1024 -> 128", fc, fc.golden(), 32, 4);

  std::printf("\n(weights stay in L2; the TCDM holds only the ping-pong tile\n");
  std::printf(" buffers, so layers larger than the 512 kB L1 stay runnable.)\n");
  return 0;
}
