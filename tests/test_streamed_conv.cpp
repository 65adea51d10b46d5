// µDMA weight streaming: functional equivalence with the resident kernels,
// makespan accounting, and the double-buffering benefit.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim_test_util.hpp"
#include "soc/streamed_conv.hpp"

namespace xpulp::soc {
namespace {

using kernels::ConvLayerData;
using kernels::ConvVariant;

qnn::ConvSpec small_spec(unsigned bits) {
  qnn::ConvSpec s = qnn::ConvSpec::small_layer(bits);
  s.out_c = 16;
  return s;
}

TEST(Udma, TransferCycleModel) {
  mem::Memory l2(4096), tcdm(4096);
  Udma dma(l2, tcdm, 4, 16);
  EXPECT_EQ(dma.transfer_cycles(0), 16u);
  EXPECT_EQ(dma.transfer_cycles(4), 17u);
  EXPECT_EQ(dma.transfer_cycles(5), 18u);  // rounds up
  l2.store_u32(0x10, 0xdeadbeef);
  const auto c = dma.copy_in(0x10, 0x20, 4);
  EXPECT_EQ(c, 17u);
  EXPECT_EQ(tcdm.load_u32(0x20), 0xdeadbeefu);
  EXPECT_EQ(dma.total_bytes(), 4u);
  EXPECT_EQ(dma.transfers(), 1u);
}

class StreamedTiles : public ::testing::TestWithParam<int> {};

TEST_P(StreamedTiles, BitExactForAnyTileSize) {
  const int tile = GetParam();
  const auto data = ConvLayerData::random(small_spec(4), 0x5eed);
  const auto gold = data.golden();
  for (const bool dbuf : {false, true}) {
    const auto res = run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                       sim::CoreConfig::extended(), tile, dbuf);
    ASSERT_EQ(res.tiles, 16 / tile);
    for (int i = 0; i < gold.elems(); ++i) {
      ASSERT_EQ(res.output.flat(i), gold.flat(i)) << "tile=" << tile;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TileSizes, StreamedTiles,
                         ::testing::Values(2, 4, 8, 16),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

TEST(StreamedConv, MixedPrecisionBitExact) {
  // The L2 image must use the grouped weight packing the mixed kernels
  // read; tiles then stream whole grouped filters.
  for (const auto& [in_bits, w_bits] :
       {std::pair{8u, 4u}, std::pair{4u, 2u}}) {
    qnn::ConvSpec spec = small_spec(8);
    spec.in_c = 8;
    spec.in_bits = in_bits;
    spec.w_bits = w_bits;
    const auto data = ConvLayerData::random(spec, 0x3e7u + in_bits);
    const auto gold = data.golden();
    for (const int tile : {4, 8}) {
      for (const bool dbuf : {false, true}) {
        const auto res =
            run_conv_streamed(data, ConvVariant::kXpulpNN_Mixed,
                              sim::CoreConfig::extended(), tile, dbuf);
        EXPECT_EQ(res.output == gold, true)
            << in_bits << "x" << w_bits << ", tile " << tile;
      }
    }
  }
}

TEST(StreamedConv, MatchesResidentKernelCycles) {
  // Per-tile compute sums to roughly the resident kernel (the channel loop
  // is just split; only per-tile setup is added).
  const auto data = ConvLayerData::random(small_spec(4), 3);
  const auto resident = kernels::run_conv_layer(
      data, ConvVariant::kXpulpNN_HwQ, sim::CoreConfig::extended());
  const auto streamed =
      run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                        sim::CoreConfig::extended(), 8);
  EXPECT_NEAR(static_cast<double>(streamed.compute_cycles),
              static_cast<double>(resident.perf.cycles),
              0.15 * static_cast<double>(resident.perf.cycles));
}

TEST(StreamedConv, DoubleBufferingHidesDmaTime) {
  // A DMA-heavy fully-connected layer (many weight bytes per MAC) at 1
  // byte/cycle: the ping-pong scheme must hide most of the transfer time.
  const auto data =
      ConvLayerData::random(qnn::ConvSpec::linear(512, 64, 4), 9);
  const auto serial = run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                        sim::CoreConfig::extended(), 16,
                                        /*double_buffered=*/false,
                                        /*dma_bytes_per_cycle=*/1);
  const auto dbuf = run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                      sim::CoreConfig::extended(), 16,
                                      /*double_buffered=*/true,
                                      /*dma_bytes_per_cycle=*/1);
  // Same work, same transfers.
  EXPECT_EQ(serial.compute_cycles, dbuf.compute_cycles);
  EXPECT_EQ(serial.dma_cycles, dbuf.dma_cycles);
  EXPECT_GT(serial.dma_cycles, serial.compute_cycles / 4);  // DMA matters
  EXPECT_LT(dbuf.makespan, serial.makespan);
  EXPECT_GT(dbuf.overlap_efficiency(), 0.2);
  // Output identical and correct.
  const auto gold = data.golden();
  for (int i = 0; i < gold.elems(); ++i) {
    ASSERT_EQ(dbuf.output.flat(i), gold.flat(i));
  }
}

TEST(StreamedConv, MakespanNeverBeatsComputeAlone) {
  const auto data = ConvLayerData::random(small_spec(2), 4);
  const auto res = run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                     sim::CoreConfig::extended(), 4);
  EXPECT_GE(res.makespan, res.compute_cycles);
  EXPECT_LE(res.makespan, res.compute_cycles + res.dma_cycles);
}

TEST(StreamedConv, DecodeCacheSpansEachTilesProgram) {
  // Tile t's program sits at t x 24 kB; each reset sizes the decode cache
  // to that program, not to [0, code_end) (tile 7 once zero-filled 86k
  // parcels).
  const auto data = ConvLayerData::random(small_spec(4), 0x5eed);
  std::vector<size_t> parcels, bound;
  std::vector<addr_t> bases;
  run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                    sim::CoreConfig::extended(), 2, true, 4, nullptr, {},
                    [&](sim::Core& core, const kernels::ConvKernel& k) {
                      parcels.push_back(core.decode_cache_parcels());
                      bound.push_back(test::decode_cache_bound(k.program));
                      bases.push_back(k.program.base());
                    });
  ASSERT_EQ(parcels.size(), 8u);
  for (size_t t = 0; t < parcels.size(); ++t) {
    EXPECT_GT(parcels[t], 0u) << "tile " << t;
    EXPECT_LE(parcels[t], bound[t]) << "tile " << t;
  }
  EXPECT_LT(bound[7], bases[7] / 2);
}

TEST(StreamedConv, RejectsBadTiling) {
  const auto data = ConvLayerData::random(small_spec(4), 5);
  EXPECT_THROW(run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                 sim::CoreConfig::extended(), 5),
               SimError);  // 5 does not divide 16
  EXPECT_THROW(run_conv_streamed(data, ConvVariant::kXpulpNN_HwQ,
                                 sim::CoreConfig::extended(), 0),
               SimError);
}

TEST(StreamedConv, OverlappingProgramImagesAreADiagnostic) {
  // As for the cluster: the baseline sub-byte kernel's per-tile program
  // outgrows the per-tile code slot on the paper layer. The runner must
  // refuse the layout by name, not run tile 1's image over tile 0's.
  const auto data = ConvLayerData::random(qnn::ConvSpec::paper_layer(4), 12);
  for (const int tile : {8, 16}) {
    std::string msg;
    try {
      const auto r = run_conv_streamed(data, ConvVariant::kXpulpV2_Sub,
                                       sim::CoreConfig::extended(), tile);
      ADD_FAILURE() << tile << "-channel tiles: no diagnostic; the output "
                    << (qnn::first_mismatch(r.output, data.golden())
                            ? "differs from"
                            : "matches")
                    << " the golden model";
      continue;
    } catch (const SimError& e) {
      msg = e.what();
    }
    EXPECT_NE(msg.find("tile 0 program [0x0, 0x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("tile 1 program [0x6000, 0x"), std::string::npos)
        << msg;
  }
}

}  // namespace
}  // namespace xpulp::soc
