// obs::BankHeatmap: TCDM bank binning from the cluster access-observer
// stream. The load-bearing property is exact reconciliation — the
// heatmap's conflict and access totals must equal the BankArbiter's own
// counters, access for access — plus ring/window bookkeeping.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cluster/parallel_conv.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/heatmap.hpp"

namespace xpulp::obs {
namespace {

using kernels::ConvVariant;

kernels::ConvLayerData small_layer(unsigned bits) {
  return kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(bits), 7);
}

TEST(BankHeatmap, TotalsMatchBankArbiterExactly) {
  const auto data = small_layer(4);
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 4;
  ccfg.core = sim::CoreConfig::extended();
  const u32 banks = 4 * cluster::kBanksPerCore;

  BankHeatmap::Options opts;
  opts.window_cycles = 512;
  BankHeatmap hm(banks, 4, opts);

  const auto res = cluster::run_parallel_conv(
      data, ConvVariant::kXpulpNN_HwQ, ccfg,
      [&hm](cluster::Cluster& cl, const std::vector<kernels::ConvKernel>&) {
        cl.set_access_observer([&hm](int c, cycles_t cy, addr_t, addr_t a,
                                     unsigned, bool, unsigned stalls) {
          hm.observe(c, cy, a, stalls);
        });
      });

  EXPECT_EQ(res.output, data.golden());
  ASSERT_GT(res.stats.data_accesses, 0u);
  EXPECT_EQ(hm.total_accesses(), res.stats.data_accesses);
  EXPECT_EQ(hm.total_conflicts(), res.stats.bank_conflicts);

  // Retained per-window cells partition the totals (capacity was ample).
  EXPECT_EQ(hm.windows_dropped(), 0u);
  u64 cell_accesses = 0, cell_conflicts = 0, core_accesses = 0;
  for (size_t w = 0; w < hm.retained_windows(); ++w) {
    for (const BankCell& c : hm.window_banks(w)) {
      cell_accesses += c.accesses;
      cell_conflicts += c.conflicts;
    }
    for (u64 n : hm.window_core_accesses(w)) core_accesses += n;
  }
  EXPECT_EQ(cell_accesses, hm.total_accesses());
  EXPECT_EQ(cell_conflicts, hm.total_conflicts());
  EXPECT_EQ(core_accesses, hm.total_accesses());
}

TEST(BankHeatmap, BankMappingIsWordInterleaved) {
  BankHeatmap hm(16, 1);
  // Bank = (addr >> 2) % banks, the arbiter's mapping.
  hm.observe(0, 0, 0x0, 0);     // bank 0
  hm.observe(0, 0, 0x4, 0);     // bank 1
  hm.observe(0, 0, 0x7, 0);     // still bank 1 (same word)
  hm.observe(0, 0, 0x40, 1);    // bank 0, conflicted
  ASSERT_EQ(hm.retained_windows(), 1u);
  const auto& cells = hm.window_banks(0);
  EXPECT_EQ(cells[0].accesses, 2u);
  EXPECT_EQ(cells[0].conflicts, 1u);
  EXPECT_EQ(cells[1].accesses, 2u);
  EXPECT_EQ(cells[1].conflicts, 0u);
  EXPECT_EQ(hm.total_accesses(), 4u);
  EXPECT_EQ(hm.total_conflicts(), 1u);
}

TEST(BankHeatmap, RingDropsOldestWindows) {
  BankHeatmap::Options opts;
  opts.window_cycles = 100;
  opts.capacity = 2;
  BankHeatmap hm(4, 1, opts);
  for (u64 w = 0; w < 5; ++w) {
    hm.observe(0, w * 100 + 1, 0x4 * static_cast<addr_t>(w), 0);
  }
  EXPECT_EQ(hm.windows_recorded(), 5u);
  EXPECT_EQ(hm.windows_dropped(), 3u);
  ASSERT_EQ(hm.retained_windows(), 2u);
  EXPECT_EQ(hm.window_index(0), 3u);
  EXPECT_EQ(hm.window_index(1), 4u);
  // Grand totals still cover every access, including dropped windows.
  EXPECT_EQ(hm.total_accesses(), 5u);
}

TEST(BankHeatmap, CsvRowsSumToTotals) {
  BankHeatmap::Options opts;
  opts.window_cycles = 10;
  BankHeatmap hm(4, 2, opts);
  hm.observe(0, 1, 0x0, 0);
  hm.observe(1, 2, 0x4, 2);
  hm.observe(0, 15, 0x8, 0);
  hm.observe(1, 15, 0x8, 1);

  std::ostringstream os;
  hm.write_csv(os);
  std::istringstream is(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "window,bank,accesses,conflicts");
  u64 accesses = 0, conflicts = 0;
  while (std::getline(is, line)) {
    u64 w = 0, b = 0, a = 0, c = 0;
    ASSERT_EQ(std::sscanf(line.c_str(), "%llu,%llu,%llu,%llu",
                          (unsigned long long*)&w, (unsigned long long*)&b,
                          (unsigned long long*)&a, (unsigned long long*)&c),
              4)
        << line;
    accesses += a;
    conflicts += c;
  }
  EXPECT_EQ(accesses, hm.total_accesses());
  EXPECT_EQ(conflicts, hm.total_conflicts());
}

TEST(BankHeatmap, TimelineCounterTracksCoverRetainedWindows) {
  BankHeatmap::Options opts;
  opts.window_cycles = 10;
  BankHeatmap hm(2, 1, opts);
  hm.observe(0, 5, 0x0, 0);
  hm.observe(0, 15, 0x4, 1);

  Timeline tl;
  hm.add_to_timeline(tl);
  // One accesses + one conflicts point per (bank, window) pair.
  EXPECT_EQ(tl.counters_recorded(), 2u * 2u * 2u);
}

}  // namespace
}  // namespace xpulp::obs
