// TCDM bank heatmap (xtel, DESIGN.md §14). Consumes the cluster's access
// observer stream (cluster::Cluster::set_access_observer) and bins every
// data access into (sample window, bank) cells with per-core
// contributions, using the arbiter's own bank mapping (word-interleaved:
// bank = (addr >> 2) % banks). Conflicts are counted from the observer's
// `conflict_stalls` argument — nonzero exactly when BankArbiter charged a
// conflict — so the heatmap's conflict total equals
// BankArbiter::conflicts() exactly, access for access.
//
// The heatmap is deliberately independent of the cluster class: wire it
// up with
//   cl.set_access_observer([&hm](int c, cycles_t cy, addr_t, addr_t a,
//                                unsigned, bool, unsigned st) {
//     hm.observe(c, cy, a, st);
//   });
// so xp_obs does not grow a dependency on xp_cluster.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "obs/registry.hpp"
#include "obs/timeline.hpp"

namespace xpulp::obs {

/// One (window, bank) cell of the heatmap.
struct BankCell {
  u64 accesses = 0;
  u64 conflicts = 0;
};

class BankHeatmap {
 public:
  struct Options {
    /// Window width in scheduler cycles; window index = cycle / this.
    cycles_t window_cycles = 4096;
    /// Retained-window ring capacity; oldest windows drop first.
    size_t capacity = 1u << 12;
  };

  /// `banks` and `cores` size the per-window grids; `banks` must match
  /// the cluster's arbiter (num_cores * cluster::kBanksPerCore).
  BankHeatmap(u32 banks, int cores, const Options& opts);
  BankHeatmap(u32 banks, int cores) : BankHeatmap(banks, cores, Options{}) {}

  /// Feed one observed access (call from the cluster access observer).
  /// `stalls` is the arbiter's charged stall count for this access;
  /// nonzero counts as one conflict.
  void observe(int core, cycles_t cycle, addr_t addr, unsigned stalls);

  u32 banks() const { return banks_; }
  int cores() const { return cores_; }
  u64 windows_recorded() const { return windows_recorded_; }
  u64 windows_dropped() const;

  /// Grand totals over every observed access (not just retained windows).
  u64 total_accesses() const { return total_accesses_; }
  /// Equals BankArbiter::conflicts() for the same run, exactly.
  u64 total_conflicts() const { return total_conflicts_; }

  /// Per-bank cells of retained window `w` (0 = oldest retained).
  size_t retained_windows() const { return ring_.size(); }
  u64 window_index(size_t w) const;  // absolute window number
  const std::vector<BankCell>& window_banks(size_t w) const;
  /// Per-core access counts of retained window `w`.
  const std::vector<u64>& window_core_accesses(size_t w) const;

  /// JSON: header (banks, cores, window size, totals, drops) plus one
  /// entry per retained window with per-bank and per-core arrays.
  void write_json(std::ostream& os) const;
  /// CSV: window,bank,accesses,conflicts rows.
  void write_csv(std::ostream& os) const;

  /// Stream per-bank counter tracks ("tcdm/bank<N>/accesses|conflicts",
  /// one point per retained window at the window-start cycle) into `tl`.
  void add_to_timeline(Timeline& tl, u8 track = 0) const;

  /// Publish totals under `prefix` (accesses, conflicts, windows, the
  /// hottest bank and its share).
  void add_to_registry(Registry& r, std::string_view prefix) const;

 private:
  struct Window {
    u64 index = 0;  // absolute window number (cycle / window_cycles)
    std::vector<BankCell> banks;
    std::vector<u64> core_accesses;
  };

  Window& window_for(cycles_t cycle);
  const Window& retained(size_t w) const;

  u32 banks_;
  int cores_;
  Options opts_;
  size_t capacity_;

  std::vector<Window> ring_;
  size_t head_ = 0;
  u64 windows_recorded_ = 0;

  u64 total_accesses_ = 0;
  u64 total_conflicts_ = 0;
  std::vector<u64> bank_totals_accesses_;
  std::vector<u64> bank_totals_conflicts_;
};

}  // namespace xpulp::obs
