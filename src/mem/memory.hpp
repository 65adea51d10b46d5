// TCDM (tightly-coupled data memory) model of the PULPissimo SoC.
//
// PULPissimo places 512 kB of SRAM one cycle away from the core; both
// instruction fetches and data accesses hit the same memory. The model is a
// flat byte array with bounds checking plus stall accounting:
//   - naturally aligned data accesses complete in the background of the
//     executing instruction (no extra cycles — RI5CY's LSU overlaps them);
//   - misaligned accesses are split into two transactions and cost one
//     extra cycle (the only memory-stall source the paper mentions for the
//     quantization unit);
//   - an optional contention injector models interconnect conflicts for
//     stress tests.
#pragma once

#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "common/bitops.hpp"
#include "common/counters.hpp"
#include "common/error.hpp"
#include "common/types.hpp"

namespace xpulp::mem {

struct MemStats {
  u64 loads = 0;
  u64 stores = 0;
  u64 load_bytes = 0;
  u64 store_bytes = 0;
  u64 misaligned_accesses = 0;
  u64 contention_stalls = 0;
};

/// The field list of MemStats (common/counters.hpp): declaration order,
/// which is also the XCKP MEM payload order.
template <typename F, CounterRef<MemStats>... S>
constexpr void for_each_counter(F&& f, S&&... s) {
  f("loads", s.loads...);
  f("stores", s.stores...);
  f("load_bytes", s.load_bytes...);
  f("store_bytes", s.store_bytes...);
  f("misaligned_accesses", s.misaligned_accesses...);
  f("contention_stalls", s.contention_stalls...);
}
static_assert(counter_slots<MemStats>() * 8 == sizeof(MemStats));

class Memory {
 public:
  /// PULPissimo SRAM size used throughout the paper's experiments.
  static constexpr u32 kDefaultSize = 512 * 1024;

  explicit Memory(u32 size = kDefaultSize) : data_(size, 0) {}

  u32 size() const { return static_cast<u32>(data_.size()); }

  // ---- Typed guest accessors (bounds-checked, little-endian) ----

  u8 load_u8(addr_t a) const {
    check(a, 1, false);
    return data_[a];
  }

  u16 load_u16(addr_t a) const {
    check(a, 2, false);
    u16 v;
    std::memcpy(&v, &data_[a], 2);
    return v;
  }

  u32 load_u32(addr_t a) const {
    check(a, 4, false);
    u32 v;
    std::memcpy(&v, &data_[a], 4);
    return v;
  }

  void store_u8(addr_t a, u8 v) {
    check(a, 1, true);
    data_[a] = v;
  }

  void store_u16(addr_t a, u16 v) {
    check(a, 2, true);
    std::memcpy(&data_[a], &v, 2);
  }

  void store_u32(addr_t a, u32 v) {
    check(a, 4, true);
    std::memcpy(&data_[a], &v, 4);
  }

  /// Generic load of `size` in {1,2,4} bytes, zero-extended.
  u32 load(addr_t a, unsigned size) const {
    switch (size) {
      case 1: return load_u8(a);
      case 2: return load_u16(a);
      default: return load_u32(a);
    }
  }

  void store(addr_t a, u32 v, unsigned size) {
    switch (size) {
      case 1: store_u8(a, static_cast<u8>(v)); break;
      case 2: store_u16(a, static_cast<u16>(v)); break;
      default: store_u32(a, v); break;
    }
  }

  // ---- Bulk host-side access (loader, kernel drivers, tests) ----

  void write_block(addr_t a, std::span<const u8> bytes) {
    check(a, static_cast<unsigned>(bytes.size()), true);
    std::memcpy(&data_[a], bytes.data(), bytes.size());
  }

  void read_block(addr_t a, std::span<u8> bytes) const {
    check(a, static_cast<unsigned>(bytes.size()), false);
    std::memcpy(bytes.data(), &data_[a], bytes.size());
  }

  /// Read-only view of `len` guest bytes at `a` (bounds-checked).
  std::span<const u8> view(addr_t a, u32 len) const {
    check(a, len, false);
    return {data_.data() + a, len};
  }

  void fill(addr_t a, u8 value, u32 len) {
    check(a, len, true);
    std::memset(&data_[a], value, len);
  }

  /// Timing hook called by the core's LSU for every data access. Returns the
  /// number of *extra* stall cycles the access costs and updates statistics.
  ///
  /// The bounds check runs before any accounting: an access that (even
  /// partially) falls outside the SRAM must trap without charging stats or
  /// stall cycles. This covers the misaligned-access split — a word access
  /// at size-2 is two SRAM transactions whose second half is out of range —
  /// which previously counted a load, a misalignment and a stall cycle
  /// before the data path raised the fault, leaving MemStats and the core's
  /// PerfCounters inconsistent on the trapping path.
  unsigned access_cycles(addr_t a, unsigned size, bool is_store) {
    check(a, size, is_store);
    if (is_store) {
      ++stats_.stores;
      stats_.store_bytes += size;
    } else {
      ++stats_.loads;
      stats_.load_bytes += size;
    }
    unsigned stalls = 0;
    if (!is_aligned(a, size)) {
      ++stats_.misaligned_accesses;
      stalls += 1;  // split into two SRAM transactions
    }
    if (contention_period_ != 0 &&
        ++access_counter_ % contention_period_ == 0) {
      ++stats_.contention_stalls;
      stalls += 1;
    }
    if (access_hook_) {
      const unsigned extra = access_hook_(a, size, is_store);
      stats_.contention_stalls += extra;
      stalls += extra;
    }
    return stalls;
  }

  /// Superblock fast path: the bounds/alignment/contention part of
  /// access_cycles() without the per-access load/store count bookkeeping,
  /// which the fused loop batches per iteration through add_counts(). The
  /// contention phase still advances per access, so stall injection stays
  /// bit-identical across dispatch modes, and the bounds check still runs
  /// before any accounting (trap-exact, like access_cycles).
  unsigned access_stalls(addr_t a, unsigned size, bool is_store) {
    check(a, size, is_store);
    unsigned stalls = 0;
    if (!is_aligned(a, size)) {
      ++stats_.misaligned_accesses;
      stalls += 1;
    }
    if (contention_period_ != 0 &&
        ++access_counter_ % contention_period_ == 0) {
      ++stats_.contention_stalls;
      stalls += 1;
    }
    if (access_hook_) {
      const unsigned extra = access_hook_(a, size, is_store);
      stats_.contention_stalls += extra;
      stalls += extra;
    }
    return stalls;
  }

  /// Batched count update for accesses already performed through
  /// access_stalls(): `k` iterations worth of the per-iteration delta `d`.
  /// Only the load/store count and byte fields of `d` are meaningful
  /// (stall fields were charged eagerly).
  void add_counts(const MemStats& d, u64 k = 1) {
    stats_.loads += d.loads * k;
    stats_.stores += d.stores * k;
    stats_.load_bytes += d.load_bytes * k;
    stats_.store_bytes += d.store_bytes * k;
  }

  /// Unchecked accessors for callers that already bounds-checked the
  /// access this cycle (the superblock fused loop, straight after
  /// access_stalls() on the same address/size).
  u32 load_unchecked(addr_t a, unsigned size) const {
    switch (size) {
      case 1: return data_[a];
      case 2: {
        u16 v;
        std::memcpy(&v, &data_[a], 2);
        return v;
      }
      default: {
        u32 v;
        std::memcpy(&v, &data_[a], 4);
        return v;
      }
    }
  }

  void store_unchecked(addr_t a, u32 v, unsigned size) {
    switch (size) {
      case 1: data_[a] = static_cast<u8>(v); break;
      case 2: {
        const u16 h = static_cast<u16>(v);
        std::memcpy(&data_[a], &h, 2);
        break;
      }
      default: std::memcpy(&data_[a], &v, 4); break;
    }
  }

  /// Inject one interconnect-contention stall every `period` data accesses
  /// (0 disables; used by stress tests to validate stall bookkeeping).
  void set_contention_period(u32 period) { contention_period_ = period; }

  /// External interconnect model (e.g. the cluster's banked TCDM): called
  /// on every data access, returns extra stall cycles. The cluster
  /// scheduler swaps the hook per core before stepping it.
  using AccessHook = std::function<unsigned(addr_t, unsigned, bool)>;
  void set_access_hook(AccessHook hook) { access_hook_ = std::move(hook); }
  bool has_access_hook() const { return static_cast<bool>(access_hook_); }

  const MemStats& stats() const { return stats_; }
  void reset_stats() { stats_ = MemStats{}; }

  /// Deferred-arbitration support (cluster burst scheduling): account
  /// interconnect stall cycles that an access hook would have returned at
  /// access time had arbitration not been deferred. Keeps
  /// contention_stalls bit-identical to a hook-at-access-time run.
  void add_contention_stalls(u64 n) { stats_.contention_stalls += n; }

  // ---- Snapshot/restore support (src/ckpt) ----
  // The serializable timing-relevant state beyond the byte array: statistics
  // and the contention phase. The access hook is host wiring, not simulation
  // state, and is deliberately excluded — reattach it after restore.

  void set_stats(const MemStats& s) { stats_ = s; }
  u64 access_counter() const { return access_counter_; }
  void set_access_counter(u64 c) { access_counter_ = c; }
  u32 contention_period() const { return contention_period_; }

 private:
  void check(addr_t a, unsigned size, bool is_store) const {
    // Overflow-safe: addresses are 32-bit, sizes small.
    if (size == 0) return;
    const u64 end = static_cast<u64>(a) + size;
    if (end > data_.size()) throw MemoryFault(a, size, is_store);
  }

  std::vector<u8> data_;
  MemStats stats_;
  u32 contention_period_ = 0;
  u64 access_counter_ = 0;
  AccessHook access_hook_;
};

}  // namespace xpulp::mem
