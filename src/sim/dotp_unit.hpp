// Functional + activity model of the RI5CY/XpulpNN dot-product unit
// (paper Fig. 3).
//
// The hardware has four multiplier "regions" (16-, 8-, 4-, 2-bit), each with
// its own adder tree so the sub-byte paths do not lengthen the critical
// path. The paper adds input registers per region and clock-gates the
// regions not involved in the current operation ("Pow. Manag." in
// Table III); without gating, every operand change toggles all four
// regions. We model exactly that: per-region operand registers whose
// Hamming-distance toggles are accumulated, with a switch selecting whether
// unused regions see new operands. The toggle counters feed the
// activity-based power model that reproduces Table III / Figs. 7 and 9.
#pragma once

#include <array>

#include "common/bitops.hpp"
#include "common/counters.hpp"
#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace xpulp::sim {

/// Index of a multiplier region by SIMD element width.
enum class DotpRegion : unsigned { k16 = 0, k8 = 1, k4 = 2, k2 = 3 };

DotpRegion region_for(isa::SimdFmt fmt);

/// Region a mixed dot product (mpc selector 0/1/2) occupies: the wide
/// (activation) operand width picks the multiplier array.
DotpRegion mixed_region(u32 sel);

struct DotpActivity {
  /// Operand-register bit toggles per region (both operands summed).
  std::array<u64, 4> operand_toggles{};
  /// Dot-product operations executed per region.
  std::array<u64, 4> ops{};
};

/// The field list of DotpActivity (common/counters.hpp).
template <typename F, CounterRef<DotpActivity>... S>
constexpr void for_each_counter(F&& f, S&&... s) {
  f("operand_toggles.16b", s.operand_toggles[0]...);
  f("operand_toggles.8b", s.operand_toggles[1]...);
  f("operand_toggles.4b", s.operand_toggles[2]...);
  f("operand_toggles.2b", s.operand_toggles[3]...);
  f("ops.16b", s.ops[0]...);
  f("ops.8b", s.ops[1]...);
  f("ops.4b", s.ops[2]...);
  f("ops.2b", s.ops[3]...);
}
static_assert(counter_slots<DotpActivity>() * 8 == sizeof(DotpActivity));

/// Complete serializable unit state: the activity counters plus the
/// per-region operand registers they are diffed against. Snapshot/restore
/// must carry the latches too, or the first dot product after a restore
/// would observe different Hamming toggles than the uninterrupted run.
struct DotpState {
  DotpActivity activity{};
  std::array<u32, 4> last_a{};
  std::array<u32, 4> last_b{};
};

class DotpUnit {
 public:
  /// `clock_gating` mirrors the paper's power-management knob: when false,
  /// operands propagate to (and toggle) every region on each operation.
  explicit DotpUnit(bool clock_gating = true) : clock_gating_(clock_gating) {}

  /// Element-wise SIMD op (pv.add/sub/avg/min/max/shift/abs/logic).
  /// `a` = rs1 vector, `b` = rs2 vector (or scalar-replicated source).
  u32 alu_op(isa::Mnemonic op, isa::SimdFmt fmt, u32 a, u32 b) const;

  /// Dot-product family. `acc` is the rd accumulator for sdot variants
  /// (ignored for plain dot). Updates the activity counters.
  i32 dotp(isa::Mnemonic op, isa::SimdFmt fmt, u32 a, u32 b, i32 acc);

  /// Without clock gating the EX-stage operand bus reaches every multiplier
  /// region on *every* instruction — the core calls this once per executed
  /// instruction when power management is off, and the resulting toggle
  /// counts are what the "No Pow. Manag." column of Table III pays for.
  void broadcast_operands(u32 a, u32 b);

  /// Reference dot product used by tests: widen each element and
  /// multiply-accumulate in 64-bit, truncated to 32.
  static i32 dotp_reference(isa::Mnemonic op, isa::SimdFmt fmt, u32 a, u32 b,
                            i32 acc);

  /// Mixed-operand reference (pv.mldot*/pv.mlsdot*): widths come from the
  /// mpc selector; rs2 packs 32/WA weights of WB bits in its low lanes.
  /// Throws SimError on the reserved selector (3).
  static i32 dotp_reference_mixed(isa::Mnemonic op, u32 sel, u32 a, u32 b,
                                  i32 acc);

  /// Mixed dot product with activity tracking against the wide region.
  i32 dotp_mixed(isa::Mnemonic op, u32 sel, u32 a, u32 b, i32 acc);

  /// Fast-path bookkeeping, bit-identical to what dotp() records: latch the
  /// raw operands into the selected region (when gated) and count the op.
  /// The caller computes the arithmetic itself through its decode-
  /// specialized kernels (see Core::exec_simd_dotp_fast).
  void note_dotp(unsigned region, u32 a, u32 b) {
    if (clock_gating_) {
      activity_.operand_toggles[region] +=
          hamming_distance(last_a_[region], a) +
          hamming_distance(last_b_[region], b);
      last_a_[region] = a;
      last_b_[region] = b;
    }
    activity_.ops[region] += 1;
  }

  const DotpActivity& activity() const { return activity_; }

  // Superblock burst support: the fused loop keeps one region's operand
  // latches in host registers for a whole burst and batch-applies the
  // accumulated toggles and op count at burst exit — bit-identical to the
  // same sequence of note_dotp() calls.
  u32 latch_a(unsigned region) const { return last_a_[region]; }
  u32 latch_b(unsigned region) const { return last_b_[region]; }
  void set_latches(unsigned region, u32 a, u32 b) {
    last_a_[region] = a;
    last_b_[region] = b;
  }
  void add_activity(unsigned region, u64 toggles, u64 ops) {
    activity_.operand_toggles[region] += toggles;
    activity_.ops[region] += ops;
  }

  DotpState state() const { return DotpState{activity_, last_a_, last_b_}; }
  void restore(const DotpState& s) {
    activity_ = s.activity;
    last_a_ = s.last_a;
    last_b_ = s.last_b;
  }
  bool clock_gating() const { return clock_gating_; }

 private:
  void track(DotpRegion region, u32 a, u32 b);

  bool clock_gating_;
  DotpActivity activity_{};
  std::array<u32, 4> last_a_{};
  std::array<u32, 4> last_b_{};
};

/// Extract element `i` of vector `v` in format `fmt`, sign- or
/// zero-extended to 32 bits. Exposed for tests and the ARM model.
i32 simd_extract(u32 v, isa::SimdFmt fmt, unsigned i, bool sign);

/// Insert the low bits of `e` as element `i` of `v`.
u32 simd_insert(u32 v, isa::SimdFmt fmt, unsigned i, u32 e);

/// The element-manipulation ops (isa::is_elem_manip: pv.extract(u),
/// pv.insert, pv.shuffle, pv.pack.h) on rs1 `a`, rs2 `b` and the old rd
/// `d`; `imm` selects the lane. Any other mnemonic yields 0.
u32 simd_elem_op(isa::Mnemonic op, isa::SimdFmt fmt, i32 imm, u32 a, u32 b,
                 u32 d);

/// Scalar-replication source: for `.sc` formats the scalar is element 0 of
/// rs2 replicated over all lanes; otherwise rs2 is used as-is.
u32 simd_operand_b(u32 rs2, isa::SimdFmt fmt);

}  // namespace xpulp::sim
