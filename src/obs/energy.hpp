// Energy views of the attribution engine (obs::Profiler, DESIGN.md §10)
// and the registry publishers xtel uses for power figures.
//
// Profiler prices its per-region counter cells with
// power::estimate_energy, which is linear in those counters. The
// reconciliation invariant has two exact layers and one FP-honest layer:
//   1. counter partition: every u64 field of the per-region counter sums
//      equals the run's total delta exactly (same style as the cycle
//      reconciliation);
//   2. energy identity: estimate_energy(sum of per-region counters) is
//      bit-identical to estimate_energy(run totals) — same integers in,
//      same doubles out;
//   3. the *sum of per-region energies in double* matches the total only
//      to a relative epsilon (floating-point addition is not
//      associative), checked as a secondary sanity bound.
// Profiler::reconciliation_violation() checks all three and returns a
// diagnostic, empty when they hold.
#pragma once

#include <string_view>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "power/power_model.hpp"

namespace xpulp::obs {

/// Publish a SocPower breakdown under `prefix` ("<prefix>.core_mw",
/// ".soc_mw", ".sram_mw", ".soc_static_mw" plus every core component).
void add_soc_power(Registry& r, std::string_view prefix,
                   const power::SocPower& p);

/// Publish an EnergyBreakdown in pJ under `prefix`.
void add_energy_breakdown(Registry& r, std::string_view prefix,
                          const power::EnergyBreakdown& e);

}  // namespace xpulp::obs
