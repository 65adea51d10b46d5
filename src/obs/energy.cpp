#include "obs/energy.hpp"

#include <cmath>
#include <sstream>

#include "obs/delta.hpp"

namespace xpulp::obs {

namespace {

struct Component {
  const char* name;
  double power::EnergyBreakdown::* field;
};

constexpr Component kComponents[] = {
    {"leak", &power::EnergyBreakdown::leak_pj},
    {"base", &power::EnergyBreakdown::base_pj},
    {"alu", &power::EnergyBreakdown::alu_pj},
    {"muldiv", &power::EnergyBreakdown::muldiv_pj},
    {"dotp", &power::EnergyBreakdown::dotp_pj},
    {"dotp_toggle", &power::EnergyBreakdown::dotp_toggle_pj},
    {"qnt", &power::EnergyBreakdown::qnt_pj},
    {"lsu", &power::EnergyBreakdown::lsu_pj},
    {"sram", &power::EnergyBreakdown::sram_pj},
    {"soc_static", &power::EnergyBreakdown::soc_static_pj},
};

}  // namespace

EnergyCell Profiler::priced(const CounterCell& c) const {
  return {c, power::estimate_energy(c.perf, c.dotp, c.mem, cfg_)};
}

EnergyCell Profiler::energy_total() const {
  return priced(CounterCell{diff(run_end_.perf, run_start_.perf),
                            diff(run_end_.dotp, run_start_.dotp),
                            diff(run_end_.mem, run_start_.mem)});
}

std::vector<RegionEnergy> Profiler::region_energies() const {
  std::vector<RegionEnergy> out;
  out.reserve(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    out.push_back({region_names_[i], priced(cells_[i])});
  }
  return out;
}

std::string Profiler::reconciliation_violation() const {
  const EnergyCell total = energy_total();
  sim::PerfCounters psum;
  sim::DotpActivity dsum;
  mem::MemStats msum;
  for (const CounterCell& c : cells_) {
    accumulate(psum, c.perf);
    accumulate(dsum, c.dotp);
    accumulate(msum, c.mem);
  }

  // Layer 1: the integer counters partition the run totals exactly.
  const auto partition = [](const char* group, const char* field) {
    return std::string("region partition mismatch: ") + group + field;
  };
  if (const char* f = first_difference(psum, total.perf)) {
    return partition("perf.", f);
  }
  if (const char* f = first_difference(dsum, total.dotp)) {
    return partition("dotp.", f);
  }
  if (const char* f = first_difference(msum, total.mem)) {
    return partition("mem.", f);
  }

  // Layer 2: energy over the summed counters is bit-identical to energy
  // over the run totals (same integers in, same doubles out).
  const power::EnergyBreakdown esum =
      power::estimate_energy(psum, dsum, msum, cfg_);
  const power::EnergyBreakdown& etot = total.energy;
  for (const Component& c : kComponents) {
    if (esum.*c.field != etot.*c.field) {
      return std::string("energy identity violated: ") + c.name + "_pj";
    }
  }

  // Layer 3 (FP-honest): the double sum of per-region energies matches
  // the total to a relative epsilon (addition is not associative).
  double region_sum = 0;
  for (const RegionEnergy& r : region_energies()) {
    region_sum += r.cell.energy.soc_pj();
  }
  const double tot = etot.soc_pj();
  const double tol = 1e-9 * std::max(1.0, std::abs(tot));
  if (std::abs(region_sum - tot) > tol) {
    std::ostringstream os;
    os << "per-region energy sum drifted: " << region_sum << " vs " << tot;
    return os.str();
  }
  return {};
}

std::string Profiler::energy_stacks(std::string_view root) const {
  std::ostringstream os;
  for (const RegionEnergy& r : region_energies()) {
    for (const Component& c : kComponents) {
      const long long pj = std::llround(r.cell.energy.*c.field);
      if (pj <= 0) continue;
      if (!root.empty()) os << root << ';';
      os << r.name << ';' << c.name << ' ' << pj << '\n';
    }
  }
  return os.str();
}

void Profiler::add_energy_to_registry(Registry& r,
                                      std::string_view prefix) const {
  const std::string pre = std::string(prefix) + ".";
  const EnergyCell total = energy_total();
  add_energy_breakdown(r, pre + "total", total.energy);
  r.counter(pre + "total.cycles", total.perf.cycles);
  r.counter(pre + "total.instructions", total.perf.instructions);
  for (const RegionEnergy& re : region_energies()) {
    const std::string rp = pre + "regions." + re.name;
    add_energy_breakdown(r, rp, re.cell.energy);
    r.counter(rp + ".cycles", re.cell.perf.cycles);
    r.counter(rp + ".instructions", re.cell.perf.instructions);
  }
}

void add_soc_power(Registry& r, std::string_view prefix,
                   const power::SocPower& p) {
  const std::string pre = std::string(prefix) + ".";
  r.gauge(pre + "core_mw", p.core.core_mw());
  r.gauge(pre + "soc_mw", p.soc_mw());
  r.gauge(pre + "sram_mw", p.sram_mw);
  r.gauge(pre + "soc_static_mw", p.soc_static_mw);
  r.gauge(pre + "core.leak_mw", p.core.leak_mw);
  r.gauge(pre + "core.base_mw", p.core.base_mw);
  r.gauge(pre + "core.alu_mw", p.core.alu_mw);
  r.gauge(pre + "core.muldiv_mw", p.core.muldiv_mw);
  r.gauge(pre + "core.dotp_mw", p.core.dotp_mw);
  r.gauge(pre + "core.dotp_toggle_mw", p.core.dotp_toggle_mw);
  r.gauge(pre + "core.qnt_mw", p.core.qnt_mw);
  r.gauge(pre + "core.lsu_mw", p.core.lsu_mw);
}

void add_energy_breakdown(Registry& r, std::string_view prefix,
                          const power::EnergyBreakdown& e) {
  const std::string pre = std::string(prefix) + ".";
  r.gauge(pre + "core_pj", e.core_pj());
  r.gauge(pre + "soc_pj", e.soc_pj());
  for (const Component& c : kComponents) {
    r.gauge(pre + std::string(c.name) + "_pj", e.*c.field);
  }
}

}  // namespace xpulp::obs
