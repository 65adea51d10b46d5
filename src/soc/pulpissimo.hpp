// PULPissimo SoC wrapper: one RI5CY-class core + 512 kB of single-cycle
// SRAM + the paper's 250 MHz / 0.65 V operating point. Bundles program
// loading, execution, and perf/power reporting for examples and benches.
#pragma once

#include <memory>

#include "mem/memory.hpp"
#include "power/power_model.hpp"
#include "sim/core.hpp"
#include "xasm/program.hpp"

namespace xpulp::soc {

class Pulpissimo {
 public:
  explicit Pulpissimo(sim::CoreConfig cfg = sim::CoreConfig::extended(),
                      power::OperatingPoint op = {})
      : mem_(std::make_unique<mem::Memory>()),
        core_(std::make_unique<sim::Core>(*mem_, std::move(cfg))),
        op_(op) {}

  mem::Memory& memory() { return *mem_; }
  sim::Core& core() { return *core_; }

  /// Load a program image and reset the core to its entry point.
  void load(const xasm::Program& prog) {
    prog.load(*mem_);
    core_->reset(prog.entry(), prog.base() + prog.size_bytes());
    mem_->reset_stats();
  }

  /// Run to completion (ecall). Throws SimError on abnormal halt.
  sim::HaltReason run(u64 max_instructions = 600'000'000) {
    return core_->run(max_instructions);
  }

  /// Wall-clock seconds at the SoC frequency for the cycles executed.
  double seconds() const {
    return static_cast<double>(core_->perf().cycles) / op_.freq_hz;
  }

  /// Average power estimate for everything executed since load().
  power::SocPower power() const {
    return power::estimate_power(core_->perf(), core_->dotp_unit().activity(),
                                 mem_->stats(), core_->config(), op_);
  }

  /// Energy in microjoules for the executed workload.
  double energy_uj() const { return power().soc_mw() * 1e-3 * seconds() * 1e6; }

 private:
  std::unique_ptr<mem::Memory> mem_;
  std::unique_ptr<sim::Core> core_;
  power::OperatingPoint op_;
};

}  // namespace xpulp::soc
