// Shared helpers for simulator tests: assemble a small program with a
// builder callback, run it on a configured core, and expose the final
// machine state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::test {

struct RunResult {
  mem::Memory mem;
  sim::PerfCounters perf;
  std::array<u32, 32> regs{};
  sim::HaltReason reason = sim::HaltReason::kRunning;
  sim::DotpActivity activity;
};

/// Assemble `body(asm)`, append ecall, run to halt; `setup` may preload
/// memory or registers before execution.
inline RunResult run_program(
    const std::function<void(xasm::Assembler&)>& body,
    sim::CoreConfig cfg = sim::CoreConfig::extended(),
    const std::function<void(mem::Memory&, sim::Core&)>& setup = {}) {
  xasm::Assembler a(0);
  body(a);
  a.ecall();
  xasm::Program prog = a.finish();

  RunResult r;
  prog.load(r.mem);
  sim::Core core(r.mem, std::move(cfg));
  core.reset(prog.entry());
  if (setup) setup(r.mem, core);
  r.reason = core.run(100'000'000);
  for (unsigned i = 0; i < 32; ++i) r.regs[i] = core.reg(i);
  r.perf = core.perf();
  r.activity = core.dotp_unit().activity();
  return r;
}

/// Most decode-cache parcels a core that ran `prog` from its entry may
/// hold: the program's span, grown at most one geometric step (the cache
/// spans the code it runs, not every address below it).
inline size_t decode_cache_bound(const xasm::Program& prog) {
  const size_t span = prog.size_bytes() / 2;
  return std::max<size_t>(2 * span, 4096);
}

}  // namespace xpulp::test
