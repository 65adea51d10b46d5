// google-benchmark micro suite: host-side throughput of the simulator
// building blocks (decode and encode over the paper-layer kernels, SIMD
// dot products, quantization walk, full-core stepping) plus
// simulated-cycle counts of the key inner loops. Useful for keeping the
// simulator itself fast and for documenting per-instruction costs.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "isa/decoder.hpp"
#include "isa/encoding.hpp"
#include "kernels/conv_layer.hpp"
#include "qnn/ref_layers.hpp"
#include "qnn/thresholds.hpp"
#include "sim/core.hpp"
#include "sim/dotp_unit.hpp"
#include "sim/quant_unit.hpp"
#include "xasm/assembler.hpp"

namespace {

using namespace xpulp;
namespace r = xasm::reg;

/// Words of the paper-layer conv kernel at `bits` (the XpulpNN kernel for
/// the sub-byte widths): every layer run decodes such a program once per
/// core.
std::vector<u32> paper_kernel_words(unsigned bits) {
  const auto v = bits == 8 ? kernels::ConvVariant::kXpulpV2_8b
                           : kernels::ConvVariant::kXpulpNN_HwQ;
  const auto k =
      kernels::generate_conv_kernel(qnn::ConvSpec::paper_layer(bits), v);
  const auto w = k.program.words();
  return {w.begin(), w.end()};
}

void BM_Decode(benchmark::State& state) {
  const std::vector<u32> words =
      paper_kernel_words(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    for (const u32 w : words) benchmark::DoNotOptimize(isa::decode(w, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(words.size()));
}
BENCHMARK(BM_Decode)->Arg(8)->Arg(4)->Arg(2);

void BM_DotpUnit(benchmark::State& state) {
  const auto fmt = static_cast<isa::SimdFmt>(state.range(0));
  sim::DotpUnit unit;
  Rng rng(1);
  u32 a = rng.next_u32(), b = rng.next_u32();
  i32 acc = 0;
  for (auto _ : state) {
    acc = unit.dotp(isa::Mnemonic::kPvSdotusp, fmt, a, b, acc);
    a = a * 1664525u + 1013904223u;
    b ^= a >> 3;
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          isa::simd_elem_count(fmt));
}
BENCHMARK(BM_DotpUnit)
    ->Arg(static_cast<int>(isa::SimdFmt::kB))
    ->Arg(static_cast<int>(isa::SimdFmt::kN))
    ->Arg(static_cast<int>(isa::SimdFmt::kC));

void BM_QuantWalk(benchmark::State& state) {
  mem::Memory mem(1024);
  Rng rng(2);
  const auto th = qnn::Thresholds::random(rng, 4, -2000, 2000);
  const auto bytes = qnn::LayerThresholds(4, {th, th}).serialize();
  mem.write_block(0, bytes);
  sim::QuantUnit unit;
  u32 acts = 0;
  for (auto _ : state) {
    const auto res = unit.execute(mem, acts, 0, 4);
    benchmark::DoNotOptimize(res.rd);
    acts += 0x00010003u;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_QuantWalk);

/// Simulator throughput on the hot inner loop (host instr/s).
void BM_CoreStepLoop(benchmark::State& state) {
  mem::Memory mem;
  xasm::Assembler a(0);
  a.li(r::a0, 0x10000);
  a.li(r::a1, 0x20000);
  // Sized so the streaming pointers stay inside the 512 kB TCDM; the
  // harness resets the program when it halts.
  a.li(r::t0, 50'000);
  auto end = a.new_label();
  a.lp_setup(0, r::t0, end);
  a.p_lw_post(r::t1, r::a0, 4);
  a.p_lw_post(r::t2, r::a1, 4);
  a.pv_sdotusp(isa::SimdFmt::kN, r::a4, r::t1, r::t2);
  a.pv_sdotusp(isa::SimdFmt::kN, r::a5, r::t1, r::t2);
  a.bind(end);
  a.ecall();
  auto prog = a.finish();
  prog.load(mem);
  sim::Core core(mem);
  core.reset(0);
  // Consume the setup instructions once.
  for (int i = 0; i < 4; ++i) core.step();
  u64 steps = 0;
  for (auto _ : state) {
    if (core.halted()) {
      state.PauseTiming();
      core.reset(0);
      state.ResumeTiming();
    }
    core.step();
    ++steps;
  }
  state.SetItemsProcessed(static_cast<int64_t>(steps));
}
BENCHMARK(BM_CoreStepLoop);

void BM_Encode(benchmark::State& state) {
  std::vector<isa::Instr> instrs;
  const auto bits = static_cast<unsigned>(state.range(0));
  for (const u32 w : paper_kernel_words(bits)) {
    instrs.push_back(isa::decode(w, 0));
  }
  for (auto _ : state) {
    for (const isa::Instr& in : instrs) {
      benchmark::DoNotOptimize(isa::encode(in));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(instrs.size()));
}
BENCHMARK(BM_Encode)->Arg(8)->Arg(4)->Arg(2);

}  // namespace

BENCHMARK_MAIN();
