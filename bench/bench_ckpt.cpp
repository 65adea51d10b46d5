// google-benchmark suite for the checkpoint subsystem: capture, serialize,
// deserialize and apply cost of single-core and cluster snapshots. The
// fault campaigns checkpoint every few thousand instructions, so snapshot
// cost directly bounds campaign throughput (and sets a sensible default
// for --ckpt-every).
#include <benchmark/benchmark.h>

#include "ckpt/snapshot.hpp"
#include "kernels/conv_layer.hpp"
#include "qnn/ref_layers.hpp"

namespace {

using namespace xpulp;

/// A core paused mid-kernel, the state every benchmark below snapshots.
struct PausedRun {
  mem::Memory mem;
  kernels::ConvKernel kernel;
  sim::Core core;

  PausedRun()
      : kernel(kernels::generate_conv_kernel(
            qnn::ConvSpec::small_layer(4), kernels::ConvVariant::kXpulpNN_HwQ)),
        core(mem, sim::CoreConfig::extended()) {
    const auto data =
        kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(4), 11);
    kernel.program.load(mem);
    kernels::load_conv_data(data, kernel.layout, mem);
    core.reset(kernel.program.entry(),
               kernel.program.base() + kernel.program.size_bytes());
    for (int i = 0; i < 4000 && !core.halted(); ++i) core.step();
  }
};

void BM_CaptureCore(benchmark::State& state) {
  PausedRun run;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::capture(run.core, run.mem));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          run.mem.size());
}
BENCHMARK(BM_CaptureCore);

void BM_SerializeCore(benchmark::State& state) {
  PausedRun run;
  const ckpt::Snapshot snap = ckpt::capture(run.core, run.mem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::serialize(snap));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          run.mem.size());
}
BENCHMARK(BM_SerializeCore);

void BM_DeserializeCore(benchmark::State& state) {
  PausedRun run;
  const std::vector<u8> bytes = ckpt::serialize(ckpt::capture(run.core, run.mem));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::deserialize(bytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes.size()));
}
BENCHMARK(BM_DeserializeCore);

void BM_ApplyCore(benchmark::State& state) {
  PausedRun run;
  const ckpt::Snapshot snap = ckpt::capture(run.core, run.mem);
  for (auto _ : state) {
    ckpt::apply(snap, run.core, run.mem);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          run.mem.size());
}
BENCHMARK(BM_ApplyCore);

void BM_CaptureCluster(benchmark::State& state) {
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = static_cast<int>(state.range(0));
  cluster::Cluster cl(ccfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::capture(cl));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          cl.memory().size());
}
BENCHMARK(BM_CaptureCluster)->Arg(2)->Arg(8);

void BM_RoundtripSerializedCluster(benchmark::State& state) {
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = static_cast<int>(state.range(0));
  cluster::Cluster cl(ccfg);
  const ckpt::Snapshot snap = ckpt::capture(cl);
  for (auto _ : state) {
    const std::vector<u8> bytes = ckpt::serialize(snap);
    ckpt::Snapshot back = ckpt::deserialize(bytes);
    ckpt::apply(back, cl);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          cl.memory().size());
}
BENCHMARK(BM_RoundtripSerializedCluster)->Arg(2)->Arg(8);

}  // namespace

BENCHMARK_MAIN();
