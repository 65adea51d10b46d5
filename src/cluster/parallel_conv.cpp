#include "cluster/parallel_conv.hpp"

#include "common/error.hpp"

namespace xpulp::cluster {

using kernels::ConvGenOptions;
using kernels::ConvKernel;
using kernels::ConvLayerData;
using kernels::ConvMemLayout;
using kernels::ConvVariant;

namespace {

/// Per-core code region: kernels with runtime channel loops are a few kB
/// per output row; 16 kB per core lets up to 16 cores fit below the 256 kB
/// data base. Programs that outgrow it (the baseline sub-byte kernels
/// unroll their weight unpack per pixel) are refused at load time.
constexpr addr_t kCodeRegion = 0x4000;
constexpr addr_t kDataBase = 0x40000;

}  // namespace

std::vector<ConvKernel> make_parallel_conv_kernels(const qnn::ConvSpec& spec,
                                                   ConvVariant v,
                                                   int num_cores,
                                                   const ConvGenOptions& base) {
  if (static_cast<u32>(num_cores) * kCodeRegion > kDataBase) {
    throw SimError("too many cores for the code region layout");
  }
  std::vector<ConvKernel> kernels;
  const int rows = spec.out_h();
  int row = 0;
  for (int c = 0; c < num_cores; ++c) {
    const int share = rows / num_cores + (c < rows % num_cores ? 1 : 0);
    ConvGenOptions o = base;
    o.code_base = static_cast<addr_t>(c) * kCodeRegion;
    o.row_begin = row;
    o.row_end = row + share;
    o.buffer_slots = num_cores;
    o.buffer_slot = c;
    row += share;
    kernels.push_back(kernels::generate_conv_kernel(spec, v, kDataBase, o));
  }
  return kernels;
}

ParallelConvResult run_parallel_conv(const ConvLayerData& data,
                                     ConvVariant v, const ClusterConfig& cfg,
                                     const ClusterInstrument& instrument,
                                     const ClusterInstrument& after_run) {
  kernels::require_variant(v, cfg.core);
  const qnn::ConvSpec& spec = data.spec;
  Cluster cluster(cfg);  // rejects an out-of-range core count

  // Generate one program per core over its row slice. The kernels stay
  // alive so the instrument hook can read their region maps.
  const std::vector<ConvKernel> kernels =
      make_parallel_conv_kernels(spec, v, cfg.num_cores);
  const ConvMemLayout& layout = kernels.front().layout;
  std::vector<xasm::Program> programs;
  for (const ConvKernel& k : kernels) programs.push_back(k.program);

  kernels::require_disjoint_programs(kernels, kDataBase, "core");
  kernels::load_conv_data(data, layout, cluster.memory());
  cluster.load(programs);
  if (instrument) instrument(cluster, kernels);

  ParallelConvResult res;
  kernels::run_checked(
      v, [&] { res.stats = cluster.run(kernels::kLayerInstrBudget); },
      [&] {
        const int c = cluster.faulted_core();
        if (c < 0) return kernels::GuestSite{"cluster"};
        return kernels::GuestSite{"cluster core " + std::to_string(c),
                                  &cluster.core(c),
                                  &kernels[static_cast<size_t>(c)]};
      },
      [&] {
        if (after_run) after_run(cluster, kernels);
      });
  res.macs = spec.macs();
  res.output = kernels::read_conv_output(spec, layout, cluster.memory());
  return res;
}

}  // namespace xpulp::cluster
