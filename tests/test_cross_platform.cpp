// Cross-platform agreement property: the same quantized layer (same packed
// tensors, same thresholds) must produce the *identical* output on every
// execution path in the repository -- extended core (hw and sw quant),
// baseline RI5CY, Cortex-M4, Cortex-M7, the cluster, and the host golden
// model. This is the strongest end-to-end invariant we have: it crosses
// two ISAs, three quantization implementations, and five timing models.
//
// The pipeline grid then runs one small layer through every target of the
// shared layer pipeline (core, cluster at 1/2/4/8 cores, µDMA-streamed) in
// every format, kernel variant and dispatch mode; the layout test checks
// that programs too large for their code slots are refused by name, and
// the fault test that a guest trap reads the same way from each target.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "armv7e/cmsis_conv.hpp"
#include "cluster/parallel_conv.hpp"
#include "common/error.hpp"
#include "kernels/conv_layer.hpp"
#include "soc/streamed_conv.hpp"

namespace xpulp {
namespace {

using kernels::ConvKernel;
using kernels::ConvLayerData;
using kernels::ConvVariant;

void expect_golden(const qnn::Tensor& t, const qnn::Tensor& gold,
                   const std::string& who) {
  const auto m = qnn::first_mismatch(t, gold);
  EXPECT_FALSE(m) << who << ": " << m->to_string();
}

struct Case {
  unsigned bits;
  int in_hw, in_c, out_c;
  u64 seed;
};

class CrossPlatform : public ::testing::TestWithParam<Case> {};

TEST_P(CrossPlatform, AllPlatformsAgreeWithGolden) {
  const auto [bits, in_hw, in_c, out_c, seed] = GetParam();
  qnn::ConvSpec spec = qnn::ConvSpec::paper_layer(bits);
  spec.in_h = spec.in_w = in_hw;
  spec.in_c = in_c;
  spec.out_c = out_c;
  const auto data = ConvLayerData::random(spec, seed);
  const auto gold = data.golden();

  // RISC-V extended core.
  const ConvVariant ext_v = (bits == 8) ? ConvVariant::kXpulpV2_8b
                                        : ConvVariant::kXpulpNN_HwQ;
  const auto ext = sim::CoreConfig::extended();
  expect_golden(kernels::run_conv_layer(data, ext_v, ext).output, gold,
                "xpulpnn");
  if (bits != 8) {
    expect_golden(
        kernels::run_conv_layer(data, ConvVariant::kXpulpNN_SwQ, ext).output,
        gold, "xpulpnn-swq");
  }

  // Baseline RI5CY.
  const ConvVariant base_v = (bits == 8) ? ConvVariant::kXpulpV2_8b
                                         : ConvVariant::kXpulpV2_Sub;
  expect_golden(
      kernels::run_conv_layer(data, base_v, sim::CoreConfig::ri5cy()).output,
      gold, "ri5cy");

  // ARM models.
  expect_golden(
      armv7e::run_conv_layer_arm(data, armv7e::ArmModel::kCortexM4).output,
      gold, "cortex-m4");
  expect_golden(
      armv7e::run_conv_layer_arm(data, armv7e::ArmModel::kCortexM7).output,
      gold, "cortex-m7");

  // 4-core cluster.
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 4;
  expect_golden(cluster::run_parallel_conv(data, ext_v, ccfg).output, gold,
                "cluster");
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSeeds, CrossPlatform,
    ::testing::Values(Case{8, 6, 16, 8, 1}, Case{8, 6, 16, 8, 2},
                      Case{4, 6, 16, 8, 3}, Case{4, 6, 16, 8, 4},
                      Case{4, 8, 32, 4, 5}, Case{2, 6, 16, 8, 6},
                      Case{2, 6, 16, 8, 7}, Case{2, 8, 32, 4, 8}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return "b" + std::to_string(info.param.bits) + "_hw" +
             std::to_string(info.param.in_hw) + "_s" +
             std::to_string(info.param.seed);
    });

// ---- the layer-pipeline grid ----

// The name is held inline, not as a pointer: gtest prints the parameter's
// bytes into the discovered test name, and a pointer there would make the
// name differ on every run under address-space randomisation.
struct Format {
  char name[12];
  unsigned in_bits, w_bits, out_bits;
};

constexpr Format kFormats[] = {
    {"u8", 8, 8, 8},   {"u4", 4, 4, 4},   {"u2", 2, 2, 2},
    {"m8x4", 8, 4, 4}, {"m8x2", 8, 2, 2}, {"m4x2", 4, 2, 2},
};

/// Every kernel variant the extended core runs `s` with: the mixed kernel
/// for mixed formats, the byte kernel at 8 bits, and at 4 and 2 bits the
/// baseline unpack kernels and both XpulpNN quantization flavours.
std::vector<ConvVariant> variants_for(const qnn::ConvSpec& s) {
  if (s.in_bits != s.w_bits) return {ConvVariant::kXpulpNN_Mixed};
  if (s.in_bits == 8) return {ConvVariant::kXpulpV2_8b};
  std::vector<ConvVariant> v = {ConvVariant::kXpulpV2_Sub,
                                ConvVariant::kXpulpNN_SwQ,
                                ConvVariant::kXpulpNN_HwQ};
  if (s.in_bits == 4) v.push_back(ConvVariant::kXpulpV2_SubShf);
  return v;
}

class PipelineGrid
    : public ::testing::TestWithParam<std::tuple<Format, bool>> {};

TEST_P(PipelineGrid, EveryTargetBitExact) {
  const auto [f, superblock] = GetParam();
  qnn::ConvSpec spec = qnn::ConvSpec::small_layer(f.in_bits);
  spec.w_bits = f.w_bits;
  spec.out_bits = f.out_bits;
  const auto data = ConvLayerData::random(spec, 0x9d + f.in_bits * f.w_bits);
  const auto gold = data.golden();
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = superblock;

  for (const ConvVariant v : variants_for(spec)) {
    const std::string name = kernels::variant_name(v);
    expect_golden(kernels::run_conv_layer(data, v, cfg).output, gold,
                  name + " core");
    for (const int cores : {1, 2, 4, 8}) {
      cluster::ClusterConfig ccfg;
      ccfg.num_cores = cores;
      ccfg.core = cfg;
      ccfg.scheduler = superblock ? cluster::SchedulerMode::kBurst
                                  : cluster::SchedulerMode::kReference;
      expect_golden(cluster::run_parallel_conv(data, v, ccfg).output, gold,
                    name + " cluster x" + std::to_string(cores));
    }
    expect_golden(soc::run_conv_streamed(data, v, cfg, 4).output, gold,
                  name + " streamed");
  }
}

INSTANTIATE_TEST_SUITE_P(
    FormatsAndDispatch, PipelineGrid,
    ::testing::Combine(::testing::ValuesIn(kFormats), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<Format, bool>>& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_superblock" : "_fast");
    });

// The channel-pair loop is entered once per output pixel pair and runs
// one backedge per call at 2-bit outputs, so its heat counter has to
// survive the one-shot im2col hardware loops that run between calls. Each
// format's XpulpNN kernel must end up running it as a loop nest.
class PipelineNesting : public ::testing::TestWithParam<Format> {};

TEST_P(PipelineNesting, ChannelLoopFusesAroundInnerLoops) {
  const Format f = GetParam();
  qnn::ConvSpec spec = qnn::ConvSpec::small_layer(f.in_bits);
  spec.w_bits = f.w_bits;
  spec.out_bits = f.out_bits;
  const auto data = ConvLayerData::random(spec, 0x9d + f.in_bits * f.w_bits);
  const ConvVariant v = spec.in_bits != spec.w_bits
                            ? ConvVariant::kXpulpNN_Mixed
                        : spec.in_bits == 8 ? ConvVariant::kXpulpV2_8b
                                            : ConvVariant::kXpulpNN_HwQ;
  sim::CoreConfig cfg = sim::CoreConfig::extended();
  cfg.superblock = true;
  sim::SuperblockStats sb;
  const auto res = kernels::run_conv_layer(
      data, v, cfg, {}, {},
      [&](sim::Core& core, const ConvKernel&) {
        sb = core.superblock_stats();
      });
  expect_golden(res.output, data.golden(), kernels::variant_name(v));
  EXPECT_GT(sb.nested_entries, 0u) << kernels::variant_name(v);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, PipelineNesting, ::testing::ValuesIn(kFormats),
    [](const ::testing::TestParamInfo<Format>& info) {
      return std::string(info.param.name);
    });

// ---- one fault diagnostic ----

/// Overwrite the first word of `k`'s matmul region with an illegal
/// encoding, through the core's own memory.
void plant_illegal_in_matmul(sim::Core& core, const ConvKernel& k) {
  for (int id = 0; id < k.regions.size(); ++id) {
    if (k.regions.name(id) != "matmul") continue;
    core.memory().store_u32(k.regions.ranges(id).front().first, 0xffffffffu);
    core.invalidate_decode_cache();
  }
}

std::string fault_message(const std::function<void()>& run) {
  try {
    run();
  } catch (const SimError& e) {
    return e.what();
  }
  return "no fault";
}

TEST(LayerPipeline, ProgramsOutgrowingTheirSlotsAreRefusedByName) {
  // The 2-bit baseline kernel of the paper layer is too large for the
  // per-core and per-tile code slots: each multi-program runner names the
  // first two images that collide instead of loading one over the other.
  const auto data = ConvLayerData::random(qnn::ConvSpec::paper_layer(2), 9);
  const auto v = ConvVariant::kXpulpV2_Sub;
  for (const int cores : {2, 4}) {
    cluster::ClusterConfig ccfg;
    ccfg.num_cores = cores;
    const std::string msg =
        fault_message([&] { cluster::run_parallel_conv(data, v, ccfg); });
    EXPECT_EQ(msg.find("program images overlap: core 0 program [0x0, 0x"),
              0u)
        << msg;
    EXPECT_NE(msg.find("and core 1 program [0x4000, 0x"), std::string::npos)
        << msg;
  }
  const std::string msg = fault_message([&] {
    soc::run_conv_streamed(data, v, sim::CoreConfig::extended(), 16);
  });
  EXPECT_EQ(msg.find("program images overlap: tile 0 program [0x0, 0x"), 0u)
      << msg;
  EXPECT_NE(msg.find("and tile 1 program [0x6000, 0x"), std::string::npos)
      << msg;
}

TEST(LayerPipeline, GuestFaultNamesTargetVariantPcAndRegion) {
  const auto data = ConvLayerData::random(qnn::ConvSpec::small_layer(4), 5);
  const auto v = ConvVariant::kXpulpNN_HwQ;
  const auto cfg = sim::CoreConfig::extended();
  const auto plant = [](sim::Core& c, const ConvKernel& k) {
    plant_illegal_in_matmul(c, k);
  };

  const std::string core_msg = fault_message(
      [&] { kernels::run_conv_layer(data, v, cfg, {}, plant); });
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 2;
  const std::string cluster_msg = fault_message([&] {
    cluster::run_parallel_conv(
        data, v, ccfg,
        [](cluster::Cluster& cl, const std::vector<ConvKernel>& ks) {
          plant_illegal_in_matmul(cl.core(1), ks[1]);
        });
  });
  const std::string streamed_msg = fault_message([&] {
    soc::run_conv_streamed(data, v, cfg, 4, true, 4, nullptr, plant);
  });

  for (const auto& [msg, target] :
       {std::pair{core_msg, "core (xpulpnn-hwquant)"},
        std::pair{cluster_msg, "cluster core 1 (xpulpnn-hwquant)"},
        std::pair{streamed_msg, "streamed tile 0 (xpulpnn-hwquant)"}}) {
    EXPECT_EQ(msg.find(target), 0u) << msg;
    EXPECT_NE(msg.find("faulted at pc 0x"), std::string::npos) << msg;
    EXPECT_NE(msg.find("in region matmul"), std::string::npos) << msg;
    EXPECT_NE(msg.find("illegal instruction 0xffffffff"), std::string::npos)
        << msg;
  }
}

TEST(LayerPipeline, EveryRunnerRejectsAnUnsupportedVariantByName) {
  // The variant check runs before any code is generated, so RI5CY reports
  // the missing extension instead of trapping on its first XpulpNN word.
  const auto data = ConvLayerData::random(qnn::ConvSpec::small_layer(4), 6);
  const auto v = ConvVariant::kXpulpNN_HwQ;
  const auto ri5cy = sim::CoreConfig::ri5cy();
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 2;
  ccfg.core = ri5cy;
  const std::string want = "variant xpulpnn-hwquant is not supported by core";
  for (const std::string& msg :
       {fault_message([&] { kernels::run_conv_layer(data, v, ri5cy); }),
        fault_message([&] { cluster::run_parallel_conv(data, v, ccfg); }),
        fault_message([&] { soc::run_conv_streamed(data, v, ri5cy, 4); })}) {
    EXPECT_NE(msg.find(want), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace xpulp
