// End-to-end kernel integration: every variant on every legal core and
// bitwidth must reproduce the golden layer bit-exactly, across layer
// geometries (padding patterns, channel counts, pointwise convs).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/profiler.hpp"

namespace xpulp::kernels {
namespace {

using qnn::ConvSpec;

struct Case {
  ConvSpec spec;
  ConvVariant variant;
  bool extended_core;
  const char* name;
};

ConvSpec spec(unsigned bits, int h, int w, int cin, int cout, int k = 3,
              int pad = 1, int stride = 1) {
  ConvSpec s;
  s.in_h = h;
  s.in_w = w;
  s.in_c = cin;
  s.out_c = cout;
  s.k_h = s.k_w = k;
  s.pad = pad;
  s.stride = stride;
  s.in_bits = s.w_bits = s.out_bits = bits;
  return s;
}

std::vector<Case> cases() {
  std::vector<Case> v;
  const ConvSpec n4 = ConvSpec::small_layer(4);
  const ConvSpec c2 = ConvSpec::small_layer(2);
  // 8-bit on both cores.
  v.push_back({spec(8, 6, 6, 8, 4), ConvVariant::kXpulpV2_8b, true, "v8_ext"});
  v.push_back({spec(8, 6, 6, 8, 4), ConvVariant::kXpulpV2_8b, false, "v8_base"});
  v.push_back({spec(8, 4, 4, 4, 2), ConvVariant::kXpulpV2_8b, true, "v8_tiny"});
  // 4-bit, all three kernel flavours.
  v.push_back({n4, ConvVariant::kXpulpNN_HwQ, true, "n4_hw"});
  v.push_back({n4, ConvVariant::kXpulpNN_SwQ, true, "n4_sw"});
  v.push_back({n4, ConvVariant::kXpulpV2_Sub, false, "n4_basesub"});
  v.push_back({n4, ConvVariant::kXpulpV2_SubShf, false, "n4_baseshf"});
  // 2-bit.
  v.push_back({c2, ConvVariant::kXpulpNN_HwQ, true, "c2_hw"});
  v.push_back({c2, ConvVariant::kXpulpNN_SwQ, true, "c2_sw"});
  v.push_back({c2, ConvVariant::kXpulpV2_Sub, false, "c2_basesub"});
  // Pointwise (1x1, no padding) and larger channel counts.
  v.push_back({spec(4, 4, 4, 32, 8, 1, 0), ConvVariant::kXpulpNN_HwQ, true, "n4_1x1"});
  v.push_back({spec(2, 4, 4, 32, 8, 1, 0), ConvVariant::kXpulpNN_HwQ, true, "c2_1x1"});
  v.push_back({spec(8, 4, 4, 16, 6, 1, 0), ConvVariant::kXpulpV2_8b, true, "v8_1x1"});
  // Stride-2 downsampling conv.
  v.push_back({spec(4, 8, 8, 8, 4, 3, 1, 2), ConvVariant::kXpulpNN_HwQ, true, "n4_s2"});
  return v;
}

class ConvKernelMatchesGolden : public ::testing::TestWithParam<Case> {};

TEST_P(ConvKernelMatchesGolden, BitExact) {
  const Case& c = GetParam();
  const auto cfg = c.extended_core ? sim::CoreConfig::extended()
                                   : sim::CoreConfig::ri5cy();
  const auto data = ConvLayerData::random(c.spec, 0xfeed + c.spec.in_bits);
  const auto res = run_conv_layer(data, c.variant, cfg);
  const auto m = qnn::first_mismatch(res.output, data.golden());
  EXPECT_FALSE(m) << m->to_string();
  EXPECT_EQ(res.macs, c.spec.macs());
  EXPECT_GT(res.perf.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ConvKernelMatchesGolden,
                         ::testing::ValuesIn(cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return std::string(info.param.name);
                         });

TEST(ConvKernels, FirstMismatchNamesTheCorruptedElement) {
  // after_run flips one output byte while the core is alive: the verdict
  // must name that element's coordinate and both values.
  const ConvSpec s = ConvSpec::small_layer(8);  // one byte per element
  const auto data = ConvLayerData::random(s, 21);
  const int oy = 4, ox = 1, oc = 5;
  const auto res = run_conv_layer(
      data, ConvVariant::kXpulpV2_8b, sim::CoreConfig::extended(), {}, {},
      [&](sim::Core& c, const ConvKernel& k) {
        const int i = (oy * s.out_w() + ox) * s.out_c + oc;
        const addr_t a = k.layout.output + static_cast<addr_t>(i);
        c.memory().store_u8(a, c.memory().load_u8(a) ^ 0x10);
      });
  const auto gold = data.golden();
  const auto m = qnn::first_mismatch(res.output, gold);
  ASSERT_TRUE(m);
  EXPECT_EQ(*m, (qnn::Mismatch{oy, ox, oc, gold.at(oy, ox, oc) ^ 0x10,
                               gold.at(oy, ox, oc)}));
  EXPECT_FALSE(qnn::first_mismatch(gold, gold));
}

TEST(ConvKernels, HwQuantIsFasterThanSwQuant) {
  const auto s = ConvSpec::small_layer(4);
  const auto data = ConvLayerData::random(s, 9);
  // Re-quantization cycles, attributed by a profiler attached through the
  // runner's hooks.
  u64 hw_quant = 0, sw_quant = 0;
  const auto run = [&](ConvVariant v, u64& quant) {
    std::optional<obs::Profiler> prof;
    const auto res = run_conv_layer(
        data, v, sim::CoreConfig::extended(), {},
        [&](sim::Core& c, const ConvKernel& k) { prof.emplace(c, k.regions); },
        [&](sim::Core&, const ConvKernel&) { prof->finalize(); });
    quant = prof->region_cycles("quant");
    return res;
  };
  const auto hw = run(ConvVariant::kXpulpNN_HwQ, hw_quant);
  const auto sw = run(ConvVariant::kXpulpNN_SwQ, sw_quant);
  EXPECT_LT(hw.perf.cycles, sw.perf.cycles);
  // Both quantization flavours attribute nonzero cycles.
  EXPECT_GT(hw_quant, 0u);
  EXPECT_GT(sw_quant, hw_quant);
  EXPECT_GT(hw.perf.qnt_ops, 0u);
  EXPECT_EQ(sw.perf.qnt_ops, 0u);
}

TEST(ConvKernels, ExtensionSpeedupOrdering) {
  // XpulpNN sub-byte kernels must beat the packed baseline by a wide
  // margin, and 2-bit must beat 4-bit which must beat 8-bit (Fig. 6).
  const auto d8 = ConvLayerData::random(ConvSpec::small_layer(8), 1);
  const auto d4 = ConvLayerData::random(ConvSpec::small_layer(4), 1);
  const auto d2 = ConvLayerData::random(ConvSpec::small_layer(2), 1);
  const auto ext = sim::CoreConfig::extended();
  const auto base = sim::CoreConfig::ri5cy();
  const auto c8 = run_conv_layer(d8, ConvVariant::kXpulpV2_8b, ext).perf.cycles;
  const auto c4 = run_conv_layer(d4, ConvVariant::kXpulpNN_HwQ, ext).perf.cycles;
  const auto c2 = run_conv_layer(d2, ConvVariant::kXpulpNN_HwQ, ext).perf.cycles;
  const auto b4 = run_conv_layer(d4, ConvVariant::kXpulpV2_Sub, base).perf.cycles;
  const auto b2 = run_conv_layer(d2, ConvVariant::kXpulpV2_Sub, base).perf.cycles;
  EXPECT_LT(c4, c8);
  EXPECT_LT(c2, c4);
  EXPECT_GT(static_cast<double>(b4) / c4, 3.0);
  EXPECT_GT(static_cast<double>(b2) / c2, 5.0);
}

TEST(ConvKernels, HardwareLoopsCarryTheInnerLoop) {
  const auto data = ConvLayerData::random(spec(4, 4, 4, 16, 4), 2);
  const auto res = run_conv_layer(data, ConvVariant::kXpulpNN_HwQ,
                                  sim::CoreConfig::extended());
  // inner hw loop: out_h*out_w/2 pixel pairs * out_c/2 pairs * (iters-1).
  EXPECT_GT(res.perf.hwloop_backedges,
            static_cast<u64>(4 * 4 / 2) * (4 / 2) * 10);
  EXPECT_GT(res.perf.dotp_ops[2], 0u);  // nibble region exercised
}

TEST(ConvKernels, UnsupportedVariantThrows) {
  const auto data = ConvLayerData::random(spec(4, 4, 4, 8, 4), 3);
  EXPECT_THROW(run_conv_layer(data, ConvVariant::kXpulpNN_HwQ,
                              sim::CoreConfig::ri5cy()),
               SimError);
}

TEST(ConvKernels, ParseVariantAcceptsExactlyTheCliNames) {
  const std::pair<const char*, ConvVariant> names[] = {
      {"8b", ConvVariant::kXpulpV2_8b},
      {"sub", ConvVariant::kXpulpV2_Sub},
      {"subshf", ConvVariant::kXpulpV2_SubShf},
      {"swq", ConvVariant::kXpulpNN_SwQ},
      {"hwq", ConvVariant::kXpulpNN_HwQ},
  };
  for (const auto& [name, want] : names) {
    ConvVariant v = ConvVariant::kXpulpNN_Mixed;
    EXPECT_TRUE(parse_variant(name, v)) << name;
    EXPECT_EQ(v, want) << name;
  }
  for (const char* bad : {"", "mixed", "HWQ", "hwq "}) {
    ConvVariant v = ConvVariant::kXpulpNN_Mixed;
    EXPECT_FALSE(parse_variant(bad, v)) << '"' << bad << '"';
    EXPECT_EQ(v, ConvVariant::kXpulpNN_Mixed) << '"' << bad << '"';
  }
}

TEST(ConvKernels, ShuffleUnpackBeatsNaiveButNotTheExtension) {
  const auto data = ConvLayerData::random(ConvSpec::small_layer(4), 12);
  const auto ext = run_conv_layer(data, ConvVariant::kXpulpNN_HwQ,
                                  sim::CoreConfig::extended());
  const auto naive = run_conv_layer(data, ConvVariant::kXpulpV2_Sub,
                                    sim::CoreConfig::ri5cy());
  const auto shf = run_conv_layer(data, ConvVariant::kXpulpV2_SubShf,
                                  sim::CoreConfig::ri5cy());
  EXPECT_LT(shf.perf.cycles, naive.perf.cycles);
  EXPECT_GT(static_cast<double>(shf.perf.cycles),
            2.0 * static_cast<double>(ext.perf.cycles));
  // The ablation is 4-bit only.
  const auto d2 = ConvLayerData::random(ConvSpec::small_layer(2), 13);
  EXPECT_THROW(run_conv_layer(d2, ConvVariant::kXpulpV2_SubShf,
                              sim::CoreConfig::ri5cy()),
               SimError);
}

TEST(ConvKernels, GeneratorRejectsBadGeometry) {
  // Odd output width: the error names the 2x2 blocking that needs it.
  auto s = spec(4, 5, 5, 16, 8, 3, 0);
  try {
    generate_conv_kernel(s, ConvVariant::kXpulpNN_HwQ);
    ADD_FAILURE() << "odd output width accepted";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("2x2 blocking"), std::string::npos)
        << e.what();
  }
  // Channel block not word-aligned for 4-bit (in_c * 4 % 32 != 0).
  s = spec(4, 6, 6, 4, 8);
  EXPECT_THROW(generate_conv_kernel(s, ConvVariant::kXpulpNN_HwQ), SimError);
  // Mismatched variant/bitwidth.
  s = spec(8, 6, 6, 8, 4);
  EXPECT_THROW(generate_conv_kernel(s, ConvVariant::kXpulpNN_HwQ), SimError);
}

TEST(ConvKernels, MemLayoutIsDisjointAndOrdered) {
  const auto s = qnn::ConvSpec::paper_layer(4);
  const auto l = ConvMemLayout::plan(s, ConvVariant::kXpulpNN_HwQ, 0x40000);
  EXPECT_LT(l.input, l.weights);
  EXPECT_LT(l.weights, l.thresholds);
  EXPECT_LT(l.thresholds, l.buf0);
  EXPECT_LT(l.buf0, l.buf1);
  EXPECT_LT(l.buf1, l.output);
  EXPECT_EQ(l.filter_stride, 144u);
  EXPECT_EQ(l.output_bytes, 16u * 16 * 64 / 2);
  // Everything fits in the 512 kB TCDM.
  EXPECT_LT(l.output + l.output_bytes, 512u * 1024u);
}

TEST(ConvKernels, DifferentSeedsDifferentDataSameShape) {
  const auto s = spec(4, 4, 4, 8, 4);
  const auto a = ConvLayerData::random(s, 1);
  const auto b = ConvLayerData::random(s, 2);
  EXPECT_NE(a.input.data(), b.input.data());
  EXPECT_EQ(ConvLayerData::random(s, 1).input.data(), a.input.data());
}

}  // namespace
}  // namespace xpulp::kernels
