// xlint integration with the kernel generators and the simulator:
//   - every generated paper kernel (conv/pool/linear, both ISAs) must
//     analyze clean;
//   - the opt-in pre-run gate lets clean programs run and rejects broken
//     images at reset time;
//   - regression: ConvGenOptions::use_hwloops=false must produce a kernel
//     with zero hardware-loop instructions (the im2col helpers used to
//     emit lp.setupi unconditionally; the analyzer caught it).
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "analysis/kernel_sweep.hpp"
#include "isa/decoder.hpp"
#include "kernels/conv_layer.hpp"
#include "mem/memory.hpp"
#include "sim/core.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::analysis {
namespace {

namespace r = xasm::reg;

TEST(XlintKernels, AllGeneratedPaperKernelsAnalyzeClean) {
  const auto checks = analyze_paper_kernels();
  ASSERT_GE(checks.size(), 20u);
  bool any_hwloops = false;
  for (const KernelCheck& c : checks) {
    EXPECT_TRUE(c.report.clean()) << c.name << ":\n" << c.report.to_string();
    EXPECT_GT(c.report.instr_count, 0u) << c.name;
    any_hwloops |= c.report.hwloop_count > 0;
  }
  EXPECT_TRUE(any_hwloops);  // the matrix includes hwloop kernels
}

TEST(XlintKernels, PreRunGateAcceptsCleanProgram) {
  xasm::Assembler a(0);
  a.li(r::a0, 0);
  const auto end = a.new_label();
  a.lp_setupi(0, 5, end);
  a.addi(r::a0, r::a0, 2);
  a.addi(r::a0, r::a0, 1);
  a.bind(end);
  a.ecall();
  const xasm::Program prog = a.finish();

  mem::Memory mem(64 * 1024);
  prog.load(mem);
  sim::Core core(mem, sim::CoreConfig::extended());
  core.set_pre_run_gate(make_pre_run_gate({}));
  ASSERT_NO_THROW(core.reset(prog.entry(), prog.size_bytes()));
  EXPECT_EQ(core.run(), sim::HaltReason::kEcall);
  EXPECT_EQ(core.reg(r::a0), 15u);
}

TEST(XlintKernels, PreRunGateRejectsBrokenProgram) {
  xasm::Assembler a(0);
  a.add(r::a0, r::a1, r::a2);  // a1/a2 never initialized
  a.ecall();
  const xasm::Program prog = a.finish();

  mem::Memory mem(64 * 1024);
  prog.load(mem);
  sim::Core core(mem, sim::CoreConfig::extended());
  core.set_pre_run_gate(make_pre_run_gate({}));
  try {
    core.reset(prog.entry(), prog.size_bytes());
    FAIL() << "gate did not reject the uninitialized read";
  } catch (const AnalysisError& e) {
    EXPECT_GE(e.report().count(DiagKind::kUninitRead), 1u);
    EXPECT_NE(std::string(e.what()).find("pre-run analysis failed"),
              std::string::npos);
  }
}

TEST(XlintKernels, GateIsOptIn) {
  // Without a registered gate (or without a known code extent) reset must
  // behave exactly as before.
  xasm::Assembler a(0);
  a.add(r::a0, r::a1, r::a2);
  a.ecall();
  const xasm::Program prog = a.finish();

  mem::Memory mem(64 * 1024);
  prog.load(mem);
  sim::Core no_gate(mem, sim::CoreConfig::extended());
  ASSERT_NO_THROW(no_gate.reset(prog.entry(), prog.size_bytes()));

  sim::Core gated(mem, sim::CoreConfig::extended());
  gated.set_pre_run_gate(make_pre_run_gate({}));
  ASSERT_NO_THROW(gated.reset(prog.entry()));  // no code_end: gate skipped
}

TEST(XlintKernels, GateOptionsMirrorCoreConfig) {
  // A baseline-ISA gate must reject an XpulpNN kernel image.
  xasm::Assembler a(0);
  a.li(r::a0, 1);
  a.li(r::a1, 2);
  a.li(r::a2, 0);
  a.pv_sdotsp(isa::SimdFmt::kN, r::a2, r::a0, r::a1);
  a.ecall();
  const xasm::Program prog = a.finish();

  sim::CoreConfig base_cfg;  // defaults: no Xpulp extensions
  base_cfg.xpulpv2 = false;
  base_cfg.xpulpnn = false;
  base_cfg.hwloops = false;
  mem::Memory mem(64 * 1024);
  prog.load(mem);
  sim::Core core(mem, sim::CoreConfig::extended());
  core.set_pre_run_gate(
      make_pre_run_gate(AnalyzerOptions::for_core(base_cfg)));
  try {
    core.reset(prog.entry(), prog.size_bytes());
    FAIL() << "gate accepted an XpulpNN op for a baseline core";
  } catch (const AnalysisError& e) {
    EXPECT_GE(e.report().count(DiagKind::kMissingIsaFeature), 1u);
  }
}

// Regression for the bug the kernel sweep surfaced: with use_hwloops=false
// the im2col helpers (zero-fill / copy / unpack) still emitted lp.setupi.
TEST(XlintKernels, NoHwloopOptionEmitsNoHwloopInstructions) {
  const qnn::ConvSpec spec = qnn::ConvSpec::small_layer(4);

  auto count_hwloop_ops = [](const xasm::Program& p) {
    size_t n = 0;
    for (u32 i = 0; i < p.size_words(); ++i) {
      const isa::Instr in = isa::decode(p.words()[i], p.base() + i * 4);
      switch (in.op) {
        case isa::Mnemonic::kLpStarti:
        case isa::Mnemonic::kLpEndi:
        case isa::Mnemonic::kLpCount:
        case isa::Mnemonic::kLpCounti:
        case isa::Mnemonic::kLpSetup:
        case isa::Mnemonic::kLpSetupi:
          ++n;
          break;
        default:
          break;
      }
    }
    return n;
  };

  kernels::ConvGenOptions no_loops;
  no_loops.use_hwloops = false;
  const auto ablated = kernels::generate_conv_kernel(
      spec, kernels::ConvVariant::kXpulpNN_HwQ, 0x40000, no_loops);
  EXPECT_EQ(count_hwloop_ops(ablated.program), 0u);

  // Control: the default generator does use hardware loops here.
  const auto normal = kernels::generate_conv_kernel(
      spec, kernels::ConvVariant::kXpulpNN_HwQ, 0x40000);
  EXPECT_GT(count_hwloop_ops(normal.program), 0u);

  // And the ablated kernel still verifies clean for a hwloop-less core.
  AnalyzerOptions opt;
  opt.hwloops = false;
  opt.assume_initialized = 1u | (1u << r::sp);
  const auto rep = ProgramAnalyzer(opt).analyze(ablated.program);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

}  // namespace
}  // namespace xpulp::analysis
