// Every table and figure of the paper's evaluation plus the ablations of
// its design choices (DESIGN.md §5, §7), printed from one run matrix: the
// paper layer on the extended core, RI5CY and the extended core without
// power management (bit widths x kernel variants x generator options), on
// the Cortex-M4/M7 models, and the GP application. Each configuration runs
// once; every conv output is compared with the golden model, every GP run
// with its checksum, every profiled run's regions with its cycles, and a
// failure names its run and exits non-zero.
//
// Then the extensions beyond the paper, each golden-checked too: the
// mixed-precision mpc formats (Ottavi et al., arXiv 2010.04073; a run that
// leaks into another format or runs over 1.05x the uniform kernel at its
// activation width fails), the paper layer on a 1-16 core cluster
// (PULP-NN, arXiv 1908.11263) and uDMA weight streaming.
//
// Writes BENCH_paper.json: modelled numbers only (no host time), so the
// file is deterministic. The bench_paper_pinned test compares a fresh copy
// byte for byte with the one committed at the repo root.
#include "bench_util.hpp"
#include "cluster/parallel_conv.hpp"
#include "soc/streamed_conv.hpp"

using namespace xpulp;
using namespace xpulp::bench;
using armv7e::ArmModel;
using kernels::ConvGenOptions;
using V = kernels::ConvVariant;

namespace {

const sim::CoreConfig kExt = sim::CoreConfig::extended();
const sim::CoreConfig kBase = sim::CoreConfig::ri5cy();
const sim::CoreConfig kNopm = extended_nopm();
constexpr unsigned kWidths[] = {8, 4, 2};

/// The paper's kernel for `bits` on the extended core and on RI5CY.
V ext_kernel(unsigned b) { return b == 8 ? V::kXpulpV2_8b : V::kXpulpNN_HwQ; }
V base_kernel(unsigned b) { return b == 8 ? V::kXpulpV2_8b : V::kXpulpV2_Sub; }

struct Ablation {
  const char* label;
  const char* key;
  ConvGenOptions opts;
};
// Generator knobs (DESIGN.md §7): hardware loop vs branch loop, and 2x2
// blocking (2 filters x 2 pixels, 4 accumulators) vs 2x1.
const Ablation kAblations[] = {
    {"full (hwloop, 2x2)", "full", {true, 2}},
    {"no hardware loop", "branch_loop", {false, 2}},
    {"2x1 blocking", "block_2x1", {true, 1}},
    {"neither", "branch_loop_2x1", {false, 1}},
};

/// The mixed-precision formats (mpc selectors 0-2): activation x weight
/// bits.
struct MixedFormat {
  unsigned in, w;
};
constexpr MixedFormat kMixed[] = {{8, 4}, {8, 2}, {4, 2}};

std::string bkey(unsigned bits) { return std::to_string(bits) + "b"; }
unsigned long long ull(u64 v) { return v; }
double pct_over(double a, double b) { return (a / b - 1) * 100; }

/// Publish a printed figure under `key` and return it for printing. Keep
/// one pin per statement: argument evaluation order is unspecified, and the
/// registry keeps insertion order.
double pin(obs::Registry& reg, const std::string& key, double v) {
  reg.gauge(key, v);
  return v;
}

/// Run every configuration once, in matrix order. The paper's kernels on
/// the extended core (Fig. 6) run profiled: their per-region cycle split
/// explains the sub-byte scaling and pv.qnt gaps.
void run_matrix(PaperRuns& runs) {
  for (unsigned b : kWidths) {
    runs.conv(b, ext_kernel(b), kExt, {}, true);
    if (b != 8) runs.conv(b, V::kXpulpNN_SwQ, kExt, {}, true);
    for (const Ablation& a : kAblations) {
      runs.conv(b, ext_kernel(b), kExt, a.opts);
    }
    runs.conv(b, ext_kernel(b), kNopm);
    runs.conv(b, base_kernel(b), kBase);
    runs.arm(b, ArmModel::kCortexM4);
    runs.arm(b, ArmModel::kCortexM7);
  }
  runs.conv(4, V::kXpulpV2_SubShf, kBase);
  for (const auto& cfg : {kBase, kNopm, kExt}) runs.gp(cfg);
  for (const MixedFormat m : kMixed) {
    runs.conv(paper_layer(m.in, m.w), V::kXpulpNN_Mixed, kExt, {}, true);
  }
}

/// Print the matrix, check every run and publish its modelled fields under
/// "runs.<id>". Returns false if any run failed its check.
bool check_runs(const PaperRuns& runs, obs::Registry& reg) {
  print_header("Run matrix -- every configuration, run once");
  std::printf("\n%-42s %10s %9s %9s %8s\n", "run", "cycles", "MAC/cyc",
              "mW", "check");
  bool all_ok = true;
  for (const auto& [id, r] : runs.all()) {
    bool ok = r.output_ok;
    if (r.profile) {
      u64 sum = 0;
      for (const auto& rs : r.profile->region_stats()) sum += rs.stat.cycles;
      ok = ok && sum == r.cycles && r.profile->total().cycles == r.cycles;
    }
    std::printf("%-42s %10llu %9.2f %9.3f %8s\n", id.c_str(), ull(r.cycles),
                r.macs_per_cycle(), r.power_mw, okstr(ok));
    if (!ok) {
      std::fprintf(stderr, "bench_paper: run %s failed its %s check\n",
                   id.c_str(), r.output_ok ? "region-sum" : "golden-output");
    }
    all_ok = all_ok && ok;

    const std::string pre = "runs." + id;
    reg.counter(pre + ".cycles", r.cycles);
    if (r.macs) {
      reg.counter(pre + ".macs", r.macs);
      reg.gauge(pre + ".macs_per_cycle", r.macs_per_cycle());
      reg.gauge(pre + ".gmac_s_w", r.gmac_s_w());
    }
    if (r.core_mw > 0) reg.gauge(pre + ".core_mw", r.core_mw);
    reg.gauge(pre + ".soc_mw", r.power_mw);
    if (r.profile) {
      reg.counter(pre + ".quant_cycles", r.quant_cycles);
      reg.counter(pre + ".qnt_stall_cycles", r.perf.qnt_stall_cycles);
      r.profile->add_to_registry(reg, pre + ".profile");
    }
  }
  return all_ok;
}

void table1(PaperRuns& runs, obs::Registry& reg) {
  print_header("Table I -- QNN embedded computing platforms");
  // "This Work": throughput/efficiency range across the 8- and 2-bit
  // kernels on the extended core (Gop = 2 x MAC, the paper's convention).
  const auto& r8 = runs.conv(8, ext_kernel(8), kExt);
  const auto& r2 = runs.conv(2, ext_kernel(2), kExt);
  const char* rows[][5] = {
      {"platform", "perf [Gop/s]", "eff [Gop/s/W]", "power [mW]",
       "flexibility"},
      {"ASICs", "1K - 50K", "10K - 100K", "1 - 1K", "low"},
      {"FPGAs", "10 - 200", "1 - 10", "1 - 1K", "medium"},
      {"MCUs", "0.1 - 2", "1 - 50", "1 - 1K", "high"}};
  std::printf("\n");
  for (const auto& r : rows) {
    std::printf("%-14s %16s %18s %14s %12s\n", r[0], r[1], r[2], r[3], r[4]);
  }
  const double gops_lo = pin(reg, "table1.gop_s.lo",
                             2.0 * r8.macs_per_cycle() * r8.freq_hz * 1e-9);
  const double gops_hi = pin(reg, "table1.gop_s.hi",
                             2.0 * r2.macs_per_cycle() * r2.freq_hz * 1e-9);
  const double eff_lo = pin(reg, "table1.gop_s_w.lo", 2.0 * r8.gmac_s_w());
  const double eff_hi = pin(reg, "table1.gop_s_w.hi", 2.0 * r2.gmac_s_w());
  std::printf("%-14s %9.1f - %4.1f %11.0f - %4.0f %14.1f %12s   <- measured\n",
              "This Work", gops_lo, gops_hi, eff_lo, eff_hi,
              pin(reg, "table1.power_mw", r2.power_mw), "high");
  std::printf("\n(paper's This-Work row: 1 - 5 Gop/s, 80 - 550 Gop/s/W, "
              "1 - 100 mW)\n");
}

void table3(PaperRuns& runs, obs::Registry& reg) {
  print_header("Table III -- area and power (22FDX model, 0.65 V TT, 250 MHz)");
  std::printf("\nArea [um^2] (overhead vs baseline):      paper overhead:\n");
  std::printf("%-10s %10s %18s %18s\n", "", "RI5CY", "Ext. no-PM", "Ext. PM");
  const double paper[][2] = {
      {8.59, 11.1}, {18.3, 19.9}, {1.0, 5.0}, {17.1, 18.4}, {17.9, 14.1}};
  const auto table = power::area_table();
  for (size_t i = 0; i < table.size(); ++i) {
    const auto& row = table[i];
    std::string key = "area." + row.component;
    std::replace(key.begin(), key.end(), ' ', '_');
    pin(reg, key + ".ri5cy_um2", row.ri5cy_um2);
    pin(reg, key + ".ext_nopm_um2", row.ext_nopm_um2);
    pin(reg, key + ".ext_pm_um2", row.ext_pm_um2);
    const double nopm = pin(reg, key + ".nopm_overhead_pct",
                            pct_over(row.ext_nopm_um2, row.ri5cy_um2));
    const double pm = pin(reg, key + ".pm_overhead_pct",
                          pct_over(row.ext_pm_um2, row.ri5cy_um2));
    std::printf("%-10s %10.1f %10.1f (%4.1f%%) %10.1f (%4.1f%%)   "
                "[%4.1f%% / %4.1f%%]\n",
                row.component.c_str(), row.ri5cy_um2, row.ext_nopm_um2, nopm,
                row.ext_pm_um2, pm, paper[i][0], paper[i][1]);
  }

  const auto& c_base = runs.conv(8, V::kXpulpV2_8b, kBase);
  const auto& c_nopm = runs.conv(8, V::kXpulpV2_8b, kNopm);
  const auto& c_pm = runs.conv(8, V::kXpulpV2_8b, kExt);
  std::printf("\nCore power on 8-bit MatMul [mW]      (paper)\n");
  std::printf("  RI5CY:            %6.3f            (1.15)\n", c_base.core_mw);
  std::printf("  Ext., no PM:      %6.3f            (1.41)  "
              "[model diverges: see EXPERIMENTS.md]\n", c_nopm.core_mw);
  std::printf("  Ext., PM:         %6.3f            (1.22)\n", c_pm.core_mw);
  std::printf("  PM overhead vs baseline: %.1f%%     (paper: 5.9%%)\n",
              pin(reg, "table3.pm_core_overhead_pct",
                  pct_over(c_pm.core_mw, c_base.core_mw)));

  const auto& g_base = runs.gp(kBase);
  const auto& g_pm = runs.gp(kExt);
  const auto& g_np = runs.gp(kNopm);
  const double gp_nopm = pin(reg, "table3.gp_nopm_penalty_pct",
                             pct_over(g_np.power_mw, g_pm.power_mw));
  std::printf("\nPULPissimo SoC power [mW]            RI5CY    no-PM     PM"
              "    (paper)\n");
  std::printf("  8-bit MatMul:   %9.2f %8.2f %7.2f   (5.93 / 6.28 / 6.04)\n",
              c_base.power_mw, c_nopm.power_mw, c_pm.power_mw);
  for (unsigned b : {4u, 2u}) {
    std::printf("  %u-bit MatMul:   %9s %8.2f %7.2f   %s\n", b, "-",
                runs.conv(b, ext_kernel(b), kNopm).power_mw,
                runs.conv(b, ext_kernel(b), kExt).power_mw,
                b == 4 ? "(  -  / 8.14 / 5.71)" : "(  -  / 8.99 / 5.87)");
  }
  std::printf("  GP application: %9.2f %8.2f %7.2f   (5.65 / 8.20 / 5.85)\n",
              g_base.power_mw, g_np.power_mw, g_pm.power_mw);
  std::printf("\n  GP no-PM penalty: %.1f%% (paper: 45.2%%);"
              "  GP PM penalty: %.1f%% (paper: 3.5%%)\n",
              gp_nopm, pin(reg, "table3.gp_pm_penalty_pct",
                           pct_over(g_pm.power_mw, g_base.power_mw)));
}

void fig6(PaperRuns& runs, obs::Registry& reg) {
  print_header("Fig. 6 -- sub-byte scaling and pv.qnt impact (extended core)");
  const auto& r8 = runs.conv(8, ext_kernel(8), kExt);
  const auto sw = [&](unsigned b) -> const PlatformResult& {
    return runs.conv(b, V::kXpulpNN_SwQ, kExt);
  };
  const auto hw = [&](unsigned b) -> const PlatformResult& {
    return runs.conv(b, V::kXpulpNN_HwQ, kExt);
  };
  std::printf("\n%-28s %10s %9s %12s %9s\n", "kernel", "cycles", "MAC/cyc",
              "quant-cycles", "check");
  const auto row = [](const std::string& name, const PlatformResult& r) {
    std::printf("%-28s %10llu %9.2f %12llu %9s\n", name.c_str(), ull(r.cycles),
                r.macs_per_cycle(), ull(r.quant_cycles), okstr(r.output_ok));
  };
  row("8-bit (reference)", r8);
  for (unsigned b : {4u, 2u}) {
    row(std::to_string(b) + "-bit + sw-tree quant", sw(b));
    row(std::to_string(b) + "-bit + pv.qnt", hw(b));
  }

  std::printf("\n--- kernel speedup from pv.qnt (paper: 1.21x / 1.16x) ---\n");
  for (unsigned b : {4u, 2u}) {
    std::printf("%u-bit: %.2fx\n", b,
                pin(reg, "fig6.speedup_from_qnt." + bkey(b),
                    ratio(sw(b).cycles, hw(b).cycles)));
  }

  std::printf("\n--- quantization share of total cycles ---\n");
  std::printf("                       quant-code   pv.qnt-only"
              "  (paper: 4%% / 11%%)\n");
  for (unsigned b : {4u, 2u}) {
    const std::string key = "fig6.quant_share_pct." + bkey(b);
    std::printf("%u-bit sw-tree: %10.1f%%\n", b,
                pin(reg, key + "_swq",
                    100.0 * ratio(sw(b).quant_cycles, sw(b).cycles)));
    const double hw_share =
        pin(reg, key + "_hwq", 100.0 * ratio(hw(b).quant_cycles, hw(b).cycles));
    // pv.qnt cycles: its stalls plus one issue cycle per 8 (4-bit) or 4
    // (2-bit) stall cycles.
    const u64 stall = hw(b).perf.qnt_stall_cycles;
    std::printf("%u-bit pv.qnt:  %10.1f%%  %10.1f%%\n", b, hw_share,
                pin(reg, "fig6.qnt_share_pct." + bkey(b),
                    100.0 * ratio(stall + stall / (b == 4 ? 8 : 4),
                                  hw(b).cycles)));
  }

  std::printf("\n--- scaling vs 8-bit (paper: 'almost linear') ---\n");
  for (unsigned b : {4u, 2u}) {
    std::printf("%u-bit speedup over 8-bit: %.2fx (linear would be %ux)\n", b,
                pin(reg, "fig6.scaling_vs_8b." + bkey(b),
                    ratio(r8.cycles, hw(b).cycles)),
                8 / b);
  }
}

void fig7(PaperRuns& runs, obs::Registry& reg) {
  print_header("Fig. 7 -- energy efficiency: RI5CY vs extended core");
  std::printf("\n%-18s %10s %9s %9s %12s %7s\n", "platform/kernel", "cycles",
              "mW(SoC)", "ms", "GMAC/s/W", "check");
  for (unsigned b : kWidths) {
    const PlatformResult* rs[] = {&runs.conv(b, base_kernel(b), kBase),
                                  &runs.conv(b, ext_kernel(b), kExt)};
    const char* names[] = {"RI5CY", "extended"};
    for (int i = 0; i < 2; ++i) {
      std::printf("%-11s%u-bit   %10llu %9.2f %9.3f %12.1f %7s\n", names[i],
                  b, ull(rs[i]->cycles), rs[i]->power_mw, rs[i]->runtime_ms(),
                  rs[i]->gmac_s_w(), okstr(rs[i]->output_ok));
    }
  }
  std::printf("\n--- efficiency gain extended/baseline (paper: up to 9x)"
              " ---\n");
  for (unsigned b : kWidths) {
    std::printf("%u-bit: %.2fx\n", b,
                pin(reg, "fig7.gain." + bkey(b),
                    runs.conv(b, ext_kernel(b), kExt).gmac_s_w() /
                        runs.conv(b, base_kernel(b), kBase).gmac_s_w()));
  }
  std::printf("\npeak efficiency: %.1f GMAC/s/W (paper: 279 GMAC/s/W)\n",
              pin(reg, "fig7.peak_gmac_s_w",
                  runs.conv(2, ext_kernel(2), kExt).gmac_s_w()));
}

/// Figs. 8 and 9 compare the same four platforms per bit width.
struct SoaRow {
  unsigned bits;
  const PlatformResult* cols[4];  // extended, RI5CY, STM32L4, STM32H7
};

/// `fmt` prints the RISC-V columns, `arm_fmt` the Cortex-M ones.
void soa_table(const std::vector<SoaRow>& rows, const char* fmt,
               const char* arm_fmt, double (*value)(const PlatformResult&)) {
  std::printf("%6s %14s %14s %14s %14s\n", "bits", "this work", "RI5CY",
              "STM32L4(M4)", "STM32H7(M7)");
  for (const SoaRow& e : rows) {
    std::printf("%6u", e.bits);
    for (int i = 0; i < 4; ++i) {
      std::printf(i < 2 ? fmt : arm_fmt, value(*e.cols[i]));
    }
    std::printf("\n");
  }
}

/// Speedup (cycles) or efficiency gain of the extended core over the other
/// three platforms, printed and published under `key`.
void soa_gains(const std::vector<SoaRow>& rows, const std::string& key,
               double (*gain)(const PlatformResult& ext,
                              const PlatformResult& other),
               obs::Registry& reg) {
  std::printf("%6s %12s %12s %12s\n", "bits", "vs RI5CY", "vs M4", "vs M7");
  const char* names[] = {"vs_ri5cy", "vs_m4", "vs_m7"};
  for (const SoaRow& e : rows) {
    std::printf("%6u", e.bits);
    for (int i = 0; i < 3; ++i) {
      std::printf(" %11.1fx",
                  pin(reg, key + "." + bkey(e.bits) + "." + names[i],
                      gain(*e.cols[0], *e.cols[i + 1])));
    }
    std::printf("\n");
  }
}

void fig8_fig9(PaperRuns& runs, obs::Registry& reg) {
  std::vector<SoaRow> rows;
  for (unsigned b : kWidths) {
    rows.push_back({b,
                    {&runs.conv(b, ext_kernel(b), kExt),
                     &runs.conv(b, base_kernel(b), kBase),
                     &runs.arm(b, ArmModel::kCortexM4),
                     &runs.arm(b, ArmModel::kCortexM7)}});
  }
  using R = const PlatformResult&;

  print_header("Fig. 8 -- execution cycles vs state-of-the-art MCUs");
  std::printf("\nexecution cycles (millions):\n");
  soa_table(rows, " %14.3f", " %14.3f", [](R r) { return r.cycles / 1e6; });
  std::printf("\nMAC/cycle:\n");
  soa_table(rows, " %14.2f", " %14.2f",
            [](R r) { return r.macs_per_cycle(); });
  std::printf("\n--- speedup of the extended core (cycles) ---\n");
  soa_gains(rows, "fig8.speedup",
            [](R x, R o) { return ratio(o.cycles, x.cycles); }, reg);
  std::printf("(paper: 5.3x vs RI5CY at 4-bit, 8.9x at 2-bit; ~1 order of\n");
  std::printf(" magnitude vs the ARM MCUs on sub-byte kernels)\n");

  print_header("Fig. 9 -- energy efficiency vs state-of-the-art MCUs");
  std::printf("\nenergy efficiency [GMAC/s/W]:\n");
  soa_table(rows, " %14.1f", " %14.2f", [](R r) { return r.gmac_s_w(); });
  std::printf("\noperating points: this work / RI5CY @ 250 MHz (PULPissimo,\n");
  std::printf("22FDX, 0.65 V); STM32L4 @ 80 MHz, %.1f mW; STM32H7 @ 400 MHz,\n",
              power::stm32l4_platform().power_mw);
  std::printf("%.0f mW (datasheet-derived).\n",
              power::stm32h7_platform().power_mw);
  std::printf("\n--- efficiency gain of the extended core ---\n");
  soa_gains(rows, "fig9.gain",
            [](R x, R o) { return x.gmac_s_w() / o.gmac_s_w(); }, reg);
  std::printf("(paper, 2-bit: 103x vs STM32L4, 354x vs STM32H7)\n");
}

void ablations(PaperRuns& runs, obs::Registry& reg) {
  print_header("Ablations -- contribution of each design choice");
  std::printf("\n%-6s %-22s %12s %9s %9s %7s\n", "bits", "configuration",
              "cycles", "MAC/cyc", "vs full", "check");
  for (unsigned b : kWidths) {
    const cycles_t full = runs.conv(b, ext_kernel(b), kExt).cycles;
    for (const Ablation& a : kAblations) {
      const auto& r = runs.conv(b, ext_kernel(b), kExt, a.opts);
      std::printf("%-6u %-22s %12llu %9.2f %8.2fx %7s\n", b, a.label,
                  ull(r.cycles), r.macs_per_cycle(),
                  pin(reg, "ablation." + bkey(b) + "." + a.key,
                      ratio(r.cycles, full)),
                  okstr(r.output_ok));
    }
  }

  // Quantization method (sub-byte only) -- Fig. 6's knob restated here.
  std::printf("\n%-6s %-22s %12s %9s\n", "bits", "quantization", "cycles",
              "speedup");
  for (unsigned b : {4u, 2u}) {
    const cycles_t hw = runs.conv(b, V::kXpulpNN_HwQ, kExt).cycles;
    const cycles_t sw = runs.conv(b, V::kXpulpNN_SwQ, kExt).cycles;
    std::printf("%-6u %-22s %12llu %9s\n", b, "software tree", ull(sw),
                "1.00x");
    std::printf("%-6u %-22s %12llu %8.2fx\n", b, "pv.qnt", ull(hw),
                ratio(sw, hw));
  }

  // How much of the XpulpNN gap could a smarter baseline close? The
  // shuffle-based unpack is the best plausible XpulpV2 kernel; the ISA
  // extension still wins by ~3x (4-bit).
  const cycles_t ext4 = runs.conv(4, V::kXpulpNN_HwQ, kExt).cycles;
  const cycles_t naive = runs.conv(4, V::kXpulpV2_Sub, kBase).cycles;
  const cycles_t shf = runs.conv(4, V::kXpulpV2_SubShf, kBase).cycles;
  const std::string key = "ablation.baseline_unpack_vs_xpulpnn.";
  std::printf("\n4-bit baseline unpack strategy (RI5CY):\n");
  std::printf("  p.extract/p.insert : %10llu cycles (%.1fx vs XpulpNN)\n",
              ull(naive), pin(reg, key + "extract_insert", ratio(naive, ext4)));
  std::printf("  pv.shuffle + shift : %10llu cycles (%.1fx vs XpulpNN)\n",
              ull(shf), pin(reg, key + "shuffle", ratio(shf, ext4)));

  // Power-management knob: same cycles, different power.
  const auto& p_pm = runs.conv(2, V::kXpulpNN_HwQ, kExt);
  const auto& p_np = runs.conv(2, V::kXpulpNN_HwQ, kNopm);
  std::printf("\npower management (2-bit kernel): cycles %llu == %llu, "
              "SoC power %.2f mW vs %.2f mW (+%.0f%%)\n",
              ull(p_pm.cycles), ull(p_np.cycles), p_pm.power_mw,
              p_np.power_mw,
              pin(reg, "ablation.nopm_soc_power_pct.2b",
                  pct_over(p_np.power_mw, p_pm.power_mw)));
}

/// Each mixed format against the uniform kernel at its activation width:
/// the mixed dots pace on activation words, so a mixed layer should cost
/// about what the uniform one does while reading 2-4x fewer weight bytes.
/// Returns false if a run's dots leaked into another format or it ran
/// over 1.05x the uniform kernel's cycles.
bool mixed(PaperRuns& runs, obs::Registry& reg) {
  print_header("Mixed precision -- mpc formats vs the uniform kernel");
  std::printf("\n%8s %12s %9s %12s %9s %s\n", "format", "cycles", "MAC/cyc",
              "uniform cyc", "ratio", "mixed_dotp_ops [8x4, 8x2, 4x2]");
  bool all_ok = true;
  for (const MixedFormat m : kMixed) {
    const auto& r = runs.conv(paper_layer(m.in, m.w), V::kXpulpNN_Mixed, kExt);
    const auto& u = runs.conv(m.in, ext_kernel(m.in), kExt);
    const std::string key =
        "mixed." + std::to_string(m.in) + "x" + std::to_string(m.w);
    const u32 sel = kernels::mixed_sel_for(m.in, m.w);
    const auto& ops = r.perf.mixed_dotp_ops;
    u64 total = 0;
    reg.counter(key + ".sel", sel);
    for (unsigned s = 0; s < isa::kMpcSelCount; ++s) {
      reg.counter(key + ".mixed_dotp_ops." + std::to_string(s), ops[s]);
      total += ops[s];
    }
    const bool pure = total > 0 && total == ops[sel];
    reg.flag(key + ".format_pure", pure);
    const double vs = pin(reg, key + ".cycles_vs_uniform",
                          ratio(r.cycles, u.cycles));
    const char* fault = !pure      ? "format impure"
                        : vs > 1.05 ? "over 1.05x the uniform kernel"
                                    : nullptr;
    std::printf("%5ux%-2u %12llu %9.2f %12llu %8.2fx [%llu, %llu, %llu] %s\n",
                m.in, m.w, ull(r.cycles), r.macs_per_cycle(), ull(u.cycles),
                vs, ull(ops[0]), ull(ops[1]), ull(ops[2]),
                fault ? "FAIL" : "ok");
    if (fault) std::fprintf(stderr, "bench_paper: %s %s\n", key.c_str(), fault);
    all_ok = all_ok && !fault;
  }
  return all_ok;
}

/// The paper layer row-partitioned over 1-16 extended cores on a shared
/// banked TCDM (burst scheduling, bit-identical to the reference
/// scheduler). Returns false if an output differs from the golden model.
bool cluster_scaling(obs::Registry& reg) {
  print_header("Cluster scaling -- XpulpNN cores on a shared banked TCDM");
  bool all_ok = true;
  for (unsigned b : kWidths) {
    const auto data =
        kernels::ConvLayerData::random(qnn::ConvSpec::paper_layer(b), kSeed);
    const auto gold = data.golden();
    std::printf("\n%u-bit kernel:\n%7s %12s %9s %9s %11s %14s %7s\n", b,
                "cores", "makespan", "speedup", "MAC/cyc", "conflicts",
                "conflict-rate", "check");
    cycles_t single = 0;
    for (const int n : {1, 2, 4, 8, 16}) {
      cluster::ClusterConfig cfg;
      cfg.num_cores = n;
      cfg.scheduler = cluster::SchedulerMode::kBurst;
      const auto res = cluster::run_parallel_conv(data, ext_kernel(b), cfg);
      const cluster::ClusterStats& s = res.stats;
      if (n == 1) single = s.makespan;
      const bool ok = res.output == gold;
      const std::string key =
          "cluster.b" + std::to_string(b) + ".c" + std::to_string(n);
      if (!ok) std::fprintf(stderr, "bench_paper: %s golden-output\n",
                            key.c_str());
      all_ok = all_ok && ok;
      reg.counter(key + ".makespan", s.makespan);
      reg.counter(key + ".bank_conflicts", s.bank_conflicts);
      std::printf("%7d %12llu %8.2fx %9.2f %11llu %13.2f%% %7s\n", n,
                  ull(s.makespan),
                  pin(reg, key + ".speedup_vs_1core",
                      ratio(single, s.makespan)),
                  pin(reg, key + ".macs_per_cycle", res.macs_per_cycle()),
                  ull(s.bank_conflicts),
                  pin(reg, key + ".conflict_rate_pct", 100 * s.conflict_rate()),
                  okstr(ok));
    }
  }
  std::printf("\n(PULP-NN reports near-linear scaling on 8-core clusters;\n");
  std::printf(" conflicts stay low because the TCDM has 2 banks per core.)\n");
  return all_ok;
}

/// 4-bit layers whose weights stay in L2 and stream into TCDM ping-pong
/// tiles, serial and double-buffered. Returns false if an output differs
/// from the golden model.
bool streaming(obs::Registry& reg) {
  print_header("uDMA weight streaming -- serial vs double-buffered tiles");
  struct Case {
    const char* key;
    const char* name;
    qnn::ConvSpec spec;
    int tile;
    u32 dma_bytes_per_cycle;
  };
  // The compute-bound paper layer, then a DMA-bound fully-connected layer
  // (few MACs per weight byte): the classic double-buffering win.
  const Case cases[] = {
      {"conv4b_t8_dma4", "4-bit conv 16x16x32 -> 64ch",
       qnn::ConvSpec::paper_layer(4), 8, 4},
      {"fc4b_t32_dma1", "4-bit FC 1024 -> 128",
       qnn::ConvSpec::linear(1024, 128, 4), 32, 1},
      {"fc4b_t32_dma4", "4-bit FC 1024 -> 128",
       qnn::ConvSpec::linear(1024, 128, 4), 32, 4},
  };
  bool all_ok = true;
  for (const Case& c : cases) {
    const auto data = kernels::ConvLayerData::random(c.spec, kSeed);
    const auto gold = data.golden();
    std::printf("\n%s (tile = %d channels, DMA %u B/cycle):\n", c.name, c.tile,
                c.dma_bytes_per_cycle);
    std::printf("%14s %12s %12s %12s %10s %7s\n", "scheme", "compute", "dma",
                "makespan", "hidden", "check");
    for (const bool dbuf : {false, true}) {
      const auto res = soc::run_conv_streamed(
          data, V::kXpulpNN_HwQ, kExt, c.tile, dbuf, c.dma_bytes_per_cycle);
      const bool ok = res.output == gold;
      const std::string key = std::string("streaming.") + c.key +
                              (dbuf ? ".double_buffer" : ".serial");
      if (!ok) std::fprintf(stderr, "bench_paper: %s golden-output\n",
                            key.c_str());
      all_ok = all_ok && ok;
      reg.counter(key + ".compute_cycles", res.compute_cycles);
      reg.counter(key + ".dma_cycles", res.dma_cycles);
      reg.counter(key + ".makespan", res.makespan);
      const double hidden = 100 * res.overlap_efficiency();
      if (dbuf) reg.gauge(key + ".hidden_pct", hidden);
      std::printf("%14s %12llu %12llu %12llu %9.1f%% %7s\n",
                  dbuf ? "double-buffer" : "serial", ull(res.compute_cycles),
                  ull(res.dma_cycles), ull(res.makespan), hidden, okstr(ok));
    }
  }
  std::printf("\n(weights stay in L2; the TCDM holds only the ping-pong "
              "tile\n buffers, so layers larger than the 512 kB L1 stay "
              "runnable.)\n");
  return all_ok;
}

}  // namespace

int main() {
  PaperRuns runs;
  run_matrix(runs);
  obs::Registry reg;
  const bool ok = check_runs(runs, reg);
  table1(runs, reg);
  table3(runs, reg);
  fig6(runs, reg);
  fig7(runs, reg);
  fig8_fig9(runs, reg);
  ablations(runs, reg);
  const bool mixed_ok = mixed(runs, reg);
  const bool cluster_ok = cluster_scaling(reg);
  const bool streaming_ok = streaming(reg);
  const bool all_ok = ok && mixed_ok && cluster_ok && streaming_ok;
  std::printf("\n%zu configurations, each run once, plus the cluster and "
              "streaming runs; all outputs bit-exact vs golden model: %s\n",
              runs.all().size(), okstr(all_ok));
  if (!save_bench_json(reg, "BENCH_paper.json")) return 1;
  return all_ok ? 0 : 1;
}
