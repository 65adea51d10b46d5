// The bench_paper_pinned test: run bench_paper in a scratch directory, then
//   1. compare its BENCH_paper.json byte for byte with the committed copy at
//      the repo root, naming every key whose value moved;
//   2. check every measured cell of EXPERIMENTS.md's paper and extension
//      sections and of README.md's "Reproduction highlights" against the
//      committed file at the cell's printed precision.
// A failure in (1) means a modelled number moved: if that is intended,
// copy the regenerated file over the committed one and name the model
// change in CHANGES.md. A failure in (2) means a document and the file
// disagree.
//
// Usage: paper_pinned <bench_paper binary> <repo root> <scratch dir>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "flat_json.hpp"

namespace {

namespace fs = std::filesystem;
using xpulp::bench::flatten;
using xpulp::bench::trim;

std::string read_file(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Report every key whose value differs between the two files, or that
/// only one of them has; returns the number reported (at least 1).
int report_drift(const std::string& committed, const std::string& fresh) {
  const auto a = flatten(committed), b = flatten(fresh);
  int n = 0;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end() || it->second != v) {
      std::fprintf(stderr,
                   "BENCH_paper.json: %s: committed %s, regenerated %s\n",
                   k.c_str(), v.c_str(),
                   it == b.end() ? "(missing)" : it->second.c_str());
      ++n;
    }
  }
  for (const auto& [k, v] : b) {
    if (!a.count(k)) {
      std::fprintf(stderr,
                   "BENCH_paper.json: %s: not committed, regenerated %s\n",
                   k.c_str(), v.c_str());
      ++n;
    }
  }
  if (n == 0) {
    std::fprintf(stderr, "BENCH_paper.json: same values, different bytes\n");
    return 1;
  }
  return n;
}

// ---- EXPERIMENTS.md and README.md -----------------------------------------

/// One measured table cell: the row's first cell, the column (0 = the row
/// label) and one BENCH_paper.json key per number in the cell, space
/// separated; "-" skips a number that is the paper's, "key/1e6" scales.
/// Every cell of a pinned section's tables needs a pin, except in columns
/// whose header starts with "paper" (the paper's own figures).
struct Pin {
  std::string row;
  int col;
  std::string keys;
};

struct Section {
  const char* heading;  // "## " heading prefix
  std::vector<Pin> pins;
};

/// The cluster table: one row per bit width and core count.
std::vector<Pin> cluster_pins() {
  std::vector<Pin> pins;
  for (const std::string b : {"8", "4", "2"}) {
    for (const std::string n : {"1", "2", "4", "8", "16"}) {
      const std::string row =
          b + "-bit, " + n + (n == "1" ? " core" : " cores");
      const std::string key = "cluster.b" + b + ".c" + n + ".";
      const char* fields[] = {"makespan", "speedup_vs_1core", "macs_per_cycle",
                              "bank_conflicts", "conflict_rate_pct"};
      for (int c = 0; c < 5; ++c) pins.push_back({row, c + 1, key + fields[c]});
    }
  }
  return pins;
}

/// The streaming table: one row per layer, tile and DMA rate.
std::vector<Pin> streaming_pins() {
  const std::pair<const char*, const char*> rows[] = {
      {"conv 16×16×32 → 64, 8-channel tiles, DMA 4 B/cycle", "conv4b_t8_dma4"},
      {"FC 1024 → 128, 32-channel tiles, DMA 1 B/cycle", "fc4b_t32_dma1"},
      {"FC 1024 → 128, 32-channel tiles, DMA 4 B/cycle", "fc4b_t32_dma4"},
  };
  std::vector<Pin> pins;
  for (const auto& [row, name] : rows) {
    const std::string key = std::string("streaming.") + name + ".";
    pins.push_back({row, 1, key + "serial.compute_cycles"});
    pins.push_back({row, 2, key + "serial.dma_cycles"});
    pins.push_back({row, 3, key + "serial.makespan"});
    pins.push_back({row, 4, key + "double_buffer.makespan"});
    pins.push_back({row, 5, key + "double_buffer.hidden_pct"});
  }
  return pins;
}

const std::vector<Section>& experiments_sections() {
  static const std::vector<Section> s = {
      {"Table I —",
       {{"performance", 2, "table1.gop_s.lo table1.gop_s.hi"},
        {"energy efficiency", 2, "table1.gop_s_w.lo table1.gop_s_w.hi"},
        {"power budget", 2, "table1.power_mw"}}},
      {"Table III —",
       {{"Total", 1, "area.Total.nopm_overhead_pct -"},
        {"Total", 2, "area.Total.pm_overhead_pct -"},
        {"dotp-Unit", 1, "area.dotp-Unit.nopm_overhead_pct -"},
        {"dotp-Unit", 2, "area.dotp-Unit.pm_overhead_pct -"},
        {"ID Stage", 1, "area.ID_Stage.nopm_overhead_pct -"},
        {"ID Stage", 2, "area.ID_Stage.pm_overhead_pct -"},
        {"EX Stage", 1, "area.EX_Stage.nopm_overhead_pct -"},
        {"EX Stage", 2, "area.EX_Stage.pm_overhead_pct -"},
        {"LSU", 1, "area.LSU.nopm_overhead_pct -"},
        {"LSU", 2, "area.LSU.pm_overhead_pct -"},
        {"core, 8-bit MatMul, RI5CY", 2, "runs.ri5cy.xpulpv2-8b.8b.core_mw"},
        {"core, 8-bit MatMul, ext+PM", 2,
         "runs.xpulpnn.xpulpv2-8b.8b.core_mw table3.pm_core_overhead_pct"},
        {"core, 8-bit MatMul, ext no-PM", 2,
         "runs.xpulpnn-nopm.xpulpv2-8b.8b.core_mw"},
        {"SoC, 8-bit MatMul (RI5CY / no-PM / PM)", 2,
         "runs.ri5cy.xpulpv2-8b.8b.soc_mw "
         "runs.xpulpnn-nopm.xpulpv2-8b.8b.soc_mw "
         "runs.xpulpnn.xpulpv2-8b.8b.soc_mw"},
        {"SoC, 4-bit MatMul (no-PM / PM)", 2,
         "runs.xpulpnn-nopm.xpulpnn-hwquant.4b.soc_mw "
         "runs.xpulpnn.xpulpnn-hwquant.4b.soc_mw"},
        {"SoC, 2-bit MatMul (no-PM / PM)", 2,
         "runs.xpulpnn-nopm.xpulpnn-hwquant.2b.soc_mw "
         "runs.xpulpnn.xpulpnn-hwquant.2b.soc_mw"},
        {"SoC, GP application (RI5CY / no-PM / PM)", 2,
         "runs.ri5cy.gp.soc_mw runs.xpulpnn-nopm.gp.soc_mw "
         "runs.xpulpnn.gp.soc_mw"},
        {"GP no-PM penalty", 2, "table3.gp_nopm_penalty_pct"},
        {"GP PM penalty", 2, "table3.gp_pm_penalty_pct"}}},
      {"Fig. 6 —",
       {{"kernel speedup from pv.qnt, 4-bit", 2, "fig6.speedup_from_qnt.4b"},
        {"kernel speedup from pv.qnt, 2-bit", 2, "fig6.speedup_from_qnt.2b"},
        {"quantization share with pv.qnt, 4-bit", 2,
         "fig6.qnt_share_pct.4b fig6.quant_share_pct.4b_hwq"},
        {"quantization share with pv.qnt, 2-bit", 2,
         "fig6.qnt_share_pct.2b fig6.quant_share_pct.2b_hwq"},
        {"4-bit vs 8-bit cycles", 2, "fig6.scaling_vs_8b.4b"},
        {"2-bit vs 8-bit cycles", 2, "fig6.scaling_vs_8b.2b"},
        {"8-bit", 1, "runs.xpulpnn.xpulpv2-8b.8b.cycles/1e6"},
        {"8-bit", 2, "runs.xpulpnn.xpulpv2-8b.8b.macs_per_cycle"},
        {"4-bit, pv.qnt", 1, "runs.xpulpnn.xpulpnn-hwquant.4b.cycles/1e6"},
        {"4-bit, pv.qnt", 2, "runs.xpulpnn.xpulpnn-hwquant.4b.macs_per_cycle"},
        {"4-bit, software tree", 1,
         "runs.xpulpnn.xpulpnn-swquant.4b.cycles/1e6"},
        {"4-bit, software tree", 2,
         "runs.xpulpnn.xpulpnn-swquant.4b.macs_per_cycle"},
        {"2-bit, pv.qnt", 1, "runs.xpulpnn.xpulpnn-hwquant.2b.cycles/1e6"},
        {"2-bit, pv.qnt", 2, "runs.xpulpnn.xpulpnn-hwquant.2b.macs_per_cycle"},
        {"2-bit, software tree", 1,
         "runs.xpulpnn.xpulpnn-swquant.2b.cycles/1e6"},
        {"2-bit, software tree", 2,
         "runs.xpulpnn.xpulpnn-swquant.2b.macs_per_cycle"}}},
      {"Fig. 7 —",
       {{"8-bit", 1, "runs.ri5cy.xpulpv2-8b.8b.gmac_s_w"},
        {"8-bit", 2, "runs.xpulpnn.xpulpv2-8b.8b.gmac_s_w"},
        {"8-bit", 3, "fig7.gain.8b -"},
        {"4-bit", 1, "runs.ri5cy.xpulpv2-subbyte.4b.gmac_s_w"},
        {"4-bit", 2, "runs.xpulpnn.xpulpnn-hwquant.4b.gmac_s_w"},
        {"4-bit", 3, "fig7.gain.4b"},
        {"2-bit", 1, "runs.ri5cy.xpulpv2-subbyte.2b.gmac_s_w"},
        {"2-bit", 2, "runs.xpulpnn.xpulpnn-hwquant.2b.gmac_s_w"},
        {"2-bit", 3, "fig7.gain.2b -"}}},
      {"Fig. 8 —",
       {{"8", 1, "runs.xpulpnn.xpulpv2-8b.8b.cycles/1e6"},
        {"8", 2, "runs.ri5cy.xpulpv2-8b.8b.cycles/1e6"},
        {"8", 3, "runs.stm32l4.8b.cycles/1e6"},
        {"8", 4, "runs.stm32h7.8b.cycles/1e6"},
        {"4", 1, "runs.xpulpnn.xpulpnn-hwquant.4b.cycles/1e6"},
        {"4", 2, "runs.ri5cy.xpulpv2-subbyte.4b.cycles/1e6"},
        {"4", 3, "runs.stm32l4.4b.cycles/1e6"},
        {"4", 4, "runs.stm32h7.4b.cycles/1e6"},
        {"2", 1, "runs.xpulpnn.xpulpnn-hwquant.2b.cycles/1e6"},
        {"2", 2, "runs.ri5cy.xpulpv2-subbyte.2b.cycles/1e6"},
        {"2", 3, "runs.stm32l4.2b.cycles/1e6"},
        {"2", 4, "runs.stm32h7.2b.cycles/1e6"},
        {"4-bit vs RI5CY", 2, "fig8.speedup.4b.vs_ri5cy"},
        {"2-bit vs RI5CY", 2, "fig8.speedup.2b.vs_ri5cy"},
        {"sub-byte vs ARM MCUs", 2,
         "fig8.speedup.4b.vs_m4 fig8.speedup.2b.vs_m4 "
         "fig8.speedup.4b.vs_m7 fig8.speedup.2b.vs_m7"}}},
      {"Fig. 9 —",
       {{"2-bit, vs STM32L4", 2, "fig9.gain.2b.vs_m4"},
        {"2-bit, vs STM32H7", 2, "fig9.gain.2b.vs_m7"},
        {"overall claim", 2, "fig9.gain.2b.vs_m4 fig9.gain.2b.vs_m7"}}},
      {"Ablations",
       {{"full (hardware loop, 2×2 blocking — 2 filters × 2 pixels, "
         "4 accumulators — pv.qnt)",
         1, "ablation.4b.full"},
        {"branch loop instead of lp.setup", 1, "ablation.4b.branch_loop"},
        {"2×1 register blocking instead of 2×2", 1, "ablation.4b.block_2x1"},
        {"both removed", 1, "ablation.4b.branch_loop_2x1"},
        {"software-tree quantization instead of pv.qnt", 1,
         "fig6.speedup_from_qnt.4b"},
        {"RI5CY baseline kernel, per-element `p.extract/p.insert` unpack", 1,
         "ablation.baseline_unpack_vs_xpulpnn.extract_insert"},
        {"RI5CY baseline kernel, `pv.shuffle`+shift unpack", 1,
         "ablation.baseline_unpack_vs_xpulpnn.shuffle"},
        {"clock gating off (2-bit kernel)", 1,
         "ablation.nopm_soc_power_pct.2b"}}},
      {"Mixed precision",
       {{"8×4", 1, "runs.xpulpnn.xpulpnn-mixed.8x4.cycles/1e6"},
        {"8×4", 2, "runs.xpulpnn.xpulpnn-mixed.8x4.macs_per_cycle"},
        {"8×4", 3, "runs.xpulpnn.xpulpv2-8b.8b.cycles/1e6"},
        {"8×4", 4, "mixed.8x4.cycles_vs_uniform"},
        {"8×2", 1, "runs.xpulpnn.xpulpnn-mixed.8x2.cycles/1e6"},
        {"8×2", 2, "runs.xpulpnn.xpulpnn-mixed.8x2.macs_per_cycle"},
        {"8×2", 3, "runs.xpulpnn.xpulpv2-8b.8b.cycles/1e6"},
        {"8×2", 4, "mixed.8x2.cycles_vs_uniform"},
        {"4×2", 1, "runs.xpulpnn.xpulpnn-mixed.4x2.cycles/1e6"},
        {"4×2", 2, "runs.xpulpnn.xpulpnn-mixed.4x2.macs_per_cycle"},
        {"4×2", 3, "runs.xpulpnn.xpulpnn-hwquant.4b.cycles/1e6"},
        {"4×2", 4, "mixed.4x2.cycles_vs_uniform"}}},
      {"Cluster scaling", cluster_pins()},
      {"µDMA weight streaming", streaming_pins()},
  };
  return s;
}

const std::vector<Section>& readme_sections() {
  static const std::vector<Section> s = {
      {"Reproduction highlights",
       {{"4-bit kernel 5.3× faster than RI5CY", 1, "fig8.speedup.4b.vs_ri5cy"},
        {"2-bit kernel 8.9× faster than RI5CY", 1, "fig8.speedup.2b.vs_ri5cy"},
        {"pv.qnt speeds sub-byte kernels 1.21×/1.16×", 1,
         "fig6.speedup_from_qnt.4b fig6.speedup_from_qnt.2b"},
        {"up to 9× energy-efficiency gain vs baseline", 1, "fig7.gain.2b"},
        {"peak 279 GMAC/s/W", 1, "fig7.peak_gmac_s_w"},
        {"103×/354× efficiency vs STM32L4/H7 (2-bit)", 1,
         "fig9.gain.2b.vs_m4 fig9.gain.2b.vs_m7"},
        {"11.1% core area overhead, 5.9% power overhead (PM)", 1,
         "area.Total.pm_overhead_pct table3.pm_core_overhead_pct"}}},
  };
  return s;
}

std::vector<std::string> split_row(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  for (size_t i = 1; i < line.size(); ++i) {  // skip the leading '|'
    if (line[i] == '|') {
      cells.push_back(trim(cur));
      cur.clear();
    } else {
      cur += line[i];
    }
  }
  return cells;
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// The numbers printed in a cell: digit runs (with one decimal point) not
/// glued to a preceding letter, digit or dot ("M4", "pv.qnt" are text).
std::vector<std::string> numbers(const std::string& cell) {
  std::vector<std::string> out;
  for (size_t i = 0; i < cell.size(); ++i) {
    const unsigned char prev = i ? cell[i - 1] : ' ';
    if (!is_digit(cell[i]) || std::isalnum(prev) || prev == '.') continue;
    size_t j = i;
    while (j < cell.size() && is_digit(cell[j])) ++j;
    if (j + 1 < cell.size() && cell[j] == '.' && is_digit(cell[j + 1])) {
      for (++j; j < cell.size() && is_digit(cell[j]);) ++j;
    }
    out.push_back(cell.substr(i, j - i));
    i = j;
  }
  return out;
}

/// Compare one cell number with a key's value at the number's precision;
/// on a mismatch, `why` says what the file prints.
bool check_number(const std::map<std::string, std::string>& json,
                  const std::string& spec, const std::string& shown,
                  std::string& why) {
  std::string key = spec;
  double divisor = 1;
  if (const size_t slash = spec.find('/'); slash != std::string::npos) {
    key = spec.substr(0, slash);
    divisor = std::strtod(spec.c_str() + slash + 1, nullptr);
  }
  const auto it = json.find(key);
  if (it == json.end()) {
    why = "key " + key + " is not in BENCH_paper.json";
    return false;
  }
  const size_t dot = shown.find('.');
  const int decimals =
      dot == std::string::npos ? 0 : static_cast<int>(shown.size() - dot - 1);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals,
                std::strtod(it->second.c_str(), nullptr) / divisor);
  if (shown == buf) return true;
  why = "shows " + shown + ", " + spec + " = " + it->second + " prints " + buf;
  return false;
}

/// Check every table row of every pinned section of the document `name`;
/// returns the failure count.
int check_doc(const char* name, const std::string& doc,
              const std::vector<Section>& sections,
              const std::map<std::string, std::string>& json) {
  int failures = 0;
  const auto fail = [&](const std::string& where, const std::string& what) {
    std::fprintf(stderr, "%s: %s: %s\n", name, where.c_str(), what.c_str());
    ++failures;
  };
  for (const Section& sec : sections) {
    const std::string heading = std::string("## ") + sec.heading;
    std::vector<bool> used(sec.pins.size(), false);
    bool in_section = false, found = false;
    std::vector<std::string> header;  // the current table's header cells
    std::istringstream in(doc);
    for (std::string line; std::getline(in, line);) {
      if (line.starts_with("## ")) {
        in_section = line.starts_with(heading);
        found = found || in_section;
      }
      if (!in_section || !line.starts_with("|")) {
        header.clear();
        continue;
      }
      const auto cells = split_row(line);
      if (header.empty()) {
        header = cells;
        continue;
      }
      if (cells[0].starts_with("---")) continue;
      for (size_t c = 1; c < cells.size(); ++c) {
        const std::string column = c < header.size() ? header[c] : "?";
        if (column.starts_with("paper")) continue;
        const std::string where = std::string(sec.heading) + " row \"" +
                                  cells[0] + "\", column \"" + column + "\"";
        size_t p = 0;
        while (p < sec.pins.size() &&
               (cells[0] != sec.pins[p].row ||
                sec.pins[p].col != static_cast<int>(c))) {
          ++p;
        }
        if (p == sec.pins.size()) {
          fail(where, "measured cell has no pin in tests/paper_pinned.cpp");
          continue;
        }
        used[p] = true;
        std::vector<std::string> keys;
        std::istringstream ks(sec.pins[p].keys);
        for (std::string k; ks >> k;) keys.push_back(k);
        const auto shown = numbers(cells[c]);
        if (shown.size() != keys.size()) {
          fail(where, "cell \"" + cells[c] + "\" shows " +
                          std::to_string(shown.size()) + " numbers, pinned " +
                          std::to_string(keys.size()));
          continue;
        }
        for (size_t k = 0; k < keys.size(); ++k) {
          std::string why;
          if (keys[k] != "-" && !check_number(json, keys[k], shown[k], why)) {
            fail(where, why);
          }
        }
      }
    }
    if (!found) fail(sec.heading, "section not found");
    for (size_t p = 0; p < sec.pins.size(); ++p) {
      if (!used[p]) {
        fail(std::string(sec.heading) + " row \"" + sec.pins[p].row + "\"",
             "pinned cell not found");
      }
    }
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: %s <bench_paper> <repo root> <scratch dir>\n",
                 argv[0]);
    return 2;
  }
  const fs::path bench = fs::absolute(argv[1]);
  const fs::path root = fs::absolute(argv[2]);
  const fs::path work = fs::absolute(argv[3]);
  fs::create_directories(work);
  fs::remove(work / "BENCH_paper.json");
  fs::current_path(work);
  const std::string cmd = "'" + bench.string() + "'";
  if (std::system(cmd.c_str()) != 0) {
    std::fprintf(stderr, "bench_paper failed (see its output above)\n");
    return 1;
  }

  const std::string committed = read_file(root / "BENCH_paper.json");
  const std::string fresh = read_file(work / "BENCH_paper.json");
  int failures = 0;
  if (committed != fresh) {
    failures += report_drift(committed, fresh);
    std::fprintf(stderr,
                 "BENCH_paper.json: a modelled number moved. If intended, "
                 "copy %s over the committed file and name the model change "
                 "in CHANGES.md.\n",
                 (work / "BENCH_paper.json").c_str());
  }
  const auto json = flatten(committed);
  failures += check_doc("EXPERIMENTS.md", read_file(root / "EXPERIMENTS.md"),
                        experiments_sections(), json);
  failures += check_doc("README.md", read_file(root / "README.md"),
                        readme_sections(), json);
  if (failures == 0) {
    std::printf("BENCH_paper.json, EXPERIMENTS.md and README.md pinned: ok\n");
  }
  return failures == 0 ? 0 : 1;
}
