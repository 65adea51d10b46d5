#include "analysis/race.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/analyzer.hpp"
#include "cluster/parallel_conv.hpp"
#include "kernels/conv_layer.hpp"
#include "kernels/pool_gen.hpp"
#include "obs/registry.hpp"
#include "qnn/ref_layers.hpp"

namespace xpulp::analysis {

namespace {

std::string hex(addr_t a) {
  std::ostringstream os;
  os << "0x" << std::hex << a;
  return os.str();
}

// Floor/ceil division for positive divisors and signed numerators (the
// dense-vs-strided element range computation crosses zero near the start
// of the dense interval).
i64 floor_div(i64 a, i64 b) { return a >= 0 ? a / b : -((-a + b - 1) / b); }
i64 ceil_div(i64 a, i64 b) { return floor_div(a + b - 1, b); }

/// An access is "dense" when its footprint is one contiguous byte
/// interval: a single element, or a progression whose stride does not
/// exceed the element size.
bool is_dense(const StridedAccess& a) {
  return a.addr.is_const() || a.addr.stride <= a.size;
}

/// Does the strided access `s` (stride > size, >= 2 elements) place any
/// element overlapping the dense byte interval [dlo, dhi)? Exact.
bool strided_hits_dense(const StridedAccess& s, i64 dlo, i64 dhi) {
  const i64 st = s.addr.stride;
  const i64 n = static_cast<i64>(s.addr.count());
  // Element k starts at s.lo + k*st and occupies s.size bytes; it
  // overlaps [dlo, dhi) iff start < dhi and start + size > dlo.
  i64 kmin = ceil_div(dlo - static_cast<i64>(s.size) + 1 -
                          static_cast<i64>(s.addr.lo),
                      st);
  i64 kmax = floor_div(dhi - 1 - static_cast<i64>(s.addr.lo), st);
  kmin = std::max<i64>(kmin, 0);
  kmax = std::min<i64>(kmax, n - 1);
  return kmin <= kmax;
}

}  // namespace

bool accesses_overlap(const StridedAccess& a, const StridedAccess& b,
                      AddrRange* overlap) {
  if (!a.addr.is_bounded() || !b.addr.is_bounded()) return false;
  // Bounding-interval prefilter; also the reported overlap interval.
  const addr_t lo = std::max(a.first(), b.first());
  const addr_t hi = std::min(a.last_end(), b.last_end());
  if (lo >= hi) return false;

  bool hit;
  const bool da = is_dense(a);
  const bool db = is_dense(b);
  if (da && db) {
    hit = true;  // two overlapping contiguous intervals
  } else if (da) {
    hit = strided_hits_dense(b, a.first(), a.last_end());
  } else if (db) {
    hit = strided_hits_dense(a, b.first(), b.last_end());
  } else {
    // Strided vs strided: compare phases modulo g = gcd of the strides.
    // Within the overlapping window, a's elements sit at phase 0 (mod g,
    // relative to a.lo) and b's at phase d0; bytes collide only if one
    // progression's element can reach into the other's phase slot. Sound
    // (never misses a collision), may over-approximate near interval
    // edges where the progressions stop interleaving.
    const u32 g = std::gcd(a.addr.stride, b.addr.stride);
    const i64 diff = static_cast<i64>(b.addr.lo) - static_cast<i64>(a.addr.lo);
    const u32 d0 = static_cast<u32>(((diff % g) + g) % g);
    hit = d0 < a.size || g - d0 < b.size;
  }
  if (hit && overlap != nullptr) *overlap = {lo, hi};
  return hit;
}

std::string RaceConflict::to_string() const {
  std::ostringstream os;
  if (core_b < 0) {
    os << "read-only violation: core" << core_a << " pc=" << hex(pc_a)
       << " writes into declared read-only range, overlap ["
       << hex(overlap.begin) << ", " << hex(overlap.end) << ")";
    return os.str();
  }
  os << (kind == DiagKind::kCrossCoreWriteWrite ? "write-write"
                                                : "write-read")
     << ": core" << core_a << " store pc=" << hex(pc_a) << " x core"
     << core_b << " pc=" << hex(pc_b) << ", overlap [" << hex(overlap.begin)
     << ", " << hex(overlap.end) << ")";
  return os.str();
}

AnalysisReport RaceReport::to_report() const {
  AnalysisReport rep;
  for (const Footprint& fp : footprints) rep.instr_count += fp.instr_count;
  rep.reachable_count = rep.instr_count;
  for (const RaceConflict& c : conflicts) {
    rep.diags.push_back(
        {c.kind, Severity::kError, c.pc_a, c.to_string()});
  }
  for (const auto& [core, acc] : unprovable) {
    rep.diags.push_back({DiagKind::kUnprovableFootprint, Severity::kWarning,
                         acc.pc,
                         "core" + std::to_string(core) +
                             ": address not bounded for " + acc.to_string()});
  }
  return rep;
}

std::string RaceReport::to_string() const {
  std::ostringstream os;
  size_t accesses = 0;
  for (const Footprint& fp : footprints) accesses += fp.accesses.size();
  os << "xrace: cores=" << footprints.size() << " accesses=" << accesses
     << " conflicts=" << conflicts.size()
     << " unprovable=" << unprovable.size()
     << (clean() ? " [clean]" : " [RACY]") << "\n";
  for (const RaceConflict& c : conflicts) os << "  " << c.to_string() << "\n";
  for (const auto& [core, acc] : unprovable) {
    os << "  unprovable: core" << core << " " << acc.to_string() << "\n";
  }
  return os.str();
}

RaceReport analyze_races(const std::vector<xasm::Program>& programs,
                         const RaceOptions& opt) {
  RaceReport rep;
  const FootprintAnalyzer fa(opt.footprint);
  for (const xasm::Program& p : programs) rep.footprints.push_back(fa.analyze(p));

  const int n = static_cast<int>(programs.size());
  for (int c = 0; c < n; ++c) {
    for (const StridedAccess& acc : rep.footprints[static_cast<size_t>(c)].accesses) {
      if (!acc.addr.is_bounded()) rep.unprovable.emplace_back(c, acc);
    }
  }

  // Dedup: one conflict per (kind, pc, pc) pair — a strided store overlaps
  // a strided load at every iteration, which is one finding, not
  // thousands.
  std::set<std::tuple<int, addr_t, addr_t>> seen;
  auto emit = [&](RaceConflict c) {
    if (rep.conflicts.size() >= opt.max_conflicts) return;
    if (seen.insert({static_cast<int>(c.kind), c.pc_a, c.pc_b}).second) {
      rep.conflicts.push_back(std::move(c));
    }
  };
  auto in_read_only = [&](const StridedAccess& a) {
    for (const AddrRange& r : opt.read_only) {
      if (r.contains(a.first(), a.last_end())) return true;
    }
    return false;
  };

  // Writes into declared read-only ranges: conflicts against the
  // declaration itself, regardless of core count.
  for (int c = 0; c < n; ++c) {
    for (const StridedAccess& acc : rep.footprints[static_cast<size_t>(c)].accesses) {
      if (!acc.is_store || !acc.addr.is_bounded()) continue;
      for (const AddrRange& r : opt.read_only) {
        StridedAccess ro;
        ro.is_store = false;
        ro.size = 1;
        ro.addr = AVal::range(r.begin, r.end - 1, 1);
        AddrRange ov;
        if (accesses_overlap(acc, ro, &ov)) {
          emit({DiagKind::kCrossCoreReadWrite, c, -1, acc.pc, 0, ov});
        }
      }
    }
  }

  // Pairwise cross-core disjointness. Read-read pairs can never conflict,
  // so shared read-only tensors are naturally silent; the read_only option
  // additionally suppresses write-read findings for reads it covers (the
  // write side is already flagged above as a declaration violation).
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      for (const StridedAccess& a : rep.footprints[static_cast<size_t>(i)].accesses) {
        if (!a.addr.is_bounded()) continue;
        for (const StridedAccess& b : rep.footprints[static_cast<size_t>(j)].accesses) {
          if (!b.addr.is_bounded()) continue;
          if (!a.is_store && !b.is_store) continue;
          AddrRange ov;
          if (!accesses_overlap(a, b, &ov)) continue;
          if (a.is_store && b.is_store) {
            emit({DiagKind::kCrossCoreWriteWrite, i, j, a.pc, b.pc, ov});
          } else {
            const StridedAccess& st = a.is_store ? a : b;
            const StridedAccess& ld = a.is_store ? b : a;
            if (in_read_only(ld)) continue;
            emit({DiagKind::kCrossCoreReadWrite, a.is_store ? i : j,
                  a.is_store ? j : i, st.pc, ld.pc, ov});
          }
        }
      }
    }
  }
  return rep;
}

std::function<void(const std::vector<xasm::Program>&)> make_race_gate(
    RaceOptions opt) {
  return [opt = std::move(opt)](const std::vector<xasm::Program>& programs) {
    const RaceReport rep = analyze_races(programs, opt);
    // A single-core load has no cross-core ordering to prove, so
    // unprovable footprints are tolerated there; with multiple cores an
    // unbounded access defeats the disjointness proof and must block.
    const bool bad =
        !rep.conflicts.empty() ||
        (programs.size() > 1 && !rep.unprovable.empty());
    if (bad) {
      std::ostringstream os;
      os << "xrace gate: " << rep.conflicts.size() << " conflict(s), "
         << rep.unprovable.size() << " unprovable footprint(s) across "
         << programs.size() << " core(s)";
      throw AnalysisError(os.str(), rep.to_report());
    }
  };
}

namespace {

using kernels::ConvGenOptions;
using kernels::ConvKernel;
using kernels::ConvVariant;

std::vector<xasm::Program> kernel_programs(const std::vector<ConvKernel>& ks) {
  std::vector<xasm::Program> ps;
  for (const ConvKernel& k : ks) ps.push_back(k.program);
  return ps;
}

/// Channel-tiled linear deployment: every core computes the full pixel
/// set over its own output-channel slice (disjoint packed output bytes as
/// long as the slice respects the pack group), private im2col slot, code
/// at c * 16 kB — the dual of make_parallel_conv_kernels' row split.
std::vector<xasm::Program> make_parallel_linear_programs(
    const qnn::ConvSpec& spec, ConvVariant v, int num_cores) {
  std::vector<xasm::Program> ps;
  const int share = spec.out_c / num_cores;
  for (int c = 0; c < num_cores; ++c) {
    ConvGenOptions o;
    o.pixel_block = 1;
    o.code_base = static_cast<addr_t>(c) * 0x4000;
    o.ch_begin = c * share;
    o.ch_end = (c + 1) * share;
    o.buffer_slots = num_cores;
    o.buffer_slot = c;
    ps.push_back(kernels::generate_conv_kernel(spec, v, 0x40000, o).program);
  }
  return ps;
}

void add_conv_checks(std::vector<RaceCheck>& out, const qnn::ConvSpec& spec,
                     ConvVariant v, const std::string& name,
                     const std::vector<int>& core_counts,
                     const ConvGenOptions& base = {}) {
  for (const int cores : core_counts) {
    // A core with an empty row slice generates a trivial program; skip
    // deployments with more cores than output rows.
    if (cores > spec.out_h()) continue;
    const auto ks = cluster::make_parallel_conv_kernels(spec, v, cores, base);
    out.push_back({name, cores, analyze_races(kernel_programs(ks))});
  }
}

}  // namespace

std::vector<RaceCheck> analyze_parallel_kernels(
    const std::vector<int>& core_counts) {
  std::vector<RaceCheck> out;

  // ---- convolution variants, row-partitioned ----
  const qnn::ConvSpec small4 = qnn::ConvSpec::small_layer(4);
  add_conv_checks(out, qnn::ConvSpec::small_layer(8), ConvVariant::kXpulpV2_8b,
                  "conv/xpulpv2_8b", core_counts);
  for (const unsigned bits : {4u, 2u}) {
    const std::string b = std::to_string(bits) + "b";
    const qnn::ConvSpec spec = qnn::ConvSpec::small_layer(bits);
    add_conv_checks(out, spec, ConvVariant::kXpulpV2_Sub,
                    "conv/xpulpv2_sub/" + b, core_counts);
    add_conv_checks(out, spec, ConvVariant::kXpulpNN_SwQ,
                    "conv/xpulpnn_swq/" + b, core_counts);
    add_conv_checks(out, spec, ConvVariant::kXpulpNN_HwQ,
                    "conv/xpulpnn_hwq/" + b, core_counts);
  }
  add_conv_checks(out, small4, ConvVariant::kXpulpV2_SubShf,
                  "conv/xpulpv2_subshf/4b", core_counts);
  add_conv_checks(out, qnn::ConvSpec::paper_layer(4), ConvVariant::kXpulpNN_HwQ,
                  "conv/xpulpnn_hwq/paper_layer_4b", core_counts);
  {
    // Branch-loop ablation: exercises the counted decrement-and-branch
    // summarization path instead of hardware-loop trip counts.
    ConvGenOptions gen;
    gen.use_hwloops = false;
    add_conv_checks(out, small4, ConvVariant::kXpulpNN_HwQ,
                    "conv/xpulpnn_hwq/4b_no_hwloops", core_counts, gen);
  }

  // ---- linear layers, channel-tiled ----
  {
    for (const unsigned bits : {8u, 4u, 2u}) {
      const qnn::ConvSpec lin = qnn::ConvSpec::linear(64, 32, bits);
      const ConvVariant v =
          bits == 8 ? ConvVariant::kXpulpV2_8b : ConvVariant::kXpulpNN_HwQ;
      const std::string name = bits == 8 ? "linear/xpulpv2_8b"
                                         : "linear/xpulpnn_hwq/" +
                                               std::to_string(bits) + "b";
      for (const int cores : core_counts) {
        if (lin.out_c % cores != 0) continue;
        // Pack-group constraint: a 2-bit output tile must cover >= 4
        // channels per core.
        if (lin.out_c / cores < (bits == 2 ? 4 : 2)) continue;
        out.push_back({name, cores,
                       analyze_races(
                           make_parallel_linear_programs(lin, v, cores))});
      }
    }
  }

  // ---- pooling (single core: the generator has no partitioning) ----
  const qnn::Shape pool_shape{4, 4, 16};
  for (const auto op : {kernels::PoolOp::kMax, kernels::PoolOp::kAvg}) {
    const char* opn = op == kernels::PoolOp::kMax ? "max" : "avg";
    for (const unsigned bits : {8u, 4u, 2u}) {
      const kernels::PoolKernel nat = kernels::generate_pool2x2_kernel(
          pool_shape, bits, op, /*native_subbyte=*/true);
      out.push_back({"pool/" + std::string(opn) + "/native/" +
                         std::to_string(bits) + "b",
                     1, analyze_races({nat.program})});
      if (bits != 8) {
        const kernels::PoolKernel base = kernels::generate_pool2x2_kernel(
            pool_shape, bits, op, /*native_subbyte=*/false);
        out.push_back({"pool/" + std::string(opn) + "/baseline/" +
                           std::to_string(bits) + "b",
                       1, analyze_races({base.program})});
      }
    }
  }
  return out;
}

void add_race_stats(obs::Registry& reg, const std::string& prefix,
                    const RaceReport& report) {
  size_t accesses = 0, loops = 0, unsummarized = 0;
  for (const Footprint& fp : report.footprints) {
    accesses += fp.accesses.size();
    loops += fp.loop_count;
    unsummarized += fp.unsummarized;
  }
  size_t ww = 0, rw = 0;
  for (const RaceConflict& c : report.conflicts) {
    (c.kind == DiagKind::kCrossCoreWriteWrite ? ww : rw) += 1;
  }
  reg.counter(prefix + ".cores", report.footprints.size());
  reg.counter(prefix + ".accesses", accesses);
  reg.counter(prefix + ".loops", loops);
  reg.counter(prefix + ".unsummarized", unsummarized);
  reg.counter(prefix + ".conflicts", report.conflicts.size());
  reg.counter(prefix + ".ww", ww);
  reg.counter(prefix + ".rw", rw);
  reg.counter(prefix + ".unprovable", report.unprovable.size());
  reg.flag(prefix + ".clean", report.clean());
}

}  // namespace xpulp::analysis
