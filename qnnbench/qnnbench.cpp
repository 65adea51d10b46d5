// qnnbench: the repository benchmark.
//
// Runs one named QNN workload through the public runners (Network::run,
// cluster::run_parallel_conv, soc::run_conv_streamed) in a closed loop with
// one host thread and one caller, checks every output against the golden
// model, and prints one JSON result object as the last line of stdout:
//   --trace 0  the end-to-end metrics (host time per op, throughput, set-up
//              time, peak RSS, modelled guest cycles);
//   --trace 1  the per-layer split from a traced run: spans recorded around
//              calls into each module's public functions and hooks, plus an
//              untraced phase for the tracing overhead.
// See README.md for the op definitions and the layer-to-metric table.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/parallel_conv.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/conv_layer.hpp"
#include "kernels/network.hpp"
#include "kernels/pool_gen.hpp"
#include "obs/profiler.hpp"
#include "qnn/pack.hpp"
#include "qnn/ref_layers.hpp"
#include "soc/streamed_conv.hpp"

namespace {

using namespace xpulp;
using kernels::ConvLayerData;
using kernels::ConvVariant;

// ---------------------------------------------------------------------------
// Fixed configuration. Set in code so that no environment variable
// (XPULP_SUPERBLOCK) can change what is measured.

sim::CoreConfig core_config() {
  sim::CoreConfig c = sim::CoreConfig::extended();
  c.superblock = true;
  return c;
}

cluster::ClusterConfig cluster_config() {
  cluster::ClusterConfig c;
  c.num_cores = 8;
  c.scheduler = cluster::SchedulerMode::kBurst;
  c.core = core_config();
  return c;
}

constexpr int kSetupReps = 9;         // set-ups per run; setup_s is their median
constexpr size_t kMinSamples = 100;   // p90 needs ten samples beyond it
constexpr double kWallCapS = 150.0;   // hard stop for the measured loop
constexpr u64 kMaxInstr = 600'000'000;
constexpr double kProbeShare = 0.04;  // host-speed probe time per op / op time
constexpr size_t kProbeMinReps = 3;   // probe samples per op at least
// Median host_probe_once() time on an uncontended host (the 4-vCPU Xeon
// the benchmark was written on). Host times are rescaled to that speed.
constexpr double kProbeNominalS = 38e-6;

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
/// does not carry over the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Host-speed reference. The host shares its cores with other work, which
/// slows the simulator by up to 1.7x for minutes at a time, whole runs
/// included. The slowdown hits high-IPC integer code hardest, so the
/// reference is ~40 us of it: eight independent add/xor/shift chains, two
/// of them through multiplies, over an L1-resident table. It calls no
/// repository code, so only the host's speed moves it.
double host_probe_once() {
  static std::vector<u64> table(2048, 0x12345);
  const double t0 = now_s();
  u64 a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (int rep = 0; rep < 60; ++rep) {
    for (size_t i = 0; i < table.size(); i += 8) {
      a = (a ^ table[i]) * 0x9e3779b97f4a7c15ull;
      b = (b ^ table[i + 1]) + (b << 5);
      c = (c + table[i + 2]) ^ (c >> 11);
      d = (d ^ table[i + 3]) * 0xbf58476d1ce4e5b9ull;
      e = (e + table[i + 4]) ^ (e >> 7);
      f = (f ^ table[i + 5]) + (f << 9);
      g = (g + table[i + 6]) ^ (g >> 1);
      h = (h ^ table[i + 7]) + (h << 4);
      table[i] += a ^ h;
      table[i + 4] += e ^ d;
    }
  }
  table[1] ^= b ^ c ^ f ^ g;
  return now_s() - t0;
}

/// Runs the probe until it has taken kProbeShare of `busy_s` (and at least
/// kProbeMinReps times); returns the median probe time.
double host_probe(double busy_s) {
  std::vector<double> v;
  double spent = 0;
  while (v.size() < kProbeMinReps || spent < kProbeShare * busy_s) {
    v.push_back(host_probe_once());
    spent += v.back();
  }
  return median(v);
}

std::string fmt_name(const qnn::ConvSpec& s) {
  if (s.in_bits == s.w_bits) return "u" + std::to_string(s.in_bits);
  return "m" + std::to_string(s.in_bits) + "x" + std::to_string(s.w_bits);
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written as one JSON file at the end.

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;
  u64 op = 0;
};

class Tracer {
 public:
  int begin(std::string name, int parent, u64 op) {
    spans_.push_back({std::move(name), now_s(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end = now_s();
    return s.end - s.start;
  }
  /// Records a span whose bounds were taken inside a runner's hooks.
  void add(std::string name, double start, double end, int parent, u64 op) {
    spans_.push_back({std::move(name), start, end, parent, op});
  }
  /// Times `f` as a child span of `parent`; returns its duration.
  template <class F>
  double timed(const char* name, int parent, u64 op, F&& f) {
    const int id = begin(name, parent, op);
    f();
    return end(id);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-layer values of one traced op, by metric name.
using Sample = std::map<std::string, double>;

/// sim-layer counts summed over the cores an op or probe ran.
struct SimTally {
  u64 instructions = 0;
  u64 fused = 0;
  u64 blocks = 0;
  u64 rejects = 0;

  void add(const sim::Core& c) {
    instructions += c.perf().instructions;
    const sim::SuperblockStats& sb = c.superblock_stats();
    fused += sb.fused_instructions;
    blocks += sb.blocks_compiled;
    rejects += sb.entry_rejects;
  }
  /// The sim.* metrics, for `run_s` host seconds of simulation.
  void report(Sample& s, double run_s) const {
    const double n = static_cast<double>(instructions);
    s["sim.run_s"] = run_s;
    s["sim.instructions"] = n;
    s["sim.mips"] = n / run_s / 1e6;
    s["sim.fused_frac"] = static_cast<double>(fused) / n;
    s["sim.blocks_compiled"] = static_cast<double>(blocks);
    s["sim.entry_rejects"] = static_cast<double>(rejects);
  }
};

struct OpOutcome {
  bool ok = false;  // output matched the golden model
  cycles_t guest_cycles = 0;
  int key = 0;  // ops with the same key must report the same guest cycles
};

/// A workload: inputs built from the seed in setup(), then ops in a closed
/// loop. Ops rotate through `round()` keys; the measured loop only stops
/// on a round boundary so every key is equally represented.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(u64 seed) = 0;
  virtual int round() const { return 1; }
  virtual std::string key_name(int key) const = 0;
  virtual OpOutcome op(u64 i) = 0;
  /// Same op as op(i) under a root span "op" (runner + golden check, the
  /// untraced op's work), plus a sibling root span "probe" holding the
  /// extra public-function calls that split the op into layers.
  virtual OpOutcome traced_op(u64 i, Tracer& t, Sample& s) = 0;

  /// Per-layer values measured while setting up (layers whose work the
  /// workload moves out of the op, such as calibration and goldens).
  Sample setup_sample;
};

// ---------------------------------------------------------------------------
// net-mixed: one op is one Network::run inference on one extended core.

struct NetLayer {
  enum class Kind { kConv, kMaxPool, kLinear } kind;
  int out = 0;
  kernels::LayerPrecision p{8, 8};
};

// 32x32x8 8-bit input -> conv16 (8x4 mixed, w4/out4) -> conv16 (4-bit) ->
// maxpool -> conv32 (4x2 mixed, w2/out2) -> conv32 (2-bit) -> maxpool ->
// linear16 (2-bit). 7.11 MMAC.
const NetLayer kNetMixed[] = {
    {NetLayer::Kind::kConv, 16, {4, 4}},
    {NetLayer::Kind::kConv, 16, {4, 4}},
    {NetLayer::Kind::kMaxPool, 0, {4, 4}},
    {NetLayer::Kind::kConv, 32, {2, 2}},
    {NetLayer::Kind::kConv, 32, {2, 2}},
    {NetLayer::Kind::kMaxPool, 0, {2, 2}},
    {NetLayer::Kind::kLinear, 16, {2, 2}},
};
constexpr qnn::Shape kNetInput{32, 32, 8};

class NetMixed final : public Workload {
 public:
  void setup(u64 seed) override {
    seed_ = seed;
    net_ = std::make_unique<kernels::Network>(kNetInput, 8, seed);
    qnn::Shape shape = kNetInput;
    unsigned bits = 8;
    Rng rng(seed ^ 0x5eedull);
    for (const NetLayer& l : kNetMixed) {
      Probe pr;
      pr.kind = l.kind;
      if (l.kind == NetLayer::Kind::kMaxPool) {
        net_->maxpool();
        // Probe-only pool input: random codes of the pool's shape/width.
        pr.pool_in = qnn::Tensor(shape);
        pr.pool_bits = bits;
        for (int i = 0; i < shape.elems(); ++i) {
          pr.pool_in.flat(i) = rng.uniform(0, (1 << bits) - 1);
        }
        shape = {shape.h / 2, shape.w / 2, shape.c};
      } else {
        qnn::ConvSpec& s = pr.spec;
        if (l.kind == NetLayer::Kind::kConv) {
          net_->conv(l.out, 3, 1, l.p);
          s.in_h = shape.h;
          s.in_w = shape.w;
          s.in_c = shape.c;
          s.k_h = s.k_w = 3;
          s.pad = 1;
          shape = {s.out_h(), s.out_w(), l.out};
        } else {
          net_->linear(l.out, l.p);
          s.in_h = s.in_w = 1;
          s.in_c = shape.elems();
          s.k_h = s.k_w = 1;
          s.pad = 0;
          shape = {1, 1, l.out};
        }
        s.out_c = l.out;
        s.in_bits = bits;
        s.w_bits = l.p.w_bits;
        s.out_bits = l.p.out_bits;
        bits = l.p.out_bits;
      }
      probes_.push_back(std::move(pr));
    }
    input_ = qnn::Tensor(kNetInput);
    for (int i = 0; i < input_.elems(); ++i) input_.flat(i) = rng.uniform(0, 255);
  }

  std::string key_name(int) const override { return "net"; }

  OpOutcome op(u64) override {
    const kernels::NetworkResult r = net_->run(input_, cfg_);
    return {checked(r), r.total_cycles, 0};
  }

  OpOutcome traced_op(u64 i, Tracer& t, Sample& s) override {
    OpOutcome out;
    const int root = t.begin("op", -1, i);
    kernels::NetworkResult r;
    s["kernels.network_s"] = t.timed("kernels.network", root, i,
                                     [&] { r = net_->run(input_, cfg_); });
    out = {checked(r), r.total_cycles, 0};
    s["op_s"] = t.end(root);
    if (!probe(i, t, s)) out.ok = false;
    return out;
  }

 private:
  /// Network::run checks every layer against its golden model; on top of
  /// that, every op must reproduce the first op's output exactly.
  bool checked(const kernels::NetworkResult& r) {
    if (!have_ref_) {
      ref_output_ = r.output;
      have_ref_ = true;
    }
    return r.all_matched && r.output == ref_output_;
  }

  struct Probe {
    NetLayer::Kind kind = NetLayer::Kind::kConv;
    qnn::ConvSpec spec;      // conv / linear
    qnn::Tensor pool_in;     // pool
    unsigned pool_bits = 8;  // pool
  };

  /// Splits one inference into layers by calling, layer by layer, the
  /// public functions Network::run is built from. Network::run itself is
  /// one span: its internals (threshold training in particular) are not
  /// reachable, so kernels.glue_s is the network span minus these spans.
  bool probe(u64 i, Tracer& t, Sample& s) {
    const int root = t.begin("probe", -1, i);
    bool ok = true;
    double calib = 0, runner = 0, pool = 0, golden = 0, codegen = 0, load = 0;
    double sim_s = 0, conv_sim_s = 0, attrib = 0;
    SimTally tally;
    std::map<std::string, std::pair<double, u64>> by_fmt;  // seconds, instrs
    for (size_t l = 0; l < probes_.size(); ++l) {
      const Probe& pr = probes_[l];
      mem::Memory mem;
      if (pr.kind == NetLayer::Kind::kMaxPool) {
        kernels::PoolRunResult r;
        pool += t.timed("kernels.pool", root, i, [&] {
          r = kernels::run_pool2x2(pr.pool_in, pr.pool_bits,
                                   kernels::PoolOp::kMax, cfg_);
        });
        qnn::Tensor g;
        golden += t.timed("qnn.golden", root, i,
                          [&] { g = qnn::maxpool2x2_ref(pr.pool_in); });
        ok = ok && r.output == g;
        std::optional<kernels::PoolKernel> opk;
        codegen += t.timed("kernels.codegen", root, i, [&] {
          opk = kernels::generate_pool2x2_kernel(pr.pool_in.shape(), pr.pool_bits,
                                                kernels::PoolOp::kMax, true);
        });
        const kernels::PoolKernel& pk = *opk;
        load += t.timed("kernels.load", root, i, [&] {
          pk.program.load(mem);
          mem.write_block(pk.in_base, qnn::pack_tensor(pr.pool_in, pr.pool_bits));
        });
        sim::Core core(mem, cfg_);
        core.reset(pk.program.entry(),
                   pk.program.base() + pk.program.size_bytes());
        sim_s += t.timed("sim.run", root, i, [&] { core.run(kMaxInstr); });
        ok = ok && core.halt_reason() == sim::HaltReason::kEcall &&
             core.perf().cycles == r.perf.cycles;
        tally.add(core);
        continue;
      }

      ConvLayerData data;
      calib += t.timed("kernels.calib", root, i, [&] {
        data = ConvLayerData::random(pr.spec, seed_ + 1000 * (l + 1));
      });
      kernels::ConvGenOptions opts;
      opts.pixel_block = (data.spec.out_w() % 2 == 0) ? 2 : 1;
      const ConvVariant v = data.spec.in_bits != data.spec.w_bits
                                ? ConvVariant::kXpulpNN_Mixed
                                : ConvVariant::kXpulpNN_HwQ;
      kernels::ConvRunResult r;
      runner += t.timed("kernels.runner", root, i, [&] {
        r = kernels::run_conv_layer(data, v, cfg_, opts);
      });
      qnn::Tensor g;
      golden += t.timed("qnn.golden", root, i, [&] { g = data.golden(); });
      ok = ok && r.output == g;

      std::optional<kernels::ConvKernel> ock;
      codegen += t.timed("kernels.codegen", root, i, [&] {
        ock = kernels::generate_conv_kernel(data.spec, v, 0x40000, opts);
      });
      const kernels::ConvKernel& ck = *ock;
      load += t.timed("kernels.load", root, i, [&] {
        ck.program.load(mem);
        kernels::load_conv_data(data, ck.layout, mem);
      });
      const addr_t code_end = ck.program.base() + ck.program.size_bytes();
      sim::Core core(mem, cfg_);
      core.reset(ck.program.entry(), code_end);
      const double run_s = t.timed("sim.run", root, i, [&] { core.run(kMaxInstr); });
      ok = ok && core.halt_reason() == sim::HaltReason::kEcall &&
           core.perf().cycles == r.perf.cycles;
      sim_s += run_s;
      conv_sim_s += run_s;
      tally.add(core);
      auto& f = by_fmt[fmt_name(data.spec)];
      f.first += run_s;
      f.second += core.perf().instructions;

      // The same run with an obs::Profiler attached, as run_conv_layer
      // attaches one to attribute its quant cycles.
      mem::Memory pmem;
      ck.program.load(pmem);
      kernels::load_conv_data(data, ck.layout, pmem);
      sim::Core pcore(pmem, cfg_);
      pcore.reset(ck.program.entry(), code_end);
      attrib += t.timed("obs.attrib", root, i, [&] {
        obs::Profiler::Options po;
        po.track_pc = false;
        obs::Profiler prof(pcore, ck.regions, po);
        pcore.run(kMaxInstr);
        prof.finalize();
      });
      ok = ok && pcore.perf().cycles == core.perf().cycles;
    }
    t.end(root);

    const double net = s["kernels.network_s"];
    s["kernels.calib_s"] = calib;
    s["kernels.runner_s"] = runner;
    s["kernels.pool_s"] = pool;
    s["qnn.golden_s"] = golden;
    s["kernels.glue_s"] = net - (calib + runner + pool + golden);
    s["kernels.overhead_x"] = net / sim_s;
    s["kernels.codegen_s"] = codegen;
    s["kernels.codegen_calls"] = static_cast<double>(probes_.size());
    s["kernels.load_s"] = load;
    s["obs.attrib_s"] = attrib - conv_sim_s;
    s["obs.attrib_x"] = attrib / conv_sim_s;
    tally.report(s, sim_s);
    for (const auto& [fmt, f] : by_fmt) {
      s["sim.mips." + fmt] = static_cast<double>(f.second) / f.first / 1e6;
    }
    return ok;
  }

  sim::CoreConfig cfg_ = core_config();
  u64 seed_ = 0;
  std::unique_ptr<kernels::Network> net_;
  qnn::Tensor input_;
  qnn::Tensor ref_output_;
  bool have_ref_ = false;
  std::vector<Probe> probes_;
};

// ---------------------------------------------------------------------------
// cluster-paper: one op is one run_parallel_conv of the paper layer on 8
// cores; ops rotate through 8-bit (kXpulpV2_8b), 4-bit and 2-bit
// (kXpulpNN_HwQ).

class ClusterPaper final : public Workload {
 public:
  static constexpr unsigned kBits[3] = {8, 4, 2};

  void setup(u64 seed) override {
    double calib = 0, golden = 0;
    for (unsigned b : kBits) {
      double t0 = now_s();
      data_.push_back(ConvLayerData::random(qnn::ConvSpec::paper_layer(b), seed));
      calib += now_s() - t0;
      t0 = now_s();
      gold_.push_back(data_.back().golden());
      golden += now_s() - t0;
    }
    setup_sample["kernels.calib_s"] = calib;
    setup_sample["qnn.golden_s"] = golden;
  }

  int round() const override { return 3; }
  std::string key_name(int key) const override {
    return std::to_string(kBits[key]) + "b";
  }

  OpOutcome op(u64 i) override {
    const int k = static_cast<int>(i % 3);
    const cluster::ParallelConvResult r =
        cluster::run_parallel_conv(data_[k], variant(k), cfg_);
    return {r.output == gold_[k], r.stats.makespan, k};
  }

  OpOutcome traced_op(u64 i, Tracer& t, Sample& s) override {
    const int k = static_cast<int>(i % 3);
    const ConvVariant v = variant(k);
    double t_instr = 0, t_after = 0;
    cluster::ClusterBurstStats burst;
    SimTally tally;
    const auto instrument = [&](cluster::Cluster&,
                                const std::vector<kernels::ConvKernel>&) {
      t_instr = now_s();
    };
    const auto after_run = [&](cluster::Cluster& c,
                               const std::vector<kernels::ConvKernel>&) {
      t_after = now_s();
      burst = c.burst_stats();
      for (int n = 0; n < c.num_cores(); ++n) tally.add(c.core(n));
    };

    const int root = t.begin("op", -1, i);
    const int call = t.begin("cluster.run_parallel_conv", root, i);
    const cluster::ParallelConvResult r =
        cluster::run_parallel_conv(data_[k], v, cfg_, instrument, after_run);
    t.end(call);
    const double call_start = t.spans()[static_cast<size_t>(call)].start;
    t.add("cluster.prep", call_start, t_instr, call, i);
    t.add("cluster.run", t_instr, t_after, call, i);
    bool ok = false;
    t.timed("qnn.golden_check", root, i, [&] { ok = r.output == gold_[k]; });
    s["op_s"] = t.end(root);

    // Probe: the codegen run_parallel_conv does internally, timed alone.
    const int probe = t.begin("probe", -1, i);
    const double codegen = t.timed("kernels.codegen", probe, i, [&] {
      (void)cluster::make_parallel_conv_kernels(data_[k].spec, v, cfg_.num_cores);
    });
    t.end(probe);

    const double run_s = t_after - t_instr;
    s["cluster.prep_s"] = t_instr - call_start;
    s["cluster.run_s"] = run_s;
    s["cluster.burst_s"] = burst.host_burst_seconds;
    s["cluster.merge_s"] = burst.host_merge_seconds;
    s["cluster.mips"] = static_cast<double>(tally.instructions) / run_s / 1e6;
    s["cluster.replayed_accesses"] = static_cast<double>(burst.replayed_accesses);
    s["cluster.fallback_runs"] = static_cast<double>(burst.fallback_runs);
    s["cluster.bank_conflicts"] = static_cast<double>(r.stats.bank_conflicts);
    s["kernels.codegen_s"] = codegen;
    s["kernels.codegen_calls"] = cfg_.num_cores;
    // Tensor packing/writes, cluster construction and program loading:
    // the rest of the prep phase, not separately reachable.
    s["kernels.load_s"] = s["cluster.prep_s"] - codegen;
    // The sim layer inside the cluster is the cores' burst phase.
    tally.report(s, burst.host_burst_seconds);
    s["sim.mips." + fmt_name(data_[k].spec)] = s["sim.mips"];
    return {ok, r.stats.makespan, k};
  }

 private:
  static ConvVariant variant(int k) {
    return kBits[k] == 8 ? ConvVariant::kXpulpV2_8b : ConvVariant::kXpulpNN_HwQ;
  }

  cluster::ClusterConfig cfg_ = cluster_config();
  std::vector<ConvLayerData> data_;
  std::vector<qnn::Tensor> gold_;
};

// ---------------------------------------------------------------------------
// streamed-tiles: one op is one run_conv_streamed of the 4-bit paper layer
// with 8-channel weight tiles, double-buffered, 4 B/cycle.

class StreamedTiles final : public Workload {
 public:
  static constexpr int kTileChannels = 8;
  static constexpr u32 kDmaBytesPerCycle = 4;

  void setup(u64 seed) override {
    double t0 = now_s();
    data_ = ConvLayerData::random(qnn::ConvSpec::paper_layer(4), seed);
    setup_sample["kernels.calib_s"] = now_s() - t0;
    t0 = now_s();
    gold_ = data_.golden();
    setup_sample["qnn.golden_s"] = now_s() - t0;
  }

  std::string key_name(int) const override { return "4b"; }

  OpOutcome op(u64) override {
    const soc::StreamedConvResult r = run();
    return {r.output == gold_, r.makespan, 0};
  }

  OpOutcome traced_op(u64 i, Tracer& t, Sample& s) override {
    const int root = t.begin("op", -1, i);
    soc::StreamedConvResult r;
    const double run_s = t.timed("soc.run_conv_streamed", root, i, [&] { r = run(); });
    bool ok = false;
    t.timed("qnn.golden_check", root, i, [&] { ok = r.output == gold_; });
    s["op_s"] = t.end(root);

    // Probe: the per-tile codegen and the packing/loading the runner does
    // internally, through the same public functions.
    const int probe = t.begin("probe", -1, i);
    const qnn::ConvSpec& spec = data_.spec;
    const int tiles = spec.out_c / kTileChannels;
    std::vector<kernels::ConvKernel> progs;
    const double codegen = t.timed("kernels.codegen", probe, i, [&] {
      for (int tile = 0; tile < tiles; ++tile) {
        kernels::ConvGenOptions o;
        o.ch_begin = tile * kTileChannels;
        o.ch_end = (tile + 1) * kTileChannels;
        o.pixel_block = (spec.out_w() % 2 == 0) ? 2 : 1;
        progs.push_back(kernels::generate_conv_kernel(spec, kVariant, 0x40000, o));
      }
    });
    const double load = t.timed("kernels.load", probe, i, [&] {
      mem::Memory tcdm;
      const kernels::ConvMemLayout& l = progs.front().layout;
      tcdm.write_block(l.input, qnn::pack_tensor(data_.input, spec.in_bits));
      tcdm.write_block(l.thresholds, data_.thresholds.serialize());
      (void)qnn::pack_filter_bank(data_.weights, spec.w_bits);
      for (const auto& p : progs) p.program.load(tcdm);
    });
    t.end(probe);

    s["soc.run_s"] = run_s;
    s["soc.mips"] = static_cast<double>(r.perf.instructions) / run_s / 1e6;
    s["soc.tiles"] = r.tiles;
    s["soc.compute_cycles"] = static_cast<double>(r.compute_cycles);
    s["soc.dma_cycles"] = static_cast<double>(r.dma_cycles);
    s["soc.overlap_eff"] = r.overlap_efficiency();
    s["kernels.codegen_s"] = codegen;
    s["kernels.codegen_calls"] = tiles;
    s["kernels.load_s"] = load;
    return {ok, r.makespan, 0};
  }

 private:
  static constexpr ConvVariant kVariant = ConvVariant::kXpulpNN_HwQ;

  soc::StreamedConvResult run() const {
    return soc::run_conv_streamed(data_, kVariant, cfg_, kTileChannels,
                                  /*double_buffered=*/true, kDmaBytesPerCycle);
  }

  sim::CoreConfig cfg_ = core_config();
  ConvLayerData data_;
  qnn::Tensor gold_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "net-mixed") return std::make_unique<NetMixed>();
  if (name == "cluster-paper") return std::make_unique<ClusterPaper>();
  if (name == "streamed-tiles") return std::make_unique<StreamedTiles>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Metric catalogue (names and units as BENCHMARK.json declares them).

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"op_ms_p90", "ms"},   {"ops_per_s", "1/s"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"}, {"guest_cycles", "cycles"},
};

const MetricDef kPerLayer[] = {
    {"obs.attrib_s", "s"},
    {"obs.attrib_x", "x"},
    {"kernels.calib_s", "s"},
    {"kernels.runner_s", "s"},
    {"kernels.pool_s", "s"},
    {"kernels.network_s", "s"},
    {"kernels.glue_s", "s"},
    {"kernels.overhead_x", "x"},
    {"kernels.codegen_s", "s"},
    {"kernels.codegen_calls", "count"},
    {"kernels.load_s", "s"},
    {"qnn.golden_s", "s"},
    {"sim.run_s", "s"},
    {"sim.instructions", "count"},
    {"sim.mips", "MIPS"},
    {"sim.fused_frac", "frac"},
    {"sim.blocks_compiled", "count"},
    {"sim.entry_rejects", "count"},
    {"sim.mips.u8", "MIPS"},
    {"sim.mips.u4", "MIPS"},
    {"sim.mips.u2", "MIPS"},
    {"sim.mips.m8x4", "MIPS"},
    {"sim.mips.m4x2", "MIPS"},
    {"cluster.run_s", "s"},
    {"cluster.prep_s", "s"},
    {"cluster.burst_s", "s"},
    {"cluster.merge_s", "s"},
    {"cluster.mips", "MIPS"},
    {"cluster.replayed_accesses", "count"},
    {"cluster.fallback_runs", "count"},
    {"cluster.bank_conflicts", "count"},
    {"soc.run_s", "s"},
    {"soc.mips", "MIPS"},
    {"soc.tiles", "count"},
    {"soc.compute_cycles", "cycles"},
    {"soc.dma_cycles", "cycles"},
    {"soc.overlap_eff", "frac"},
    {"trace_overhead", "frac"},
};

// ---------------------------------------------------------------------------
// Measurement.

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans;  // span file path (--trace 1)
};

struct Loop {
  std::vector<double> op_s;     // wall time per op
  std::vector<double> probe_s;  // host_probe() after each untraced op
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Sample> samples;  // traced ops only
  std::vector<int> keys;        // key of each traced sample
};

/// Enforces "every op with the same key reports the same guest cycles",
/// across untraced and traced ops of the run.
class CycleCheck {
 public:
  bool accept(const OpOutcome& o) {
    auto [it, fresh] = cycles_.emplace(o.key, o.guest_cycles);
    return fresh || it->second == o.guest_cycles;
  }
  const std::map<int, cycles_t>& by_key() const { return cycles_; }

 private:
  std::map<int, cycles_t> cycles_;
};

/// Closed loop: each op starts when the previous one returns. Stops on a
/// round boundary once `seconds` have passed and at least `min_ops` ran,
/// or at the wall cap.
Loop run_loop(Workload& w, CycleCheck& cc, double seconds, size_t min_ops,
              Tracer* tracer, u64& next_op) {
  Loop lp;
  const double t0 = now_s();
  for (;;) {
    for (int r = 0; r < w.round(); ++r) {
      const u64 i = next_op++;
      Sample s;
      OpOutcome o;
      bool ok = false;
      const double a = now_s();
      try {
        o = tracer ? w.traced_op(i, *tracer, s) : w.op(i);
        ok = o.ok;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "qnnbench: op %llu threw: %s\n",
                     static_cast<unsigned long long>(i), e.what());
      }
      const double b = now_s();
      ok = ok && cc.accept(o);
      ++lp.attempted;
      if (!ok) ++lp.failed;
      lp.op_s.push_back(tracer && s.count("op_s") ? s["op_s"] : b - a);
      if (!tracer) {
        lp.probe_s.push_back(host_probe(b - a));
      } else {
        lp.samples.push_back(std::move(s));
        lp.keys.push_back(o.key);
      }
    }
    const double el = now_s() - t0;
    if ((el >= seconds && lp.op_s.size() >= min_ops) || el >= kWallCapS) break;
  }
  return lp;
}

/// Host time `t` at the uncontended host's speed, given the probe time
/// measured next to it.
double at_nominal_speed(double t, double probe_s) {
  return t * kProbeNominalS / probe_s;
}

/// Each op's time at the uncontended host's speed, from the probe run
/// right after it.
std::vector<double> ops_at_nominal_speed(const Loop& lp) {
  std::vector<double> out;
  for (size_t j = 0; j < lp.op_s.size(); ++j) {
    out.push_back(at_nominal_speed(lp.op_s[j], lp.probe_s[j]));
  }
  return out;
}

/// Ops per second of op time at the uncontended host's speed: the whole
/// run's op time is rescaled by its mean probe time.
double ops_per_s(const Loop& lp) {
  double busy = 0, probe = 0;
  for (double t : lp.op_s) busy += t;
  for (double t : lp.probe_s) probe += t;
  const double n = static_cast<double>(lp.op_s.size());
  return n / at_nominal_speed(busy, probe / n);
}

/// Per-layer value of a metric: the median over traced ops of each key,
/// then the mean over keys (so a rotation's formats weigh equally).
double aggregate(const Loop& lp, const std::string& name) {
  std::map<int, std::vector<double>> by_key;
  for (size_t n = 0; n < lp.samples.size(); ++n) {
    const auto it = lp.samples[n].find(name);
    if (it != lp.samples[n].end()) by_key[lp.keys[n]].push_back(it->second);
  }
  if (by_key.empty()) return 0;
  double sum = 0;
  for (const auto& kv : by_key) sum += median(kv.second);
  return sum / static_cast<double>(by_key.size());
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void write_spans(const std::string& path, const Args& a, const Tracer& t) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write span file " + path);
  f << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
    << ", \"spans\": [\n";
  const auto& sp = t.spans();
  for (size_t n = 0; n < sp.size(); ++n) {
    f << "  {\"id\": " << n << ", \"name\": \"" << sp[n].name
      << "\", \"start_s\": " << num(sp[n].start) << ", \"end_s\": "
      << num(sp[n].end) << ", \"parent\": " << sp[n].parent
      << ", \"op\": " << sp[n].op << "}" << (n + 1 < sp.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  if (!f) throw std::runtime_error("failed writing span file " + path);
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    char* endp = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &endp, 10);
      if (*v == '\0' || *endp != '\0') return false;
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &endp);
      if (*v == '\0' || *endp != '\0' || !(a.seconds > 0)) return false;
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") && std::strcmp(v, "1")) return false;
      a.trace = v[0] - '0';
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && a.trace >= 0;
}

int run(const Args& a) {
  // Set-up, several times: setup_s is the median, each set-up at the
  // uncontended host's speed. The last instance is the one measured.
  std::unique_ptr<Workload> w;
  std::vector<double> setups;
  bool setup_ok = true;
  CycleCheck cc;
  u64 next_op = 0;
  for (int r = 0; r < kSetupReps; ++r) {
    w = make_workload(a.workload);
    CycleCheck warm_cc;
    const double t0 = now_s();
    w->setup(a.seed);
    for (int k = 0; k < w->round(); ++k) {  // warm-up: one op per key
      const OpOutcome o = w->op(static_cast<u64>(k));
      setup_ok = setup_ok && o.ok && warm_cc.accept(o) && cc.accept(o);
    }
    const double setup = now_s() - t0;
    setups.push_back(at_nominal_speed(setup, host_probe(setup)));
  }
  next_op = static_cast<u64>(w->round());

  Loop lp;
  Loop traced;
  Tracer tracer;
  if (a.trace == 0) {
    lp = run_loop(*w, cc, a.seconds, kMinSamples, nullptr, next_op);
  } else {
    // Untraced and traced halves; each stops on a round boundary.
    const size_t min_ops = static_cast<size_t>(3 * w->round());
    lp = run_loop(*w, cc, a.seconds / 2, min_ops, nullptr, next_op);
    traced = run_loop(*w, cc, a.seconds / 2, min_ops, &tracer, next_op);
  }

  const u64 attempted = lp.attempted + traced.attempted;
  const u64 failed = lp.failed + traced.failed;
  double cycles_mean = 0;
  std::string by_key;
  for (const auto& [k, c] : cc.by_key()) {
    cycles_mean += static_cast<double>(c);
    by_key += (by_key.empty() ? "" : ", ") + std::string("\"") +
              w->key_name(k) + "\": " + std::to_string(c);
  }
  cycles_mean /= static_cast<double>(cc.by_key().size());
  const bool correct = setup_ok && failed == 0;

  const std::vector<double> op_s = ops_at_nominal_speed(lp);
  const double p90 = percentile(op_s, 0.9);
  const auto tail = std::count_if(op_s.begin(), op_s.end(),
                                  [&](double x) { return x > p90; });
  std::map<std::string, double> m;
  if (a.trace == 0) {
    m["op_ms_p90"] = 1e3 * p90;
    m["ops_per_s"] = ops_per_s(lp);
    m["setup_s"] = median(setups);
    m["peak_rss_mb"] = peak_rss_mb();
    m["guest_cycles"] = cycles_mean;
  } else {
    for (const MetricDef& d : kPerLayer) m[d.name] = aggregate(traced, d.name);
    for (const auto& [name, v] : w->setup_sample) {
      if (m[name] == 0) m[name] = v;
    }
    m["trace_overhead"] = median(traced.op_s) / median(lp.op_s) - 1.0;
    if (!a.spans.empty()) write_spans(a.spans, a, tracer);
  }

  // Environment and detail record (not the result line).
  std::printf(
      "{\"qnnbench\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"nproc\": %u, "
      "\"superblock\": true, \"scheduler\": \"burst\", \"cluster_cores\": 8, "
      "\"host_threads\": 1, \"loop\": \"closed, 1 caller\", "
      "\"samples\": %zu, \"p90_tail_samples\": %lld, \"p50_ms\": %s, "
      "\"wall_p50_ms\": %s, \"wall_p90_ms\": %s, \"host_speed\": %s, "
      "\"traced_samples\": %zu, "
      "\"error_rate\": %s, \"guest_cycles_by_key\": {%s}, \"spans\": \"%s\"}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
      QNNBENCH_BUILD_TYPE, QNNBENCH_COMPILER,
      std::thread::hardware_concurrency(), lp.op_s.size(),
      static_cast<long long>(tail), num(1e3 * median(op_s)).c_str(),
      num(1e3 * median(lp.op_s)).c_str(),
      num(1e3 * percentile(lp.op_s, 0.9)).c_str(),
      num(kProbeNominalS / median(lp.probe_s)).c_str(), traced.op_s.size(),
      num(static_cast<double>(failed) / static_cast<double>(attempted)).c_str(),
      by_key.c_str(), a.trace ? a.spans.c_str() : "");

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& d) {
    out += std::string(first ? "" : ", ") + "\"" + d.name + "\": {\"value\": " +
           num(m[d.name]) + ", \"unit\": \"" + d.unit + "\"}";
    first = false;
  };
  if (a.trace == 0) {
    for (const MetricDef& d : kEndToEnd) emit(d);
  } else {
    for (const MetricDef& d : kPerLayer) emit(d);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: qnnbench --workload <net-mixed|cluster-paper|"
                 "streamed-tiles> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <file>]\n");
    return 2;
  }
  if (!make_workload(a.workload)) {
    std::fprintf(stderr, "qnnbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qnnbench: %s\n", e.what());
    return 1;
  }
}
