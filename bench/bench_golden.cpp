// Host golden-model bench: the two reference passes every conv/linear
// layer of Network::run pays for — qnn::conv_accumulators (one int16
// im2col dot pass) and qnn::calibrate (radix-sorted quantiles) — plus
// qnn::requantize, on each conv/linear layer of the qnnbench net-mixed
// stack. A last row, "requant" (layers.requantize in the JSON), times
// qnn::requantize alone over every layer against the per-element
// Thresholds::quantize loop it replaced.
// Each layer is timed against two baselines:
//   - the previous pass: the i32 per-tap accumulators and std::sort
//     quantiles the int16/radix pass replaced (copied below);
//   - the oracle: the per-element reference in tests/qnn_oracle.hpp,
//     which also checks every output and threshold bit for bit.
// Rounds interleave the three and keep each one's best (the first round
// is an uncounted warm-up), so the ratios do not depend on host speed.
//
// Emits BENCH_golden.json (obs::Registry JSON). --min-speedup X exits
// nonzero when any layer's speedup over the previous pass falls below X
// (the CI gate; the requant row counts as a layer); --rounds N sets the
// rounds (default 15).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "qnn_oracle.hpp"

using namespace xpulp;
using namespace xpulp::bench;

namespace {

// ---- the previous golden pass (i32 per-tap dots, std::sort quantiles) ----

qnn::Tensor prev_conv_accumulators(const qnn::Tensor& in,
                                   const qnn::FilterBank& w,
                                   const qnn::ConvSpec& s) {
  const int oh = s.out_h();
  const int ow = s.out_w();
  const size_t fe = static_cast<size_t>(s.filter_elems());
  qnn::Tensor acc({oh, ow, s.out_c});
  i32* out = acc.data().data();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, out += s.out_c) {
      for (int ky = 0; ky < s.k_h; ++ky) {
        const int y = oy * s.stride - s.pad + ky;
        if (y < 0 || y >= s.in_h) continue;
        for (int kx = 0; kx < s.k_w; ++kx) {
          const int x = ox * s.stride - s.pad + kx;
          if (x < 0 || x >= s.in_w) continue;
          const i32* a = &in.data()[static_cast<size_t>(y * s.in_w + x) *
                                    static_cast<size_t>(s.in_c)];
          const i32* f = &w.data()[static_cast<size_t>(ky * s.k_w + kx) *
                                   static_cast<size_t>(s.in_c)];
          for (int oc = 0; oc < s.out_c; ++oc, f += fe) {
            i32 sum = 0;
            for (int c = 0; c < s.in_c; ++c) sum += a[c] * f[c];
            out[oc] += sum;
          }
        }
      }
    }
  }
  return acc;
}

qnn::Thresholds prev_quantile_thresholds(std::vector<i32>& accs,
                                         unsigned q_bits) {
  const int levels = 1 << q_bits;
  std::sort(accs.begin(), accs.end());
  std::vector<i16> th(static_cast<size_t>(levels - 1));
  i32 prev = -40000;
  for (int i = 1; i < levels; ++i) {
    i32 t = accs[std::min(accs.size() - 1,
                          static_cast<size_t>(i) * accs.size() / levels)];
    if (t <= prev) t = prev + 1;
    t = std::clamp<i32>(t, -32768, 32767);
    th[static_cast<size_t>(i - 1)] = static_cast<i16>(t);
    prev = t;
  }
  return qnn::Thresholds(q_bits, std::move(th));
}

void prev_calibrate(const qnn::Tensor& acc, qnn::ConvSpec& s,
                    qnn::LayerThresholds& th) {
  if (s.out_bits == 8) {
    i32 max_acc = 1;
    for (const i32 a : acc.data()) max_acc = std::max(max_acc, a);
    u32 shift = 0;
    while ((max_acc >> shift) > 255) ++shift;
    s.requant_shift = shift;
    return;
  }
  const int channels = acc.shape().c;
  const int positions = acc.shape().h * acc.shape().w;
  std::vector<qnn::Thresholds> per_channel;
  if (positions < 2 * (1 << s.out_bits)) {
    std::vector<i32> all = acc.data();
    per_channel.assign(static_cast<size_t>(channels),
                       prev_quantile_thresholds(all, s.out_bits));
  } else {
    std::vector<i32> accs(static_cast<size_t>(positions));
    for (int oc = 0; oc < channels; ++oc) {
      for (int p = 0; p < positions; ++p) {
        accs[static_cast<size_t>(p)] = acc.flat(p * channels + oc);
      }
      per_channel.push_back(prev_quantile_thresholds(accs, s.out_bits));
    }
  }
  th = qnn::LayerThresholds(s.out_bits, std::move(per_channel));
}

/// The previous requantize: the out-of-line linear-scan
/// Thresholds::quantize per element.
qnn::Tensor prev_requantize(const qnn::Tensor& acc,
                            const qnn::LayerThresholds& th) {
  qnn::Tensor out(acc.shape());
  const int channels = acc.shape().c;
  for (int i = 0; i < acc.elems(); i += channels) {
    for (int oc = 0; oc < channels; ++oc) {
      out.flat(i + oc) =
          static_cast<i32>(th.channel(oc).quantize(acc.flat(i + oc)));
    }
  }
  return out;
}

// ---- the three passes over one layer ----

struct Golden {
  qnn::Tensor output;
  qnn::ConvSpec spec;  // with the calibrated requant_shift
  qnn::LayerThresholds thresholds;
};

/// calibrate + requantize over one accumulator pass.
template <typename Accumulate, typename Calibrate>
Golden golden_pass(const kernels::ConvLayerData& d, Accumulate accumulate,
                   Calibrate calibrate) {
  Golden g;
  g.spec = d.spec;
  const qnn::Tensor acc = accumulate(d.input, d.weights, d.spec);
  calibrate(acc, g.spec, g.thresholds);
  g.output = qnn::requantize(acc, g.spec, g.thresholds);
  return g;
}

Golden oracle_pass(const kernels::ConvLayerData& d) {
  Golden g;
  g.spec = d.spec;
  const bool linear = d.spec.in_h == 1 && d.spec.in_w == 1;
  if (d.spec.out_bits == 8) {
    g.spec.requant_shift = qnn::old_requant_shift(d.input, d.weights, d.spec);
    g.output = qnn::old_conv2d_ref_u8(d.input, d.weights, g.spec);
  } else {
    g.thresholds = qnn::old_trained_thresholds(d.input, d.weights, d.spec);
    g.output = linear ? qnn::old_linear_ref(d.input, d.weights, g.thresholds)
                      : qnn::old_conv2d_ref(d.input, d.weights, g.thresholds,
                                            d.spec);
  }
  return g;
}

bool same(const Golden& a, const Golden& b) {
  return a.output == b.output &&
         a.spec.requant_shift == b.spec.requant_shift &&
         a.thresholds.serialize() == b.thresholds.serialize();
}

template <typename Fn>
double seconds_of(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

qnn::ConvSpec layer(int hw, int in_c, int out_c, unsigned in_bits,
                    unsigned w_bits, unsigned out_bits, int k) {
  qnn::ConvSpec s = qnn::ConvSpec::paper_layer(in_bits);
  s.in_h = s.in_w = hw;
  s.k_h = s.k_w = k;
  s.pad = k / 2;
  s.in_c = in_c;
  s.out_c = out_c;
  s.w_bits = w_bits;
  s.out_bits = out_bits;
  return s;
}

struct NetLayer {
  const char* name;
  qnn::ConvSpec spec;
};

}  // namespace

int main(int argc, char** argv) {
  double required_speedup = 0;
  int rounds = 15;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--min-speedup") && i + 1 < argc) {
      required_speedup = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--rounds") && i + 1 < argc) {
      rounds = std::max(1, std::atoi(argv[++i]));
    }
  }

  // The conv/linear layers of qnnbench's net-mixed stack, at the widths
  // Network::run gives them (a layer's input width is the previous one's
  // output width).
  const NetLayer layers[] = {
      {"conv0", layer(32, 8, 16, 8, 4, 4, 3)},
      {"conv1", layer(32, 16, 16, 4, 4, 4, 3)},
      {"conv3", layer(16, 16, 32, 4, 2, 2, 3)},
      {"conv4", layer(16, 32, 32, 2, 2, 2, 3)},
      {"linear6", layer(1, 8 * 8 * 32, 16, 2, 2, 2, 1)},
  };

  std::printf("Host golden model: conv_accumulators + calibrate + "
              "requantize per net-mixed layer\n");
  std::printf("(best of %d interleaved rounds; previous = i32 per-tap "
              "dots + std::sort, oracle = per-element reference)\n\n",
              rounds);
  std::printf("%-8s %8s %10s %10s %10s %9s %10s %6s\n", "layer", "MMAC",
              "golden ms", "prev ms", "oracle ms", "speedup", "vs oracle",
              "check");
  obs::Registry reg;
  bool all_ok = true;
  double min_speedup = 1e30;
  for (const NetLayer& l : layers) {
    const auto d = kernels::ConvLayerData::random(l.spec, kSeed);
    double t_new = 1e30, t_prev = 1e30, t_oracle = 1e30;
    Golden now, prev, oracle;
    for (int r = 0; r <= rounds; ++r) {
      const double tn = seconds_of([&] {
        now = golden_pass(
            d,
            [](const auto& in, const auto& w, const auto& s) {
              return qnn::conv_accumulators(in, w, s);
            },
            qnn::calibrate);
      });
      const double tp = seconds_of([&] {
        prev = golden_pass(d, prev_conv_accumulators, prev_calibrate);
      });
      const double to = seconds_of([&] { oracle = oracle_pass(d); });
      if (r == 0) continue;
      t_new = std::min(t_new, tn);
      t_prev = std::min(t_prev, tp);
      t_oracle = std::min(t_oracle, to);
    }
    const bool ok = same(now, oracle) && same(prev, oracle);
    all_ok = all_ok && ok;
    const double speedup = t_prev / t_new;
    min_speedup = std::min(min_speedup, speedup);
    const double mmac = static_cast<double>(l.spec.macs()) * 1e-6;
    std::printf("%-8s %8.2f %10.3f %10.3f %10.3f %8.2fx %9.1fx %6s\n",
                l.name, mmac, t_new * 1e3, t_prev * 1e3, t_oracle * 1e3,
                speedup, t_oracle / t_new, okstr(ok));
    const std::string p = std::string("layers.") + l.name;
    reg.counter(p + ".macs", l.spec.macs());
    reg.gauge(p + ".golden_s", t_new);
    reg.gauge(p + ".previous_s", t_prev);
    reg.gauge(p + ".oracle_s", t_oracle);
    reg.gauge(p + ".speedup", speedup);
    reg.gauge(p + ".speedup_vs_oracle", t_oracle / t_new);
    reg.gauge(p + ".golden_gmac_s", mmac * 1e-3 / t_new);
    reg.flag(p + ".output_ok", ok);
  }

  // requantize alone, over every layer's calibrated accumulators: the
  // inlined staircase against the per-element quantize it replaced.
  struct Requant {
    qnn::Tensor acc;
    qnn::ConvSpec spec;
    qnn::LayerThresholds th;
  };
  std::vector<Requant> rq;
  u64 elems = 0;
  for (const NetLayer& l : layers) {
    const auto d = kernels::ConvLayerData::random(l.spec, kSeed);
    Requant r{qnn::conv_accumulators(d.input, d.weights, d.spec), d.spec, {}};
    qnn::calibrate(r.acc, r.spec, r.th);
    elems += static_cast<u64>(r.acc.elems());
    rq.push_back(std::move(r));
  }
  double rq_new = 1e30, rq_prev = 1e30;
  bool rq_ok = true;
  for (int r = 0; r <= rounds; ++r) {
    std::vector<qnn::Tensor> now(rq.size()), prev(rq.size());
    const double tn = seconds_of([&] {
      for (size_t k = 0; k < rq.size(); ++k) {
        now[k] = qnn::requantize(rq[k].acc, rq[k].spec, rq[k].th);
      }
    });
    const double tp = seconds_of([&] {
      for (size_t k = 0; k < rq.size(); ++k) {
        prev[k] = prev_requantize(rq[k].acc, rq[k].th);
      }
    });
    rq_ok = rq_ok && now == prev;
    if (r == 0) continue;
    rq_new = std::min(rq_new, tn);
    rq_prev = std::min(rq_prev, tp);
  }
  all_ok = all_ok && rq_ok;
  const double rq_speedup = rq_prev / rq_new;
  min_speedup = std::min(min_speedup, rq_speedup);
  std::printf("%-8s %8s %10.3f %10.3f %10s %8.2fx %10s %6s\n", "requant",
              "-", rq_new * 1e3, rq_prev * 1e3, "-", rq_speedup, "-",
              okstr(rq_ok));
  reg.counter("layers.requantize.elements", elems);
  reg.gauge("layers.requantize.golden_s", rq_new);
  reg.gauge("layers.requantize.previous_s", rq_prev);
  reg.gauge("layers.requantize.speedup", rq_speedup);
  reg.flag("layers.requantize.output_ok", rq_ok);

  reg.counter("rounds", static_cast<u64>(rounds));
  reg.gauge("min_speedup", min_speedup);
  reg.gauge("required_min_speedup", required_speedup);
  reg.flag("all_ok", all_ok);
  all_ok = save_bench_json(reg, "BENCH_golden.json") && all_ok;
  if (required_speedup > 0 && min_speedup < required_speedup) {
    std::fprintf(stderr,
                 "FAIL: golden-pass speedup %.2fx below the required %.2fx\n",
                 min_speedup, required_speedup);
    return 1;
  }
  return all_ok ? 0 : 1;
}
