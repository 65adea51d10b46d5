#include "kernels/network.hpp"

#include "common/error.hpp"
#include "qnn/ref_layers.hpp"

namespace xpulp::kernels {

Network::Network(qnn::Shape input_shape, unsigned bits, u64 seed)
    : bits_(bits), cur_bits_(bits), seed_(seed), shape_(input_shape) {
  if (bits != 2 && bits != 4 && bits != 8) {
    throw SimError("network bits must be 2, 4 or 8");
  }
}

Network& Network::conv(int out_c, int k, int pad) {
  return conv(out_c, k, pad, LayerPrecision{cur_bits_, cur_bits_});
}

Network& Network::conv(int out_c, int k, int pad, LayerPrecision p) {
  if (p.out_bits != 2 && p.out_bits != 4 && p.out_bits != 8) {
    throw SimError("layer out_bits must be 2, 4 or 8");
  }
  if (p.w_bits != cur_bits_) {
    mixed_sel_for(cur_bits_, p.w_bits);  // throws on unsupported pair
  }
  Step s;
  s.kind = Step::Kind::kConv;
  s.spec.in_h = shape_.h;
  s.spec.in_w = shape_.w;
  s.spec.in_c = shape_.c;
  s.spec.out_c = out_c;
  s.spec.k_h = s.spec.k_w = k;
  s.spec.pad = pad;
  s.spec.in_bits = cur_bits_;
  s.spec.w_bits = p.w_bits;
  s.spec.out_bits = p.out_bits;
  s.bits = cur_bits_;
  s.seed = seed_ + plan_.size() * 977;
  s.name = "conv" + std::to_string(plan_.size());
  shape_ = {s.spec.out_h(), s.spec.out_w(), out_c};
  cur_bits_ = p.out_bits;
  plan_.push_back(std::move(s));
  return *this;
}

Network& Network::maxpool() {
  Step s;
  s.kind = Step::Kind::kMaxPool;
  s.name = "maxpool" + std::to_string(plan_.size());
  s.bits = cur_bits_;
  s.seed = 0;
  shape_ = {shape_.h / 2, shape_.w / 2, shape_.c};
  plan_.push_back(std::move(s));
  return *this;
}

Network& Network::avgpool() {
  Step s;
  s.kind = Step::Kind::kAvgPool;
  s.name = "avgpool" + std::to_string(plan_.size());
  s.bits = cur_bits_;
  s.seed = 0;
  shape_ = {shape_.h / 2, shape_.w / 2, shape_.c};
  plan_.push_back(std::move(s));
  return *this;
}

Network& Network::linear(int out_features) {
  return linear(out_features, LayerPrecision{cur_bits_, cur_bits_});
}

Network& Network::linear(int out_features, LayerPrecision p) {
  if (p.out_bits != 2 && p.out_bits != 4 && p.out_bits != 8) {
    throw SimError("layer out_bits must be 2, 4 or 8");
  }
  if (p.w_bits != cur_bits_) {
    mixed_sel_for(cur_bits_, p.w_bits);  // throws on unsupported pair
  }
  Step s;
  s.kind = Step::Kind::kLinear;
  s.spec = qnn::ConvSpec::linear(shape_.elems(), out_features, cur_bits_);
  s.spec.w_bits = p.w_bits;
  s.spec.out_bits = p.out_bits;
  s.bits = cur_bits_;
  s.seed = seed_ + plan_.size() * 977;
  s.name = "linear" + std::to_string(plan_.size());
  shape_ = {1, 1, out_features};
  cur_bits_ = p.out_bits;
  plan_.push_back(std::move(s));
  return *this;
}

NetworkResult Network::run(const qnn::Tensor& input,
                           const sim::CoreConfig& cfg,
                           ConvVariant variant) const {
  NetworkResult res;
  qnn::Tensor act = input;

  for (const Step& step : plan_) {
    LayerStats st;
    st.name = step.name;
    switch (step.kind) {
      case Step::Kind::kConv:
      case Step::Kind::kLinear: {
        // Weights as ConvLayerData::random draws them; calibration and
        // the golden output both come from one accumulator pass over the
        // layer's actual input.
        ConvLayerData data;
        data.spec = step.spec;
        if (step.kind == Step::Kind::kLinear) {
          data.input = qnn::Tensor({1, 1, act.elems()});
          data.input.data() = std::move(act.data());
        } else {
          data.input = std::move(act);
        }
        data.weights = ConvLayerData::random_weights(step.spec, step.seed);
        const qnn::Tensor acc = qnn::conv_accumulators(
            data.input, data.weights, data.spec, step.name);
        qnn::calibrate(acc, data.spec, data.thresholds);
        // Mixed-precision layers always dispatch to the virtual-SIMD
        // kernel; the variant parameter only selects among uniform ones.
        const ConvVariant v = step.spec.in_bits != step.spec.w_bits
                                  ? ConvVariant::kXpulpNN_Mixed
                                  : variant;
        ConvRunResult r = run_conv_layer(data, v, cfg);
        st.mismatch = qnn::first_mismatch(
            r.output, qnn::requantize(acc, data.spec, data.thresholds));
        st.cycles = r.perf.cycles;
        st.macs = r.macs;
        st.out_shape = r.output.shape();
        act = std::move(r.output);
        break;
      }
      case Step::Kind::kMaxPool:
      case Step::Kind::kAvgPool: {
        const PoolOp op = (step.kind == Step::Kind::kMaxPool) ? PoolOp::kMax
                                                              : PoolOp::kAvg;
        const PoolRunResult r = run_pool2x2(act, step.bits, op, cfg);
        const qnn::Tensor gold = (op == PoolOp::kMax)
                                     ? qnn::maxpool2x2_ref(act)
                                     : qnn::avgpool2x2_ref(act);
        st.mismatch = qnn::first_mismatch(r.output, gold);
        st.cycles = r.perf.cycles;
        st.macs = 0;
        st.out_shape = r.output.shape();
        act = r.output;
        break;
      }
    }
    res.total_cycles += st.cycles;
    res.total_macs += st.macs;
    res.all_matched = res.all_matched && !st.mismatch;
    res.layers.push_back(std::move(st));
  }
  res.output = std::move(act);
  return res;
}

}  // namespace xpulp::kernels
