#include "obs/sampler.hpp"

#include <cstdio>

#include "obs/delta.hpp"

namespace xpulp::obs {

namespace {

// MACs per dot-product op by multiplier region {16, 8, 4, 2}-bit.
constexpr u64 kDotpMacs[4] = {2, 4, 8, 16};

}  // namespace

Sampler::Sampler(sim::Core& core, const Options& opts)
    : core_(core),
      cfg_(core.config()),
      opts_(opts),
      capacity_(opts.capacity ? opts.capacity : 1),
      mem_src_(opts.mem_stats ? opts.mem_stats : &core.memory().stats()) {
  ring_.reserve(std::min<size_t>(capacity_, 4096));
  last_perf_ = core_.perf();
  last_mem_ = *mem_src_;
  last_dotp_ = core_.dotp_unit().activity();
  last_sb_ = core_.superblock_stats();
  if (opts_.timeline) {
    const std::string pre = opts_.track_prefix + "/";
    name_ipc_ = opts_.timeline->intern(pre + "ipc");
    name_stall_ = opts_.timeline->intern(pre + "stall_frac");
    name_macs_ = opts_.timeline->intern(pre + "macs_per_cycle");
    name_fused_ = opts_.timeline->intern(pre + "fused_frac");
    name_core_mw_ = opts_.timeline->intern(pre + "core_mw");
    name_soc_mw_ = opts_.timeline->intern(pre + "soc_mw");
  }
  core_.set_sampler([this] { fire(); }, opts_.interval_cycles);
  attached_ = true;
}

Sampler::~Sampler() { finalize(); }

void Sampler::fire() {
  const Sample s = capture(core_.perf().cycles);
  push(s);
  stream(s);
}

Sample Sampler::capture(u64 ts) {
  Sample s;
  s.ts_cycles = ts;
  const sim::PerfCounters perf_now = core_.perf();
  const mem::MemStats mem_now = *mem_src_;
  const sim::DotpActivity dotp_now = core_.dotp_unit().activity();
  const sim::SuperblockStats sb_now = core_.superblock_stats();
  s.perf = diff(perf_now, last_perf_);
  s.mem = diff(mem_now, last_mem_);
  s.dotp = diff(dotp_now, last_dotp_);
  s.sb = diff(sb_now, last_sb_);
  last_perf_ = perf_now;
  last_mem_ = mem_now;
  last_dotp_ = dotp_now;
  last_sb_ = sb_now;
  return s;
}

void Sampler::push(const Sample& s) {
  if (ring_.size() < capacity_) {
    ring_.push_back(s);
  } else {
    ring_[head_] = s;
    head_ = (head_ + 1) % capacity_;
  }
  ++recorded_;
}

void Sampler::stream(const Sample& s) {
  if (!opts_.timeline) return;
  const SampleMetrics m = derive(s, core_.config(), opts_.op);
  const auto emit = [&](u16 name, double v) {
    CounterPoint p;
    p.ts = s.ts_cycles;
    p.value = v;
    p.name = name;
    p.track = opts_.track;
    opts_.timeline->record_counter(p);
  };
  emit(name_ipc_, m.ipc);
  emit(name_stall_, m.stall_frac);
  emit(name_macs_, m.macs_per_cycle);
  emit(name_fused_, m.fused_frac);
  emit(name_core_mw_, m.core_mw);
  emit(name_soc_mw_, m.soc_mw);
}

void Sampler::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (attached_) {
    // Trailing partial window: everything since the last fired boundary.
    if (core_.perf().cycles != last_perf_.cycles) {
      const Sample s = capture(core_.perf().cycles);
      push(s);
      stream(s);
    }
    core_.set_sampler({}, 0);
    cfg_ = core_.config();
    attached_ = false;
  }
}

std::vector<Sample> Sampler::samples() const {
  std::vector<Sample> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

SampleMetrics Sampler::derive(const Sample& s, const sim::CoreConfig& cfg,
                              const power::OperatingPoint& op) {
  SampleMetrics m;
  if (s.perf.cycles == 0) return m;
  const double cyc = static_cast<double>(s.perf.cycles);
  m.ipc = static_cast<double>(s.perf.instructions) / cyc;
  m.stall_frac = static_cast<double>(sim::perf_stall_cycles(s.perf)) / cyc;
  u64 macs = s.perf.mac_ops;
  for (unsigned i = 0; i < 4; ++i) macs += kDotpMacs[i] * s.perf.dotp_ops[i];
  m.macs_per_cycle = static_cast<double>(macs) / cyc;
  if (s.perf.instructions != 0) {
    m.fused_frac = static_cast<double>(s.sb.fused_instructions) /
                   static_cast<double>(s.perf.instructions);
  }
  const power::SocPower p = estimate_power(s.perf, s.dotp, s.mem, cfg, op);
  m.core_mw = p.core.core_mw();
  m.soc_mw = p.soc_mw();
  return m;
}

void Sampler::write_csv(std::ostream& os) const {
  os << "ts_cycles,cycles,instructions,ipc,stall_frac,macs_per_cycle,"
        "fused_frac,core_mw,soc_mw,loads,stores,contention_stalls\n";
  for (const Sample& s : samples()) {
    const SampleMetrics m = derive(s, cfg_, opts_.op);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.6g,%.6g,%.6g,%.6g,%.6g,%.6g", m.ipc,
                  m.stall_frac, m.macs_per_cycle, m.fused_frac, m.core_mw,
                  m.soc_mw);
    os << s.ts_cycles << ',' << s.perf.cycles << ',' << s.perf.instructions
       << ',' << buf << ',' << s.mem.loads << ',' << s.mem.stores << ','
       << s.mem.contention_stalls << '\n';
  }
}

void Sampler::add_to_registry(Registry& r, std::string_view prefix) const {
  const std::string pre = std::string(prefix) + ".";
  r.counter(pre + "interval_cycles", opts_.interval_cycles);
  r.counter(pre + "windows", recorded_);
  r.counter(pre + "dropped", dropped());
  sim::PerfCounters sum;
  sim::SuperblockStats sb;
  mem::MemStats msum;
  for (const Sample& s : samples()) {
    accumulate(sum, s.perf);
    accumulate(sb, s.sb);
    accumulate(msum, s.mem);
  }
  r.counter(pre + "retained.cycles", sum.cycles);
  r.counter(pre + "retained.instructions", sum.instructions);
  r.counter(pre + "retained.fused_instructions", sb.fused_instructions);
  r.counter(pre + "retained.sample_flushes", sb.sample_flushes);
  r.counter(pre + "retained.mem_loads", msum.loads);
  r.counter(pre + "retained.mem_stores", msum.stores);
}

}  // namespace xpulp::obs
