#include "obs/profiler.hpp"

#include <algorithm>
#include <sstream>

#include "obs/delta.hpp"

namespace xpulp::obs {

Profiler::Profiler(sim::Core& core, const RegionMap& regions,
                   const Options& opts)
    : core_(core),
      region_index_(regions.build_index()),
      n_regions_(regions.size()),
      tl_(opts.timeline),
      track_(opts.track),
      track_pc_(opts.track_pc),
      block_limit_(opts.block_instructions ? opts.block_instructions : 1) {
  region_names_.reserve(static_cast<size_t>(n_regions_) + 1);
  for (int i = 0; i < n_regions_; ++i) region_names_.push_back(regions.name(i));
  region_names_.emplace_back("other");
  cells_.resize(region_names_.size());
  region_hooks_.resize(region_names_.size());
  region_mnem_cycles_.resize(region_names_.size());
  for (auto& row : region_mnem_cycles_) row.fill(0);

  if (tl_) {
    for (const std::string& n : region_names_) {
      region_name_ids_.push_back(tl_->intern(n));
    }
    block_name_id_ = tl_->intern("instructions");
    stall_name_id_ = tl_->intern("stall");
  }

  core_.set_trace([this](addr_t pc, const isa::Instr& in) {
    return on_instr(pc, in);
  });
  attached_ = true;
}

Profiler::~Profiler() { finalize(); }

Profiler::Snapshot Profiler::snap() const {
  const sim::PerfCounters& p = core_.perf();
  return Snapshot{p.cycles,
                  p.branch_stall_cycles,
                  p.load_use_stall_cycles,
                  p.mem_stall_cycles,
                  p.mul_div_stall_cycles,
                  p.qnt_stall_cycles};
}

CounterCell Profiler::counters() const {
  return CounterCell{core_.perf(), core_.dotp_unit().activity(),
                     core_.memory().stats()};
}

bool Profiler::on_instr(addr_t pc, const isa::Instr& in) {
  // The hook fires before this instruction's stalls and base cycle are
  // charged, so the counter delta since the previous firing is exactly the
  // cost of the *previous* (pending) instruction.
  const Snapshot now = snap();
  if (pending_valid_) settle(now);
  pending_pc_ = pc;
  pending_op_ = in.op;
  pending_cls_ = in.cls;
  pending_region_ = region_of(pc);
  pending_valid_ = true;
  if (pending_region_ != cur_region_) enter_region(pending_region_);
  last_ = now;
  return true;
}

void Profiler::settle(const Snapshot& now) {
  const u64 dc = now.cycles - last_.cycles;
  StallBreakdown d;
  d.branch = now.branch - last_.branch;
  d.load_use = now.load_use - last_.load_use;
  d.mem = now.mem - last_.mem;
  d.mul_div = now.mul_div - last_.mul_div;
  d.qnt = now.qnt - last_.qnt;

  const auto add = [&](SiteStat& s) {
    s.instructions += 1;
    s.cycles += dc;
    s.stalls += d;
  };
  add(by_mnemonic_[static_cast<size_t>(pending_op_)]);
  add(by_class_[static_cast<size_t>(pending_cls_)]);
  region_hooks_[static_cast<size_t>(pending_region_)] += 1;
  region_mnem_cycles_[static_cast<size_t>(pending_region_)]
                     [static_cast<size_t>(pending_op_)] += dc;
  if (track_pc_) {
    const size_t parcel = pending_pc_ >> 1;
    if (parcel >= pc_stats_.size()) pc_stats_.resize(parcel + 1);
    add(pc_stats_[parcel]);
  }

  if (tl_) {
    // The settled instruction spans [last_.cycles, now.cycles). A region
    // switch happened at its start.
    if (pending_region_ != open_region_) {
      flush_block(last_.cycles);
      Event e;
      e.track = track_;
      e.ts = last_.cycles;
      if (open_region_ >= 0) {
        e.kind = EventKind::kRegionEnd;
        e.name = region_name_ids_[static_cast<size_t>(open_region_)];
        tl_->record(e);
      }
      e.kind = EventKind::kRegionBegin;
      e.name = region_name_ids_[static_cast<size_t>(pending_region_)];
      tl_->record(e);
      open_region_ = pending_region_;
    }
    if (d.total() != 0) {
      Event e;
      e.kind = EventKind::kStall;
      e.track = track_;
      e.ts = last_.cycles;
      e.name = stall_name_id_;
      e.value = static_cast<u32>(d.total());
      tl_->record(e);
    }
    block_instrs_ += 1;
    if (block_instrs_ >= block_limit_) flush_block(now.cycles);
  }
}

void Profiler::enter_region(int region) {
  // Close the open segment: its per-instruction deltas telescope to the
  // difference of the counters at its first hook and at this one.
  const CounterCell now = counters();
  if (cur_region_ < 0) {
    run_start_ = now;
  } else {
    CounterCell& c = cells_[static_cast<size_t>(cur_region_)];
    accumulate(c.perf, diff(now.perf, seg_start_.perf));
    accumulate(c.dotp, diff(now.dotp, seg_start_.dotp));
    accumulate(c.mem, diff(now.mem, seg_start_.mem));
  }
  seg_start_ = now;
  cur_region_ = region;
}

void Profiler::flush_block(u64 end_ts) {
  if (block_instrs_ != 0 && end_ts > block_start_) {
    Event e;
    e.kind = EventKind::kInstrBlock;
    e.track = track_;
    e.ts = block_start_;
    e.dur = end_ts - block_start_;
    e.name = block_name_id_;
    e.value = block_instrs_;
    tl_->record(e);
  }
  block_start_ = end_ts;
  block_instrs_ = 0;
}

void Profiler::finalize() {
  if (finalized_) return;
  const Snapshot now = snap();
  if (pending_valid_) settle(now);
  pending_valid_ = false;
  enter_region(-1);  // settles the open cell
  run_end_ = seg_start_;
  cfg_ = core_.config();
  if (tl_) {
    flush_block(now.cycles);
    if (open_region_ >= 0) {
      Event e;
      e.kind = EventKind::kRegionEnd;
      e.track = track_;
      e.ts = now.cycles;
      e.name = region_name_ids_[static_cast<size_t>(open_region_)];
      tl_->record(e);
      open_region_ = -1;
    }
  }
  if (attached_) {
    core_.set_trace({});
    attached_ = false;
  }
  finalized_ = true;
}

namespace {

SiteStat site(u64 hooks, const sim::PerfCounters& p) {
  SiteStat s;
  s.instructions = hooks;
  s.cycles = p.cycles;
  s.stalls.branch = p.branch_stall_cycles;
  s.stalls.load_use = p.load_use_stall_cycles;
  s.stalls.mem = p.mem_stall_cycles;
  s.stalls.mul_div = p.mul_div_stall_cycles;
  s.stalls.qnt = p.qnt_stall_cycles;
  return s;
}

}  // namespace

SiteStat Profiler::total() const {
  u64 hooks = 0;
  for (const u64 h : region_hooks_) hooks += h;
  return site(hooks, diff(run_end_.perf, run_start_.perf));
}

std::vector<RegionStat> Profiler::region_stats() const {
  std::vector<RegionStat> out;
  out.reserve(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    out.push_back({region_names_[i], site(region_hooks_[i], cells_[i].perf)});
  }
  return out;
}

u64 Profiler::region_cycles(std::string_view name) const {
  u64 cycles = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (region_names_[i] == name) cycles += cells_[i].perf.cycles;
  }
  return cycles;
}

std::vector<PcStat> Profiler::hotspots(size_t top_n) const {
  std::vector<PcStat> all;
  for (size_t parcel = 0; parcel < pc_stats_.size(); ++parcel) {
    if (pc_stats_[parcel].instructions == 0) continue;
    all.push_back({static_cast<addr_t>(parcel << 1), pc_stats_[parcel]});
  }
  std::stable_sort(all.begin(), all.end(), [](const PcStat& a, const PcStat& b) {
    return a.stat.cycles > b.stat.cycles;
  });
  if (all.size() > top_n) all.resize(top_n);
  return all;
}

std::string Profiler::collapsed_stacks(std::string_view root) const {
  std::ostringstream os;
  for (size_t r = 0; r < region_mnem_cycles_.size(); ++r) {
    for (size_t m = 0; m < region_mnem_cycles_[r].size(); ++m) {
      const u64 cyc = region_mnem_cycles_[r][m];
      if (cyc == 0) continue;
      if (!root.empty()) os << root << ';';
      os << region_names_[r] << ';'
         << isa::mnemonic_name(static_cast<isa::Mnemonic>(m)) << ' ' << cyc
         << '\n';
    }
  }
  return os.str();
}

void Profiler::add_to_registry(Registry& r, std::string_view prefix) const {
  const std::string pre = std::string(prefix) + ".";
  const auto add_site = [&](const std::string& p, const SiteStat& s) {
    r.counter(p + ".instructions", s.instructions);
    r.counter(p + ".cycles", s.cycles);
    r.counter(p + ".stall_cycles.branch", s.stalls.branch);
    r.counter(p + ".stall_cycles.load_use", s.stalls.load_use);
    r.counter(p + ".stall_cycles.mem", s.stalls.mem);
    r.counter(p + ".stall_cycles.mul_div", s.stalls.mul_div);
    r.counter(p + ".stall_cycles.qnt", s.stalls.qnt);
  };
  add_site(pre + "total", total());
  for (const RegionStat& rs : region_stats()) {
    add_site(pre + "regions." + rs.name, rs.stat);
  }
}

}  // namespace xpulp::obs
