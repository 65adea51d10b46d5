#include "obs/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/error.hpp"

namespace xpulp::obs {

u16 Timeline::intern(std::string_view name) {
  auto it = name_ids_.find(std::string(name));
  if (it != name_ids_.end()) return it->second;
  if (names_.size() >= 0xffff) {
    throw SimError("timeline string table full (65535 names)");
  }
  const u16 id = static_cast<u16>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(names_.back(), id);
  return id;
}

void Timeline::set_track_name(u8 track, std::string_view name) {
  for (auto& [t, n] : track_names_) {
    if (t == track) {
      n = std::string(name);
      return;
    }
  }
  track_names_.emplace_back(track, std::string(name));
}

std::vector<Event> Timeline::events() const {
  std::vector<Event> out;
  out.reserve(ring_.size());
  // head_ is the oldest element once the ring has wrapped.
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<CounterPoint> Timeline::counter_points() const {
  std::vector<CounterPoint> out;
  out.reserve(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    out.push_back(counters_[(counter_head_ + i) % counters_.size()]);
  }
  return out;
}

namespace {

void json_escape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

void Timeline::write_chrome_json(std::ostream& os) const {
  std::vector<Event> evs = events();
  std::stable_sort(evs.begin(), evs.end(),
                   [](const Event& a, const Event& b) { return a.ts < b.ts; });

  const u64 window_start = evs.empty() ? 0 : evs.front().ts;
  u64 window_end = 0;
  for (const Event& e : evs) window_end = std::max(window_end, e.ts + e.dur);

  // Balance repair. Walk in time order keeping a per-track stack of open
  // begins: an end with no open begin gets a synthetic begin at the window
  // start (prepended so repaired slices nest outermost); a begin never
  // closed gets a synthetic end at the window end.
  std::vector<Event> prefix;
  std::vector<Event> suffix;
  std::vector<int> open_depth(256, 0);
  std::vector<std::vector<u16>> open_names(256);
  for (const Event& e : evs) {
    if (e.kind == EventKind::kRegionBegin) {
      open_depth[e.track] += 1;
      open_names[e.track].push_back(e.name);
    } else if (e.kind == EventKind::kRegionEnd) {
      if (open_depth[e.track] == 0) {
        Event b = e;
        b.kind = EventKind::kRegionBegin;
        b.ts = window_start;
        b.dur = 0;
        // Later repairs must enclose earlier ones: prepend.
        prefix.insert(prefix.begin(), b);
      } else {
        open_depth[e.track] -= 1;
        open_names[e.track].pop_back();
      }
    }
  }
  for (unsigned t = 0; t < 256; ++t) {
    while (!open_names[t].empty()) {
      Event e;
      e.kind = EventKind::kRegionEnd;
      e.ts = window_end;
      e.track = static_cast<u8>(t);
      e.name = open_names[t].back();
      open_names[t].pop_back();
      suffix.push_back(e);
    }
  }

  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"cycles\","
        "\"tool\":\"xtel\",\"dropped_events\":"
     << dropped();
  // Counter bookkeeping only appears when counters were recorded, so a
  // counter-free timeline (every pre-xtel caller) stays byte-identical.
  if (counters_recorded_ != 0) {
    os << ",\"dropped_counters\":" << counters_dropped();
  }
  os << "},\"traceEvents\":[";

  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  // Track metadata first: one process, one named thread per track.
  sep();
  os << R"({"name":"process_name","ph":"M","pid":0,"tid":0,)"
        R"("args":{"name":"xpulpnn-sim"}})";
  for (const auto& [track, tname] : track_names_) {
    sep();
    os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)"
       << unsigned(track) << R"(,"args":{"name":")";
    json_escape(os, tname);
    os << R"("}})";
  }

  const auto emit = [&](const Event& e) {
    sep();
    os << "{\"name\":\"";
    json_escape(os, names_[e.name]);
    os << "\",\"pid\":0,\"tid\":" << unsigned(e.track)
       << ",\"ts\":" << e.ts;
    switch (e.kind) {
      case EventKind::kRegionBegin:
        os << ",\"ph\":\"B\",\"cat\":\"region\"";
        break;
      case EventKind::kRegionEnd:
        os << ",\"ph\":\"E\",\"cat\":\"region\"";
        break;
      case EventKind::kStall:
        os << ",\"ph\":\"i\",\"s\":\"t\",\"cat\":\"stall\",\"args\":{"
              "\"cycles\":"
           << e.value << "}";
        break;
      case EventKind::kInstrBlock:
        os << ",\"ph\":\"X\",\"dur\":" << e.dur
           << ",\"cat\":\"code\",\"args\":{\"instructions\":" << e.value
           << "}";
        break;
      case EventKind::kDmaWindow:
        os << ",\"ph\":\"X\",\"dur\":" << e.dur
           << ",\"cat\":\"dma\",\"args\":{\"bytes\":" << e.value << "}";
        break;
    }
    os << "}";
  };

  for (const Event& e : prefix) emit(e);
  for (const Event& e : evs) emit(e);
  for (const Event& e : suffix) emit(e);

  // Counter tracks last: Perfetto keys them on (pid, name), so per-core
  // samplers intern per-core names ("core0/ipc"). Stable-sorted by ts so
  // every track's points are monotonic even after the ring wrapped.
  std::vector<CounterPoint> cps = counter_points();
  std::stable_sort(
      cps.begin(), cps.end(),
      [](const CounterPoint& a, const CounterPoint& b) { return a.ts < b.ts; });
  for (const CounterPoint& p : cps) {
    sep();
    os << "{\"name\":\"";
    json_escape(os, names_[p.name]);
    os << "\",\"pid\":0,\"tid\":" << unsigned(p.track) << ",\"ts\":" << p.ts
       << ",\"ph\":\"C\",\"cat\":\"counter\",\"args\":{\"value\":";
    // JSON has no NaN/inf literals; clamp non-finite samples to 0.
    const double v = std::isfinite(p.value) ? p.value : 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    os << buf << "}}";
  }

  os << "\n]}\n";
}

std::string Timeline::chrome_json() const {
  std::ostringstream os;
  write_chrome_json(os);
  return os.str();
}

}  // namespace xpulp::obs
