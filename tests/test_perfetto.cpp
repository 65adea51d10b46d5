// Chrome/Perfetto trace export: the emitted trace.json must parse as
// JSON, every B must have a matching E on the same track in order, event
// timestamps must be non-decreasing, and cluster runs must map core i to
// a stable pid/tid lane. A mini JSON parser lives in this test so the
// checks exercise the real byte stream, not the Timeline's internals.
#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/parallel_conv.hpp"
#include "kernels/conv_layer.hpp"
#include "obs/profiler.hpp"
#include "obs/sampler.hpp"
#include "obs/timeline.hpp"

namespace xpulp::obs {
namespace {

// ------------------------------------------------------- mini JSON parser

struct JValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;

  const JValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct JParser {
  const std::string& s;
  size_t i = 0;
  bool ok = true;

  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    ok = false;
    return false;
  }

  std::string parse_string() {
    std::string out;
    if (!eat('"')) return out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) {
        ++i;
        switch (s[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'u': i += 4; out += '?'; break;
          default: out += s[i];
        }
      } else {
        out += s[i];
      }
      ++i;
    }
    if (!eat('"')) ok = false;
    return out;
  }

  JValue parse() {
    JValue v;
    skip_ws();
    if (i >= s.size()) {
      ok = false;
      return v;
    }
    const char c = s[i];
    if (c == '{') {
      ++i;
      v.type = JValue::Type::kObject;
      skip_ws();
      if (i < s.size() && s[i] == '}') {
        ++i;
        return v;
      }
      while (ok) {
        std::string key = parse_string();
        eat(':');
        v.obj.emplace_back(std::move(key), parse());
        skip_ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        eat('}');
        break;
      }
    } else if (c == '[') {
      ++i;
      v.type = JValue::Type::kArray;
      skip_ws();
      if (i < s.size() && s[i] == ']') {
        ++i;
        return v;
      }
      while (ok) {
        v.arr.push_back(parse());
        skip_ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        eat(']');
        break;
      }
    } else if (c == '"') {
      v.type = JValue::Type::kString;
      v.str = parse_string();
    } else if (c == 't' || c == 'f') {
      v.type = JValue::Type::kBool;
      v.boolean = (c == 't');
      i += v.boolean ? 4 : 5;
    } else if (c == 'n') {
      i += 4;
    } else {
      v.type = JValue::Type::kNumber;
      size_t end = i;
      while (end < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[end])) ||
              s[end] == '-' || s[end] == '+' || s[end] == '.' ||
              s[end] == 'e' || s[end] == 'E')) {
        ++end;
      }
      v.number = std::stod(s.substr(i, end - i));
      i = end;
    }
    return v;
  }
};

JValue parse_json(const std::string& text, bool& ok) {
  JParser p{text};
  JValue v = p.parse();
  p.skip_ws();
  ok = p.ok && p.i == text.size();
  return v;
}

/// Schema + nesting checks shared by every test; fills `out` (if given)
/// with the parsed traceEvents array.
void check_trace(const std::string& text,
                 std::vector<JValue>* out = nullptr) {
  bool ok = false;
  JValue root = parse_json(text, ok);
  ASSERT_TRUE(ok) << "trace is not valid JSON";
  ASSERT_EQ(root.type, JValue::Type::kObject);
  const JValue* other = root.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_NE(other->find("dropped_events"), nullptr);
  const JValue* evs = root.find("traceEvents");
  ASSERT_NE(evs, nullptr);
  ASSERT_EQ(evs->type, JValue::Type::kArray);

  std::map<double, std::vector<std::string>> open;  // tid -> B-name stack
  std::map<std::pair<double, std::string>, double> counter_ts;
  double last_ts = -1;
  for (const JValue& e : evs->arr) {
    EXPECT_EQ(e.type, JValue::Type::kObject);
    const JValue* name = e.find("name");
    const JValue* ph = e.find("ph");
    const JValue* pid = e.find("pid");
    const JValue* tid = e.find("tid");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    EXPECT_EQ(pid->number, 0);  // one process
    if (ph->str == "M") continue;

    const JValue* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    if (ph->str == "C") {
      // Counter tracks are appended after the slice events; they are
      // ordered per (tid, name) track rather than globally.
      const JValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      const JValue* value = args->find("value");
      ASSERT_NE(value, nullptr);
      EXPECT_EQ(value->type, JValue::Type::kNumber);
      const auto key = std::make_pair(tid->number, name->str);
      const auto it = counter_ts.find(key);
      if (it != counter_ts.end()) {
        EXPECT_GE(ts->number, it->second)
            << "counter track " << name->str << " not monotonic";
      }
      counter_ts[key] = ts->number;
      continue;
    }
    EXPECT_GE(ts->number, last_ts) << "timestamps must be non-decreasing";
    last_ts = ts->number;
    if (ph->str == "B") {
      open[tid->number].push_back(name->str);
    } else if (ph->str == "E") {
      auto& stack = open[tid->number];
      ASSERT_FALSE(stack.empty())
          << "E \"" << name->str << "\" with no open B on tid "
          << tid->number;
      EXPECT_EQ(stack.back(), name->str) << "mismatched nesting";
      stack.pop_back();
    } else if (ph->str == "X") {
      ASSERT_NE(e.find("dur"), nullptr);
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed B on tid " << tid;
  }
  if (out) *out = evs->arr;
}

std::set<double> event_tids(const std::vector<JValue>& evs) {
  std::set<double> tids;
  for (const JValue& e : evs) {
    if (e.find("ph")->str != "M") tids.insert(e.find("tid")->number);
  }
  return tids;
}

// ------------------------------------------------------------------ tests

TEST(Perfetto, GoldenSmallTrace) {
  Timeline tl;
  tl.set_track_name(0, "core0");
  Event b;
  b.kind = EventKind::kRegionBegin;
  b.name = tl.intern("conv");
  b.ts = 0;
  tl.record(b);
  Event e;
  e.kind = EventKind::kRegionEnd;
  e.name = b.name;
  e.ts = 10;
  tl.record(e);

  const std::string expected =
      "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"cycles\","
      "\"tool\":\"xtel\",\"dropped_events\":0},\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"xpulpnn-sim\"}},\n"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"core0\"}},\n"
      "{\"name\":\"conv\",\"pid\":0,\"tid\":0,\"ts\":0,\"ph\":\"B\","
      "\"cat\":\"region\"},\n"
      "{\"name\":\"conv\",\"pid\":0,\"tid\":0,\"ts\":10,\"ph\":\"E\","
      "\"cat\":\"region\"}\n"
      "]}\n";
  EXPECT_EQ(tl.chrome_json(), expected);
  check_trace(tl.chrome_json());
}

TEST(Perfetto, ProfiledConvTraceIsSchemaValid) {
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(4), 7);
  Timeline tl;
  tl.set_track_name(0, "core0");
  std::optional<Profiler> prof;
  kernels::run_conv_layer(
      data, kernels::ConvVariant::kXpulpNN_HwQ, sim::CoreConfig::extended(),
      {},
      [&](sim::Core& core, const kernels::ConvKernel& k) {
        Profiler::Options o;
        o.timeline = &tl;
        prof.emplace(core, k.regions, o);
      },
      [&](sim::Core&, const kernels::ConvKernel&) { prof->finalize(); });

  std::vector<JValue> evs;
  check_trace(tl.chrome_json(), &evs);
  EXPECT_GT(evs.size(), 4u);
  EXPECT_EQ(event_tids(evs), std::set<double>{0});

  // Region slices for the kernel phases must be present.
  std::set<std::string> names;
  for (const JValue& e : evs) names.insert(e.find("name")->str);
  EXPECT_TRUE(names.count("matmul"));
  EXPECT_TRUE(names.count("quant"));
  EXPECT_TRUE(names.count("im2col"));
}

TEST(Perfetto, ClusterLanesHaveStableTids) {
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(4), 7);

  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 2;

  Timeline tl;
  std::vector<std::unique_ptr<Profiler>> profs;
  const auto res = cluster::run_parallel_conv(
      data, kernels::ConvVariant::kXpulpNN_HwQ, ccfg,
      [&](cluster::Cluster& cl, const std::vector<kernels::ConvKernel>& ks) {
        for (int c = 0; c < cl.num_cores(); ++c) {
          Profiler::Options o;
          o.timeline = &tl;
          o.track = static_cast<u8>(c);
          tl.set_track_name(static_cast<u8>(c), "core" + std::to_string(c));
          profs.push_back(std::make_unique<Profiler>(
              cl.core(c), ks[static_cast<size_t>(c)].regions, o));
        }
      },
      // Finalize while the cluster (and its cores) still exist.
      [&](cluster::Cluster&, const std::vector<kernels::ConvKernel>&) {
        for (auto& p : profs) p->finalize();
      });
  EXPECT_EQ(res.output, data.golden());

  std::vector<JValue> evs;
  check_trace(tl.chrome_json(), &evs);
  EXPECT_EQ(event_tids(evs), (std::set<double>{0, 1}));

  // Both lanes are labelled via thread_name metadata.
  std::set<std::string> lanes;
  for (const JValue& e : evs) {
    if (e.find("name")->str == "thread_name") {
      lanes.insert(e.find("args")->find("name")->str);
    }
  }
  EXPECT_TRUE(lanes.count("core0"));
  EXPECT_TRUE(lanes.count("core1"));
}

TEST(Perfetto, RingOverflowIsRepaired) {
  Timeline tl(/*capacity=*/8);
  tl.set_track_name(0, "core0");
  const u16 outer = tl.intern("outer");
  const u16 inner = tl.intern("inner");
  // An enclosing slice whose B falls off the ring, plus enough nested
  // pairs to wrap it several times.
  Event b;
  b.kind = EventKind::kRegionBegin;
  b.name = outer;
  b.ts = 0;
  tl.record(b);
  for (u64 t = 1; t < 12; ++t) {
    Event nb;
    nb.kind = EventKind::kRegionBegin;
    nb.name = inner;
    nb.ts = 10 * t;
    tl.record(nb);
    Event ne;
    ne.kind = EventKind::kRegionEnd;
    ne.name = inner;
    ne.ts = 10 * t + 5;
    tl.record(ne);
  }
  Event e;
  e.kind = EventKind::kRegionEnd;
  e.name = outer;
  e.ts = 1000;
  tl.record(e);

  EXPECT_GT(tl.dropped(), 0u);
  // The "outer" B was dropped from the ring; the exporter must fabricate
  // a synthetic B so the surviving E still nests.
  check_trace(tl.chrome_json());

  bool ok = false;
  const JValue root = parse_json(tl.chrome_json(), ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(root.find("otherData")->find("dropped_events")->number,
            static_cast<double>(tl.dropped()));
}

TEST(Perfetto, AbandonedRunClosesOpenSlices) {
  Timeline tl;
  tl.set_track_name(0, "core0");
  Event b;
  b.kind = EventKind::kRegionBegin;
  b.name = tl.intern("never-ends");
  b.ts = 5;
  tl.record(b);
  Event x;
  x.kind = EventKind::kInstrBlock;
  x.name = tl.intern("block");
  x.ts = 5;
  x.dur = 20;
  x.value = 10;
  tl.record(x);
  check_trace(tl.chrome_json());  // synthetic E at the window end
}

// ---------------------------------------------------------- counter tracks

TEST(Perfetto, CounterFreeOutputHasNoCounterArtifacts) {
  // A timeline without counter points must emit byte-for-byte what
  // pre-counter builds emitted (GoldenSmallTrace locks the exact bytes);
  // in particular no "ph":"C" events and no dropped_counters key.
  Timeline tl;
  tl.set_track_name(0, "core0");
  Event b;
  b.kind = EventKind::kRegionBegin;
  b.name = tl.intern("conv");
  b.ts = 0;
  tl.record(b);
  Event e;
  e.kind = EventKind::kRegionEnd;
  e.name = b.name;
  e.ts = 10;
  tl.record(e);
  const std::string text = tl.chrome_json();
  EXPECT_EQ(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_EQ(text.find("dropped_counters"), std::string::npos);
}

TEST(Perfetto, CounterPointsExportAsSchemaValidCounterEvents) {
  Timeline tl;
  tl.set_track_name(0, "core0");
  tl.set_track_name(1, "core1");
  const u16 ipc = tl.intern("core0/ipc");
  const u16 ipc1 = tl.intern("core1/ipc");
  for (int i = 0; i < 4; ++i) {
    CounterPoint p;
    p.ts = static_cast<u64>(100 * (i + 1));
    p.value = 0.5 + 0.1 * i;
    p.name = ipc;
    p.track = 0;
    tl.record_counter(p);
    p.name = ipc1;
    p.track = 1;
    tl.record_counter(p);
  }

  std::vector<JValue> evs;
  check_trace(tl.chrome_json(), &evs);

  int counters = 0;
  std::set<double> tids;
  for (const JValue& e : evs) {
    if (e.find("ph")->str != "C") continue;
    ++counters;
    tids.insert(e.find("tid")->number);
    EXPECT_EQ(e.find("cat")->str, "counter");
  }
  EXPECT_EQ(counters, 8);
  EXPECT_EQ(tids, (std::set<double>{0, 1}));  // per-core track ids

  bool ok = false;
  const JValue root = parse_json(tl.chrome_json(), ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(root.find("otherData")->find("dropped_counters")->number, 0.0);
}

TEST(Perfetto, CounterRingOverflowIsReportedAndOutputStaysValid) {
  Timeline tl;
  tl.set_track_name(0, "core0");
  tl.set_counter_capacity(4);
  const u16 ipc = tl.intern("core0/ipc");
  for (int i = 0; i < 10; ++i) {
    CounterPoint p;
    p.ts = static_cast<u64>(10 * i);
    p.value = i;
    p.name = ipc;
    p.track = 0;
    tl.record_counter(p);
  }
  EXPECT_EQ(tl.counters_recorded(), 10u);
  EXPECT_EQ(tl.counters_dropped(), 6u);

  std::vector<JValue> evs;
  check_trace(tl.chrome_json(), &evs);
  // Only the newest 4 points survive; the track just starts later.
  int counters = 0;
  double first_ts = -1;
  for (const JValue& e : evs) {
    if (e.find("ph")->str != "C") continue;
    if (counters == 0) first_ts = e.find("ts")->number;
    ++counters;
  }
  EXPECT_EQ(counters, 4);
  EXPECT_EQ(first_ts, 60.0);

  bool ok = false;
  const JValue root = parse_json(tl.chrome_json(), ok);
  ASSERT_TRUE(ok);
  EXPECT_EQ(root.find("otherData")->find("dropped_counters")->number, 6.0);
}

TEST(Perfetto, SampledConvTraceHasMonotonicCounterTracks) {
  const auto data =
      kernels::ConvLayerData::random(qnn::ConvSpec::small_layer(4), 7);
  Timeline tl;
  tl.set_track_name(0, "core0");
  std::optional<Sampler> sampler;
  kernels::run_conv_layer(
      data, kernels::ConvVariant::kXpulpNN_HwQ, sim::CoreConfig::extended(),
      {},
      [&](sim::Core& core, const kernels::ConvKernel&) {
        Sampler::Options o;
        o.interval_cycles = 512;
        o.timeline = &tl;
        sampler.emplace(core, o);
      },
      [&](sim::Core&, const kernels::ConvKernel&) { sampler->finalize(); });

  // check_trace verifies per-(tid, name) counter monotonicity.
  std::vector<JValue> evs;
  check_trace(tl.chrome_json(), &evs);

  std::set<std::string> tracks;
  int counters = 0;
  for (const JValue& e : evs) {
    if (e.find("ph")->str != "C") continue;
    ++counters;
    tracks.insert(e.find("name")->str);
  }
  // Six derived-metric tracks, one point per sampled window.
  EXPECT_EQ(tracks, (std::set<std::string>{
                        "core0/ipc", "core0/stall_frac",
                        "core0/macs_per_cycle", "core0/fused_frac",
                        "core0/core_mw", "core0/soc_mw"}));
  EXPECT_EQ(counters, static_cast<int>(6 * sampler->recorded()));
}

}  // namespace
}  // namespace xpulp::obs
