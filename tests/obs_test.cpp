// Observability layer: JSON serialization, metrics registry, span bus,
// structured run reports — and the load-bearing invariant: observing a run
// must not change it (the event trace of an observed engine is
// byte-identical to an unobserved one).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/hash.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "sim/chaos/chaos.hpp"
#include "sim/facade_registry.hpp"
#include "sim/gridsim/gridsim.hpp"
#include "sim/monarc/monarc.hpp"
#include "stats/timeseries.hpp"
#include "util/ini.hpp"

namespace {

using namespace lsds;

// --- Json -------------------------------------------------------------------

TEST(Json, ScalarsAndNesting) {
  obs::Json j = obs::Json::object();
  j.set("b", true);
  j.set("i", std::int64_t{-3});
  j.set("d", 0.5);
  j.set("s", "hi");
  j["nested"].set("k", 1);
  j["arr"].push(1).push(2);
  EXPECT_EQ(j.dump(0),
            R"({"b":true,"i":-3,"d":0.5,"s":"hi","nested":{"k":1},"arr":[1,2]})");
}

TEST(Json, InsertionOrderPreserved) {
  obs::Json j = obs::Json::object();
  j.set("zebra", 1);
  j.set("alpha", 2);
  const std::string out = j.dump(0);
  EXPECT_LT(out.find("zebra"), out.find("alpha"));
}

TEST(Json, StringQuoting) {
  EXPECT_EQ(obs::Json::quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(obs::Json::quote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, DoublesRoundTrip) {
  for (double d : {0.1, 1.0 / 3.0, 2.5e9, 619.3793386205052, -0.0, 1e308}) {
    const std::string s = obs::Json::number(d);
    EXPECT_EQ(std::stod(s), d) << s;
  }
  EXPECT_EQ(obs::Json::number(42.0), "42");
  EXPECT_EQ(obs::Json::number(std::nan("")), "NaN");
}

TEST(Json, WriteFileThrowsWhenThePathIsNotWritable) {
  EXPECT_THROW(obs::Json::object().write_file("/"), std::runtime_error);
}

TEST(JsonParse, DumpParseDumpIsIdentity) {
  // The distributed campaign protocol depends on parse(dump(x)).dump() ==
  // dump(x): partials travel between processes as printed JSON.
  obs::Json j = obs::Json::object();
  j.set("b", true);
  j.set("i", std::int64_t{-3});
  j.set("d", 1.0 / 3.0);
  j.set("neg_zero", -0.0);  // must not come back as the integer 0
  j.set("s", "quote \" backslash \\ newline \n");
  j["nested"].set("tiny", 1e-308);
  j["arr"].push(1).push(0.1).push("x");
  j.set("none", obs::Json());
  const std::string once = j.dump();
  EXPECT_EQ(obs::Json::parse(once).dump(), once);
}

TEST(JsonParse, TypesAndEscapes) {
  using Kind = obs::Json::Kind;
  const obs::Json j = obs::Json::parse(
      R"({"i": 42, "d": 2.5, "neg": -7, "big": 1e300, "u": "a\u00e9\u20acb",)"
      R"( "t": true, "n": null, "arr": [1, [2]], "nan": NaN})");
  EXPECT_EQ(j.find("i")->kind(), Kind::kInt);
  EXPECT_EQ(j.find("i")->as_int(), 42);
  EXPECT_EQ(j.find("d")->kind(), Kind::kDouble);
  EXPECT_DOUBLE_EQ(j.find("d")->as_double(), 2.5);
  EXPECT_EQ(j.find("neg")->as_int(), -7);
  EXPECT_EQ(j.find("big")->kind(), Kind::kDouble);  // too big for int64
  EXPECT_EQ(j.find("u")->as_string(), "a\xc3\xa9\xe2\x82\xac" "b");  // UTF-8 from \u
  EXPECT_TRUE(j.find("t")->as_bool());
  EXPECT_EQ(j.find("n")->kind(), Kind::kNull);
  EXPECT_EQ(j.find("arr")->items()[1].items()[0].as_int(), 2);
  EXPECT_TRUE(std::isnan(j.find("nan")->as_double()));
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(obs::Json::parse(""), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("[1, 2] trailing"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(obs::Json::parse("{1: 2}"), std::runtime_error);
}

TEST(JsonParse, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // A 100 KB partial of open brackets must fail --resume with a message,
  // not crash the coordinator.
  const std::string arrays(50000, '[');
  std::string objects;
  for (int i = 0; i < 20000; ++i) objects += "{\"a\":";
  for (const std::string& text : {arrays, objects}) {
    try {
      obs::Json::parse(text);
      ADD_FAILURE() << "parsed " << text.size() << " bytes of nesting";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("nesting deeper than"), std::string::npos) << what;
      EXPECT_NE(what.find("at offset"), std::string::npos) << what;
    }
  }
  // The limit itself still parses and round-trips.
  const int d = obs::Json::kMaxDepth;
  const std::string deepest = std::string(d, '[') + std::string(d, ']');
  EXPECT_EQ(obs::Json::parse(deepest).dump(0), deepest);
  EXPECT_THROW(obs::Json::parse("[" + deepest + "]"), std::runtime_error);
}

// Seeded mutation fuzzing of the parser that reads worker partials: byte
// flips, insertions and truncations of a RunReport, of a partial message and
// of a document nested to the depth limit either throw or parse into a
// document that is a fixed point of dump/parse/dump.
TEST(JsonParse, FuzzedDocumentsParseOrThrowAndRoundTrip) {
  // An observed model run's report, minus its wall-clock profiler section so
  // that the corpus (and with it every mutation) is the same on every run.
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 5});
  obs::Options opts;
  opts.enabled = true;
  obs::Observability o(opts);
  o.attach(eng);
  sim::gridsim::Config cfg;
  cfg.num_jobs = 8;
  const auto res = sim::gridsim::run(eng, cfg);
  obs::RunReport report;
  report.set_scenario("gridsim", 5, "heap", "fuzz.ini");
  report.echo_config(util::IniConfig::parse("[gridsim]\njobs = 8\n"));
  res.to_report(report);
  o.finalize(eng, report);
  obs::Json doc = obs::Json::object();
  for (const auto& [key, value] : report.root().members()) {
    if (key != "profiler") doc.set(key, value);
  }
  const std::vector<std::string> corpus = {
      doc.dump(),
      R"({"schema": "lsds.campaign_partial/1", "signature": "c0ffee0123456789",)"
      R"( "shard": {"id": 3, "begin": 6, "end": 8}, "slots": [)"
      R"({"rc": 0, "error": "", "metrics": [["makespan", 104.5], ["jobs", 40], ["u", 1e-308]]},)"
      R"( {"rc": 1, "error": "bad \"input\"\n\u00e9", "metrics": [["nan", NaN], ["inf", -Infinity]]}]})",
      R"({"zero": -0.0, "tiny": -0e-5, "deep": )" +
          std::string(obs::Json::kMaxDepth - 1, '[') + "-0.0" +
          std::string(obs::Json::kMaxDepth - 1, ']') + "}",
  };

  // Bytes the grammar gives meaning to, so mutations hit the parser's edges.
  const std::string special = "{}[]:,\"\\-+.eE0123456789tfnNI \n";
  core::RngStream rng(0x750f22u);
  auto byte = [&]() -> char {
    if (rng.uniform() < 0.5) {
      return special[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(special.size()) - 1))];
    }
    return static_cast<char>(rng.uniform_int(0, 255));
  };
  int accepted = 0;
  for (int it = 0; it < 3000; ++it) {
    std::string text = corpus[static_cast<std::size_t>(it) % corpus.size()];
    const auto edits = rng.uniform_int(1, 8);
    for (std::int64_t e = 0; e < edits && !text.empty(); ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 9)) {
        case 0:
          text.resize(pos);
          break;
        case 1:
        case 2:
        case 3:
          text.insert(pos, 1, byte());
          break;
        default:
          text[pos] = byte();
          break;
      }
    }
    obs::Json parsed;
    try {
      parsed = obs::Json::parse(text);
    } catch (const std::runtime_error&) {
      continue;
    }
    ++accepted;
    const std::string dumped = parsed.dump();
    obs::Json again;
    ASSERT_NO_THROW(again = obs::Json::parse(dumped)) << ::testing::PrintToString(text);
    ASSERT_EQ(again.dump(), dumped) << ::testing::PrintToString(text);
  }
  // Single-byte edits to whitespace or digits leave valid JSON behind.
  EXPECT_GT(accepted, 100);
}

// --- MetricsRegistry --------------------------------------------------------

TEST(Metrics, CountersGaugesTimers) {
  obs::MetricsRegistry m(1.0);
  m.bump("jobs", 1);
  m.bump("jobs", 2);
  double level = 5;
  m.gauge("level", [&] { return level; });
  m.time("svc", 0.25);
  m.time("svc", 0.75);
  m.advance(0.5);   // before the first boundary: no sample yet
  m.advance(2.3);   // crosses t=2 -> samples at 2.0
  level = 9;
  m.sample(3.0);    // explicit closing sample

  const obs::Json j = m.to_json(3.0);
  EXPECT_EQ(j.find("counters")->find("jobs")->as_double(), 3.0);
  const auto* svc = j.find("timers")->find("svc");
  EXPECT_EQ(svc->find("count")->as_int(), 2);
  EXPECT_DOUBLE_EQ(svc->find("mean_s")->as_double(), 0.5);
  const auto* series = j.find("series")->find("level");
  EXPECT_EQ(series->find("last")->as_double(), 9.0);
  EXPECT_EQ(series->find("last_t")->as_double(), 3.0);
}

TEST(Metrics, AdvanceSamplesAtCadenceBoundary) {
  obs::MetricsRegistry m(2.0);
  m.bump("c", 1);
  m.advance(5.1);  // boundary floor(5.1/2)*2 = 4
  m.sample(5.1);   // closing sample, as finalize() takes
  const obs::Json j = m.to_json(5.1);
  // one cadence sample at t=4 plus the closing sample at 5.1
  EXPECT_EQ(j.find("series")->find("c")->find("samples")->as_int(), 2);
}

TEST(Metrics, RejectsNonPositiveSampleInterval) {
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW(obs::MetricsRegistry{bad}, std::invalid_argument) << bad;
  }
}

namespace {

// A stored series, the reference for the running summary: every point is
// kept, and the aggregates walk them in order.
struct StoredSeries {
  struct Point {
    double t, v;
  };
  std::vector<Point> points;

  void record(double t, double v) {
    if (!points.empty() && points.back().t == t) {
      points.back().v = v;
      return;
    }
    points.push_back({t, v});
  }
  double integral(double t_end) const {
    double sum = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const double t0 = points[i].t;
      if (t0 >= t_end) break;
      const double t1 = i + 1 < points.size() ? std::min(points[i + 1].t, t_end) : t_end;
      if (t1 > t0) sum += points[i].v * (t1 - t0);
    }
    return sum;
  }
  double time_weighted_mean(double t_end) const {
    if (points.empty()) return 0.0;
    const double span = t_end - points.front().t;
    if (span <= 0) return points.front().v;
    return integral(t_end) / span;
  }
  double max_value() const {
    double m = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i == 0 || points[i].v > m) m = points[i].v;
    }
    return m;
  }
};

}  // namespace

// The running summary must report exactly what a stored series would: the
// same count, last value, max and time-weighted mean, bit for bit.
TEST(SeriesSummary, MatchesTimeSeriesBitForBit) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  const auto expect_same = [&](const stats::TimeSeries& s, const StoredSeries& ref,
                               double t_end, const std::string& where) {
    ASSERT_EQ(s.size(), ref.points.size()) << where;
    ASSERT_EQ(s.empty(), ref.points.empty()) << where;
    EXPECT_EQ(bits(s.max_value()), bits(ref.max_value())) << where;
    EXPECT_EQ(bits(s.time_weighted_mean(t_end)), bits(ref.time_weighted_mean(t_end))) << where;
    if (ref.points.empty()) return;
    EXPECT_EQ(bits(s.last_t()), bits(ref.points.back().t)) << where;
    EXPECT_EQ(bits(s.last()), bits(ref.points.back().v)) << where;
  };
  expect_same(stats::TimeSeries{}, StoredSeries{}, 5.0, "empty");

  core::RngStream rng(0x5e41e5u);
  for (int seq = 0; seq < 500; ++seq) {
    stats::TimeSeries s;
    StoredSeries ref;
    // Lengths 1..60; about a third of the samples repeat the previous
    // instant (a same-instant overwrite), including the very first one.
    const auto n = rng.uniform_int(1, 60);
    double t = rng.uniform(-10.0, 10.0);
    for (std::int64_t i = 0; i < n; ++i) {
      if (i > 0 && !rng.bernoulli(0.35)) t += rng.exponential(0.7);
      const double v = rng.bernoulli(0.2) ? std::floor(rng.uniform(-3.0, 3.0))
                                          : rng.uniform(-1e3, 1e3);
      s.record(t, v);
      ref.record(t, v);
      const std::string where = "seq " + std::to_string(seq) + " sample " + std::to_string(i);
      expect_same(s, ref, t, where + " t_end == last_t");
      expect_same(s, ref, t + rng.exponential(5.0), where + " t_end > last_t");
    }
  }
}

TEST(SeriesSummary, OneSampleSeriesAndOverwrites) {
  stats::TimeSeries s;
  s.record(2.0, 7.0);
  s.record(2.0, -3.0);  // overwrites the only point
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.last(), -3.0);
  EXPECT_EQ(s.max_value(), -3.0);
  EXPECT_EQ(s.time_weighted_mean(2.0), -3.0);  // zero span: the first value
  EXPECT_EQ(s.time_weighted_mean(4.0), -3.0);
  s.record(3.0, 1.0);
  s.record(3.0, 5.0);  // overwrites the last point; the first stays
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.max_value(), 5.0);
  EXPECT_EQ(s.time_weighted_mean(3.0), -3.0);
  EXPECT_EQ(s.time_weighted_mean(4.0), 1.0);  // (-3 * 1 + 5 * 1) / 2
}

// --- SpanBus ----------------------------------------------------------------

TEST(SpanBus, DisabledBusDropsAndEnabledDelivers) {
  auto& bus = obs::SpanBus::global();
  bus.reset();
  EXPECT_FALSE(bus.enabled());
  int seen = 0;
  obs::Span s;
  s.kind = "flow";
  s.status = "done";
  bus.publish(s);  // unarmed: dropped
  bus.subscribe([&](const obs::Span&) { ++seen; });
  EXPECT_TRUE(bus.enabled());
  bus.publish(s);
  EXPECT_EQ(seen, 1);
  bus.reset();
  bus.publish(s);
  EXPECT_EQ(seen, 1);
}

// --- RunReport --------------------------------------------------------------

TEST(RunReport, GoldenSkeleton) {
  obs::RunReport report;
  report.set_scenario("demo", 7, "heap", "demo.ini");
  report.set_result_core(3, 1.5, 250.0);
  const std::string expected = R"({
  "schema": "lsds.run_report/1",
  "scenario": {
    "facade": "demo",
    "seed": 7,
    "queue": "heap",
    "source": "demo.ini"
  },
  "result": {
    "jobs_done": 3,
    "makespan": 1.5,
    "bytes_moved": 250
  }
})";
  EXPECT_EQ(report.to_json_string(), expected);
}

TEST(RunReport, EchoesConfigVerbatim) {
  const auto ini = util::IniConfig::parse("[scenario]\nfacade = simg\n[simg]\ntasks = 9\n");
  obs::RunReport report;
  report.echo_config(ini);
  const auto* cfg = report.root().find("config");
  ASSERT_NE(cfg, nullptr);
  EXPECT_EQ(cfg->find("simg")->find("tasks")->as_string(), "9");
}

TEST(RunReport, WriteProducesParseableFile) {
  const std::string path = ::testing::TempDir() + "obs_report_test.json";
  obs::RunReport report;
  report.set_scenario("x", 1, "heap");
  report.write(path);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), report.to_json_string() + "\n");
  std::remove(path.c_str());
}

// --- the determinism invariant ---------------------------------------------

using Trace = std::vector<std::pair<double, core::EventId>>;

// Records the engine's (time, seq) trace and forwards every callback to the
// observer behind it, if any, keeping the default stride of 1: a probe put in
// front of the observability layer, as a caller that traces or profiles an
// observed engine attaches it.
class ForwardingProbe final : public core::EngineProbe {
 public:
  explicit ForwardingProbe(core::EngineProbe* next) : next_(next) {}
  void on_event(core::SimTime t, core::EventId seq) override {
    trace.emplace_back(t, seq);
    if (next_) next_->on_event(t, seq);
  }
  void on_queue_push(std::uint64_t ns, std::size_t pending) override {
    if (next_) next_->on_queue_push(ns, pending);
  }
  void on_queue_pop(std::uint64_t ns) override {
    if (next_) next_->on_queue_pop(ns);
  }

  Trace trace;

 private:
  core::EngineProbe* next_;
};

Trace run_chaos_traced(obs::Observability* o) {
  ForwardingProbe probe(o);
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 11});
  if (o) o->attach(eng);
  eng.set_probe(&probe);
  sim::chaos::Config cfg;
  cfg.num_hosts = 4;
  cfg.num_jobs = 60;
  cfg.failures.mtbf = 40;
  cfg.failures.mttr = 5;
  sim::chaos::run(eng, cfg);
  if (o) o->detach();
  return probe.trace;
}

TEST(ObservabilityDeterminism, ObservedTraceIsByteIdenticalToUnobserved) {
  const Trace bare = run_chaos_traced(nullptr);

  obs::Options opts;
  opts.enabled = true;
  opts.trace_path = ::testing::TempDir() + "obs_det_trace.jsonl";
  obs::Observability o(opts);
  const Trace observed = run_chaos_traced(&o);

  ASSERT_EQ(bare.size(), observed.size());
  EXPECT_EQ(bare, observed);  // same (time, seq) for every event
  std::remove(opts.trace_path.c_str());
}

TEST(ObservabilityDeterminism, DisabledIsANoOp) {
  obs::Options opts;  // enabled = false
  obs::Observability o(opts);
  const Trace bare = run_chaos_traced(nullptr);
  const Trace observed = run_chaos_traced(&o);
  EXPECT_EQ(bare, observed);
  EXPECT_FALSE(obs::SpanBus::global().enabled());
}

// --- end-to-end report finiteness -------------------------------------------

void expect_finite(const obs::Json& j, const std::string& path) {
  switch (j.kind()) {
    case obs::Json::Kind::kDouble:
      EXPECT_TRUE(std::isfinite(j.as_double())) << path;
      break;
    case obs::Json::Kind::kObject:
      for (const auto& [k, v] : j.members()) expect_finite(v, path + "." + k);
      break;
    case obs::Json::Kind::kArray: {
      for (const auto& v : j.items()) expect_finite(v, path + "[]");
      break;
    }
    default:
      break;
  }
}

TEST(RunReport, EndToEndGridsimReportIsFinite) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 3});
  obs::Options opts;
  opts.enabled = true;
  obs::Observability o(opts);
  o.attach(eng);

  sim::gridsim::Config cfg;
  cfg.num_jobs = 40;
  const auto res = sim::gridsim::run(eng, cfg);

  obs::RunReport report;
  report.set_scenario("gridsim", 3, "heap");
  res.to_report(report);
  o.finalize(eng, report);

  EXPECT_EQ(report.result().find("jobs_done")->as_int(),
            static_cast<std::int64_t>(res.completed));
  ASSERT_NE(report.root().find("metrics"), nullptr);
  ASSERT_NE(report.root().find("profiler"), nullptr);
  expect_finite(report.root(), "root");
}

// --- pinned model report ---------------------------------------------------

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest(const obs::Json& j) {
  return core::StateHash().mix(std::string_view(j.dump(0))).value();
}

// An observed MONARC study at 30 Gbps with tape archiving: every span kind
// the LHC benchmark's observed workload publishes, at 200 files. The metrics
// section (counters, timers, sampled series) and the engine rollup are
// model results, so they are pinned as digests of their JSON: a faster
// observability layer must report exactly what the original one did.
TEST(RunReport, ObservedMonarcReportIsPinned) {
  sim::monarc::Config cfg;
  cfg.num_t1 = 4;
  cfg.t0_t1_bandwidth = 30e9 / 8;
  cfg.num_files = 200;
  cfg.file_bytes = 20e9;
  cfg.production_interval = 40;
  cfg.run_analysis = true;
  cfg.archive_to_tape = true;
  cfg.storage_sharing = hosts::StorageSharing::kFifo;

  core::Engine eng({.queue = core::QueueKind::kCalendarQueue, .seed = 7});
  obs::Options opts;
  opts.enabled = true;
  obs::Observability o(opts);
  o.attach(eng);
  const auto res = sim::monarc::run(eng, cfg);
  obs::RunReport report;
  res.to_report(report);
  o.finalize(eng, report);

  const obs::Json* metrics = report.root().find("metrics");
  const obs::Json* engine = report.root().find("profiler")->find("engine");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->find("executed")->as_int(), static_cast<std::int64_t>(eng.stats().executed));
  EXPECT_EQ(metrics->find("counters")->find("span.flow.done")->as_double(), 800.0);
  const auto pinned = [](const obs::Json& j, const char* want) {
    EXPECT_EQ(hex64(digest(j)), want) << j.dump(0);
  };
  pinned(*metrics->find("counters"), "fc01d1d140166560");
  pinned(*metrics->find("timers"), "d43a41e31499ddbb");
  pinned(*metrics->find("series"), "8624c01cbbe965f5");
  pinned(*metrics, "67e23bf7bf513555");
  pinned(*engine, "a6b0a075c55f5bba");
}

// The shrunk lhc_parallel study, scenario_runner style, on 4 threads; its
// report (trace_path empty: no JSONL trace) or its trace file.
obs::RunReport run_parallel_monarc(const std::string& trace_path = "") {
  sim::register_builtin_facades();
  const auto* entry = sim::FacadeRegistry::global().find("monarc");
  EXPECT_NE(entry, nullptr);
  obs::RunReport report;
  if (!entry) return report;
  const auto ini = util::IniConfig::parse(
      "[monarc]\nt1 = 9\nlink = 10Gbps\nfiles = 20\nfile_size = 20GB\ninterval = 40s\n"
      "analysis = yes\nt2_per_t1 = 6\nt2_fraction = 0.3\narchive = yes\n"
      "[execution]\nmode = parallel\nthreads = 4\npartition = metis-ish\n");
  const auto study = entry->parse(ini);
  ini.reject_unread();
  core::Engine eng({.queue = core::QueueKind::kCalendarQueue, .seed = 2005});
  obs::Options opts;
  opts.enabled = true;
  opts.trace_path = trace_path;
  obs::Observability o(opts);
  o.attach(eng);
  EXPECT_EQ(study(eng, report), 0);
  o.finalize(eng, report);
  return report;
}

// The metrics of a parallel run: LP threads publish their spans
// concurrently, and the report must not depend on which thread got there
// first. A floating-point timer mean folded in arrival order differed in its
// last digits between runs of lhc_parallel.ini.
TEST(RunReport, ParallelMonarcMetricsAreIdenticalAcrossRuns) {
  const auto run = [] {
    const obs::RunReport report = run_parallel_monarc();
    const obs::Json* metrics = report.root().find("metrics");
    EXPECT_NE(metrics, nullptr);
    return metrics ? metrics->dump(0) : std::string();
  };
  const std::string first = run();
  EXPECT_NE(first.find("span.job.duration_s"), std::string::npos) << first;
  for (int i = 0; i < 2; ++i) EXPECT_EQ(run(), first);
}

// The JSONL trace of the same run: spans published inside LP windows are
// written LP by LP, so the file's bytes do not depend on how the host
// scheduled the LP threads.
TEST(RunReport, ParallelTraceIsIdenticalAcrossRuns) {
  const std::string path = ::testing::TempDir() + "obs_parallel_trace.jsonl";
  const auto run = [&] {
    const obs::RunReport report = run_parallel_monarc(path);
    const obs::Json* trace = report.root().find("trace");
    const obs::Json* records = trace ? trace->find("records") : nullptr;
    EXPECT_NE(records, nullptr);
    if (records) {
      EXPECT_GT(records->as_int(), 500);
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string first = run();
  EXPECT_NE(first.find("\"kind\":\"job\""), std::string::npos);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(run(), first);
  std::remove(path.c_str());
}

// --- sampled queue timing ----------------------------------------------------

// The report states the stride the engine applied: the profiler's own when
// the observability layer is attached directly, 1 when a probe in front of
// it forwards every queue operation.
TEST(EngineProfiler, ReportsTheQueueStrideTheEngineApplied) {
  for (const bool forwarded : {false, true}) {
    SCOPED_TRACE(forwarded ? "forwarded" : "direct");
    core::Engine eng;
    obs::Options opts;
    opts.enabled = true;
    obs::Observability o(opts);
    o.attach(eng);
    ForwardingProbe front(&o);
    if (forwarded) eng.set_probe(&front);
    for (int i = 0; i < 1000; ++i) eng.schedule_at(i, [] {});
    eng.run();
    obs::RunReport report;
    o.finalize(eng, report);
    const obs::Json* prof = report.root().find("profiler");
    const std::int64_t stride = forwarded ? 1 : obs::EngineProfiler::kQueueStride;
    EXPECT_EQ(prof->find("queue_sample_stride")->as_int(), stride);
    EXPECT_EQ(prof->find("queue_push_ns")->find("count")->as_int(), 1000 / stride);
    EXPECT_EQ(prof->find("queue_pop_ns")->find("count")->as_int(), 1000 / stride);
  }
}

// --- lifecycle and concurrency ----------------------------------------------

TEST(ObservabilityLifecycle, DetachDropsEngineGaugesAndKeepsTheirSeries) {
  obs::Options opts;
  opts.enabled = true;
  obs::Observability o(opts);
  double t_end = 0;
  std::size_t samples = 0;
  {
    auto eng = std::make_unique<core::Engine>(core::Engine::Config{.seed = 5});
    o.attach(*eng);
    for (int i = 1; i <= 10; ++i) eng->schedule_at(i, [] {});
    eng->run();
    t_end = eng->now();
    samples = o.metrics().series().at("engine.pending_events").size();
    o.detach();
  }  // the engine is gone: finalize must not poll its gauges
  obs::RunReport report;
  o.finalize(report, t_end + 5);
  const obs::Json* series = report.root().find("metrics")->find("series");
  for (const char* name : {"engine.pending_events", "engine.live_processes"}) {
    const obs::Json* s = series->find(name);
    ASSERT_NE(s, nullptr) << name;
    EXPECT_EQ(s->find("samples")->as_int(), static_cast<std::int64_t>(samples)) << name;
    EXPECT_EQ(s->find("last_t")->as_double(), t_end) << name;
  }
}

// Spans route to their slot by the kind and status pointers first; a second
// literal of the same text (a distinct array here) must reach the same
// instruments, and a new status under a known kind its own counter.
TEST(ObservabilitySpans, EqualTextSharesInstrumentsWhateverThePointer) {
  static const char kFlow[] = "flow";
  static const char kDone[] = "done";
  obs::Options opts;
  opts.enabled = true;
  obs::Observability o(opts);
  const auto& bus = obs::SpanBus::global();
  obs::Span s;
  s.t1 = 1.0;
  s.quantity = 10;
  for (const auto& [kind, status] :
       {std::pair<const char*, const char*>{"flow", "done"}, {kFlow, kDone}, {"flow", "done"},
        {kFlow, "aborted"}, {kFlow, kDone}}) {
    s.kind = kind;
    s.status = status;
    bus.publish(s);
  }
  obs::RunReport report;
  o.finalize(report, 1.0);
  const obs::Json* m = report.root().find("metrics");
  const obs::Json* counters = m->find("counters");
  EXPECT_EQ(counters->find("span.flow.done")->as_double(), 4);
  EXPECT_EQ(counters->find("span.flow.aborted")->as_double(), 1);
  EXPECT_EQ(counters->find("net.bytes_moved")->as_double(), 50);
  EXPECT_EQ(m->find("timers")->find("span.flow.duration_s")->find("count")->as_int(), 5);
}

// Parallel LP threads publish spans concurrently; every one must be counted
// and timed exactly once (run under TSan in CI).
TEST(ObservabilityConcurrency, ConcurrentSpansAreCountedExactly) {
  constexpr int kThreads = 4;
  constexpr int kSpans = 10000;
  obs::Options opts;
  opts.enabled = true;
  obs::Observability o(opts);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const auto& bus = obs::SpanBus::global();
      for (int i = 0; i < kSpans; ++i) {
        obs::Span s;
        s.kind = i % 2 ? "flow" : "job";
        s.status = i % 3 ? "done" : "aborted";
        s.id = static_cast<std::uint64_t>(t * kSpans + i);
        s.t1 = 0.5;
        s.quantity = 2;
        bus.publish(s);
        s.kind = i % 2 ? "job" : "flow";
        bus.publish(s);
      }
    });
  }
  for (auto& th : threads) th.join();
  obs::RunReport report;
  o.finalize(report, 1.0);
  const obs::Json* m = report.root().find("metrics");
  const obs::Json* counters = m->find("counters");
  const double per_kind = kThreads * kSpans;
  const double aborted = kThreads * ((kSpans + 2) / 3);
  for (const std::string kind : {"flow", "job"}) {
    EXPECT_EQ(counters->find("span." + kind + ".done")->as_double(), per_kind - aborted);
    EXPECT_EQ(counters->find("span." + kind + ".aborted")->as_double(), aborted);
    const obs::Json* timer = m->find("timers")->find("span." + kind + ".duration_s");
    EXPECT_EQ(timer->find("count")->as_int(), static_cast<std::int64_t>(per_kind));
    EXPECT_EQ(timer->find("mean_s")->as_double(), 0.5);
  }
  EXPECT_EQ(counters->find("net.bytes_moved")->as_double(), 2 * per_kind);
  EXPECT_EQ(counters->find("cpu.ops_done")->as_double(), 2 * per_kind);
}

}  // namespace
