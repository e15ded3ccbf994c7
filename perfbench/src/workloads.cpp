#include "workloads.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/hash.hpp"
#include "net/zone.hpp"
#include "obs/observability.hpp"
#include "obs/report.hpp"
#include "p2p/chord.hpp"
#include "p2p/churn.hpp"
#include "sim/monarc/monarc.hpp"
#include "sim/parallel/tier_model.hpp"
#include "tracing.hpp"

namespace perfbench {

namespace core = lsds::core;
namespace obs = lsds::obs;
namespace monarc = lsds::sim::monarc;
namespace p2p = lsds::p2p;
using lsds::obs::Json;

namespace {

// --- workload sizes (WORKLOADS.md records why) ------------------------------

constexpr std::size_t kLhc2g5Files = 300;
constexpr std::size_t kLhc30gFiles = 10000;
constexpr std::size_t kTierFiles = 300;
constexpr std::size_t kP2pPeers = 25000;
constexpr std::size_t kP2pSites = 64;
constexpr double kP2pHorizon = 30;
constexpr double kP2pStabilizePeriod = 10;
constexpr double kP2pLookupRate = 2000;
constexpr double kSetupHorizon = 1e-6;  // horizon-cut run = the study's set-up
constexpr unsigned kSetupCalls = 3;      // set-up samples per untraced run

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The record one workload run returns (see workloads.hpp).
class Record {
 public:
  Record() {
    j_["fingerprint"] = Json::array();
    j_["checks"] = Json::array();
  }
  void field(const std::string& name, std::string value) {
    Json pair = Json::array();
    pair.push(name);
    pair.push(std::move(value));
    j_["fingerprint"].push(std::move(pair));
  }
  void field(const std::string& name, std::uint64_t value) { field(name, std::to_string(value)); }
  void check(const std::string& name, bool ok, const std::string& detail = "") {
    Json c = Json::object();
    c.set("name", name);
    c.set("ok", ok);
    c.set("detail", detail);
    j_["checks"].push(std::move(c));
  }
  void set(const std::string& key, Json v) { j_.set(key, std::move(v)); }
  void count(const std::string& name, std::uint64_t v) { j_["counts"].set(name, v); }
  void time(const std::string& name, double s) { j_["times"].set(name, s); }
  Json take() { return std::move(j_); }

 private:
  Json j_;
};

/// Wall seconds of one call to `fn`.
double timed(const std::function<void()>& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// kSetupCalls wall samples of `setup_call`, the workload's set-up path.
Json setup_samples(const std::function<void()>& setup_call) {
  Json xs = Json::array();
  for (unsigned i = 0; i < kSetupCalls; ++i) xs.push(timed(setup_call));
  return xs;
}

// --- MONARC (serial engine) ------------------------------------------------

monarc::Config lhc_config(double gbps, std::size_t files, bool archive) {
  monarc::Config cfg;
  cfg.num_t1 = 4;
  cfg.t0_t1_bandwidth = gbps * 1e9 / 8;
  cfg.num_files = files;
  cfg.file_bytes = 20e9;
  cfg.production_interval = 40;
  cfg.run_analysis = true;
  cfg.archive_to_tape = archive;
  cfg.storage_sharing = lsds::hosts::StorageSharing::kFifo;
  return cfg;
}

monarc::Config horizon_cut(monarc::Config cfg) {
  cfg.horizon = kSetupHorizon;
  return cfg;
}

core::Engine::Config lhc_engine(std::uint64_t seed) {
  return {.queue = core::QueueKind::kCalendarQueue, .seed = seed};
}

struct MonarcRun {
  monarc::Result result;
  core::Engine::Stats stats;
  double wall_s = 0;
};

MonarcRun run_monarc(const monarc::Config& cfg, std::uint64_t seed, core::EngineProbe* probe) {
  MonarcRun out;
  out.wall_s = timed([&] {
    core::Engine eng(lhc_engine(seed));
    eng.set_probe(probe);
    out.result = monarc::run(eng, cfg);
    out.stats = eng.stats();
  });
  return out;
}

void monarc_fingerprint(Record& rec, const monarc::Config& cfg, const monarc::Result& r) {
  rec.field("files_produced", r.files_produced);
  rec.field("replicas_delivered", r.replicas_delivered);
  rec.field("analysis_jobs", r.analysis_jobs);
  rec.field("files_archived", r.files_archived);
  rec.field("makespan", g17(r.makespan));
  rec.field("mean_lag", g17(r.replication_lag.mean()));
  rec.field("backlog_at_production_end", g17(r.backlog_at_production_end));
  rec.field("peak_backlog", g17(r.peak_backlog_bytes));
  const std::uint64_t want = cfg.num_files * cfg.num_t1;
  rec.check("all replicas delivered", r.replicas_delivered == want,
            std::to_string(r.replicas_delivered) + " of " + std::to_string(want));
}

void engine_counts(Record& rec, const core::Engine::Stats& s) {
  rec.count("events_executed", s.executed);
  rec.count("events_scheduled", s.scheduled);
  rec.count("events_cancelled", s.cancelled);
}

void probe_counts(Record& rec, const QueueProbe& probe) {
  rec.count("pending_peak", probe.pending_peak());
  rec.time("queue_s", probe.queue_seconds());
}

Json lhc_2g5(bool traced, const RunContext& ctx) {
  const auto cfg = lhc_config(2.5, kLhc2g5Files, false);
  Record rec;
  if (!traced) {
    rec.set("setup_s", setup_samples([&] { run_monarc(horizon_cut(cfg), ctx.seed, nullptr); }));
    const auto run = run_monarc(cfg, ctx.seed, nullptr);
    rec.set("wall_s", run.wall_s);
    rec.set("peak_rss_mb", peak_rss_mb());
    monarc_fingerprint(rec, cfg, run.result);
    return rec.take();
  }
  SpanLog log;
  run_monarc(cfg, ctx.seed, nullptr);  // warm-up: every timed run below starts warm
  MonarcRun plain;
  {
    auto s = log.scope("untraced");
    plain = run_monarc(cfg, ctx.seed, nullptr);
  }
  QueueProbe probe;
  MonarcRun run;
  {
    auto traced_span = log.scope("traced");
    { auto s = log.scope("setup", "traced"); run_monarc(horizon_cut(cfg), ctx.seed, nullptr); }
    SpanCounter spans;
    auto s = log.scope("monarc.run", "traced");
    run = run_monarc(cfg, ctx.seed, &probe);
    rec.count("flows_done", spans.flows_done());
    rec.count("flows_not_done", spans.flows_not_done());
    rec.count("jobs_done", spans.jobs_done());
  }
  rec.set("wall_s", plain.wall_s);
  rec.set("traced_wall_s", run.wall_s);
  engine_counts(rec, run.stats);
  probe_counts(rec, probe);
  rec.count("analysis_jobs", run.result.analysis_jobs);
  rec.set("spans", log.to_json());
  monarc_fingerprint(rec, cfg, run.result);
  return rec.take();
}

// --- MONARC with observability on -------------------------------------------

struct ObservedRun : MonarcRun {
  std::map<std::string, double> counters;
  double finalize_s = 0;
};

/// One observed study, as `[observability] enabled = true` runs it: metrics,
/// profiler and span subscription on, RunReport written to `report_path`,
/// no JSONL trace. With `probe` set, the probe sits in front of the
/// observability layer on the engine; with `log` set, the run and the
/// finalize + report write are recorded as spans under "traced".
ObservedRun run_observed(const monarc::Config& cfg, std::uint64_t seed,
                         const std::string& report_path, QueueProbe* probe = nullptr,
                         SpanLog* log = nullptr) {
  ObservedRun out;
  out.wall_s = timed([&] {
    core::Engine eng(lhc_engine(seed));
    obs::Options opts;
    opts.enabled = true;
    opts.report_path = report_path;
    obs::Observability observability(opts);
    observability.attach(eng);
    if (probe) {
      probe->forward_to(&observability);
      eng.set_probe(probe);
    }
    obs::RunReport report;
    report.set_scenario("monarc", seed, "calendar");
    std::optional<SpanLog::Scope> span;
    if (log) span.emplace(*log, "monarc.run", "traced");
    out.result = monarc::run(eng, cfg);
    out.result.to_report(report);
    if (log) span.emplace(*log, "finalize+report.write", "traced");
    out.finalize_s = timed([&] {
      observability.finalize(eng, report);
      report.write(report_path);
    });
    out.stats = eng.stats();
    out.counters = observability.metrics().counters();
  });
  return out;
}

/// The report must parse and agree with the engine on executed events.
void check_report(Record& rec, const std::string& path, std::uint64_t executed) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  try {
    const Json report = Json::parse(text.str());
    const Json* prof = report.find("profiler");
    const Json* eng = prof ? prof->find("engine") : nullptr;
    const Json* ex = eng ? eng->find("executed") : nullptr;
    const bool ok = ex && ex->kind() == Json::Kind::kInt &&
                    static_cast<std::uint64_t>(ex->as_int()) == executed;
    rec.check("report executed == engine executed", ok,
              ex ? std::to_string(ex->as_int()) + " vs " + std::to_string(executed)
                 : "profiler.engine.executed missing");
  } catch (const std::exception& e) {
    rec.check("report parses", false, e.what());
  }
}

Json lhc_30g_observed(bool traced, const RunContext& ctx) {
  const auto cfg = lhc_config(30, kLhc30gFiles, true);
  const std::string path = ctx.tmp_dir + "/run_report_" + std::to_string(ctx.seed) + ".json";
  Record rec;
  if (!traced) {
    rec.set("setup_s", setup_samples([&] {
              run_observed(horizon_cut(cfg), ctx.seed, path);
            }));
    const auto run = run_observed(cfg, ctx.seed, path);
    rec.set("wall_s", run.wall_s);
    rec.set("peak_rss_mb", peak_rss_mb());
    monarc_fingerprint(rec, cfg, run.result);
    check_report(rec, path, run.stats.executed);
    return rec.take();
  }
  SpanLog log;
  run_observed(cfg, ctx.seed, path);  // warm-up: every timed run below starts warm
  ObservedRun plain;
  {
    auto s = log.scope("untraced");
    plain = run_observed(cfg, ctx.seed, path);
  }
  QueueProbe probe;
  ObservedRun run;
  {
    auto traced_span = log.scope("traced");
    {
      auto s = log.scope("setup", "traced");
      run_observed(horizon_cut(cfg), ctx.seed, path);
    }
    run = run_observed(cfg, ctx.seed, path, &probe, &log);
  }
  MonarcRun unobserved;
  {
    auto s = log.scope("unobserved_reference");
    unobserved = run_monarc(cfg, ctx.seed, nullptr);
  }
  rec.set("wall_s", plain.wall_s);
  rec.set("traced_wall_s", run.wall_s);
  engine_counts(rec, run.stats);
  probe_counts(rec, probe);
  // The observability layer owns the span bus here; its span counters are
  // the same span stream the benchmark's own subscriber counts elsewhere.
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = run.counters.find(name);
    return it == run.counters.end() ? 0 : static_cast<std::uint64_t>(it->second);
  };
  std::uint64_t flows = 0;
  for (const auto& [name, v] : run.counters) {
    if (name.rfind("span.flow.", 0) == 0) flows += static_cast<std::uint64_t>(v);
  }
  rec.count("flows_done", counter("span.flow.done"));
  rec.count("flows_not_done", flows - counter("span.flow.done"));
  rec.count("jobs_done", counter("span.job.done"));
  rec.count("analysis_jobs", run.result.analysis_jobs);
  rec.count("report_bytes", std::filesystem::file_size(path));
  rec.time("finalize_s", run.finalize_s);
  rec.time("unobserved_wall_s", unobserved.wall_s);
  rec.set("spans", log.to_json());
  monarc_fingerprint(rec, cfg, run.result);
  check_report(rec, path, run.stats.executed);
  return rec.take();
}

// --- parallel tier model -----------------------------------------------------

monarc::Config tier_config() {
  monarc::Config cfg;
  cfg.num_t1 = 9;
  cfg.t2_per_t1 = 6;  // 1 T0 + 9 T1 + 54 T2 = 64 sites
  cfg.t0_t1_bandwidth = 10e9 / 8;
  cfg.num_files = kTierFiles;
  cfg.file_bytes = 20e9;
  cfg.production_interval = 40;
  cfg.run_analysis = true;
  cfg.archive_to_tape = true;
  return cfg;
}

lsds::hosts::ExecutionSpec tier_spec(std::uint64_t seed, bool parallel) {
  lsds::hosts::ExecutionSpec spec;
  spec.parallel = parallel;
  // One worker thread runs the 4 LPs. The window loop's cost (dispatch,
  // barrier, inbox merge) is the same as with 4, and on a shared host a
  // stolen vCPU stalls every barrier of a 4-thread run: in one such episode
  // 4 threads ran 3.2x slower, 1 thread 1.3-1.9x (WORKLOADS.md).
  spec.threads = 1;
  spec.lps = 4;
  spec.partition = lsds::net::PartitionScheme::kTopology;  // "metis-ish"
  spec.queue = core::QueueKind::kCalendarQueue;
  spec.seed = seed;
  return spec;
}

std::string trace_hash(const lsds::sim::parallel::TierResult& r) {
  return hex64(core::StateHash().mix(std::string_view(r.trace())).value());
}

void tier_fingerprint(Record& rec, const lsds::sim::parallel::TierResult& r,
                      const std::string& serial_hash) {
  rec.field("files_produced", r.files_produced);
  rec.field("replicas_delivered", r.replicas_delivered);
  rec.field("jobs", static_cast<std::uint64_t>(r.jobs.size()));
  rec.field("makespan", g17(r.makespan));
  const std::string hash = trace_hash(r);
  rec.field("trace_hash", hash);
  rec.check("parallel trace == serial trace", hash == serial_hash, hash + " vs " + serial_hash);
  rec.check("ran parallel", r.exec.parallel && r.exec.lps > 1, r.exec.fallback_reason);
  rec.check("no lookahead violations", r.exec.engine.lookahead_violations == 0);
}

Json tier_parallel(bool traced, const RunContext& ctx) {
  using lsds::sim::parallel::run_tier;
  using lsds::sim::parallel::TierResult;
  const auto cfg = tier_config();
  const auto par = tier_spec(ctx.seed, true);
  Record rec;
  if (!traced) {
    rec.set("setup_s", setup_samples([&] { run_tier(horizon_cut(cfg), par); }));
    TierResult r;
    rec.set("wall_s", timed([&] { r = run_tier(cfg, par); }));
    rec.set("peak_rss_mb", peak_rss_mb());
    tier_fingerprint(rec, r, trace_hash(run_tier(cfg, tier_spec(ctx.seed, false))));
    return rec.take();
  }
  SpanLog log;
  run_tier(cfg, par);  // warm-up: every timed run below starts warm
  TierResult r;
  double plain_wall = 0, cpu_s = 0;
  {
    auto s = log.scope("untraced");
    const double cpu0 = process_cpu_seconds();
    plain_wall = timed([&] { r = run_tier(cfg, par); });
    cpu_s = process_cpu_seconds() - cpu0;
  }
  double traced_wall = 0;
  std::uint64_t jobs_done = 0;
  {
    auto traced_span = log.scope("traced");
    { auto s = log.scope("setup", "traced"); run_tier(horizon_cut(cfg), par); }
    SpanCounter spans;
    auto s = log.scope("run_tier", "traced");
    traced_wall = timed([&] { r = run_tier(cfg, par); });
    jobs_done = spans.jobs_done();
  }
  TierResult serial;
  double serial_wall = 0;
  {
    auto s = log.scope("serial_reference");
    serial_wall = timed([&] { serial = run_tier(cfg, tier_spec(ctx.seed, false)); });
  }
  rec.set("wall_s", plain_wall);
  rec.set("traced_wall_s", traced_wall);
  const auto& e = r.exec.engine;
  rec.count("events_executed", e.events);
  rec.count("jobs_done", jobs_done);
  rec.count("windows", e.windows);
  rec.count("cross_messages", e.cross_messages);
  Json per_lp = Json::array();
  for (auto n : e.per_lp_events) per_lp.push(n);
  rec.set("lp_events", std::move(per_lp));
  rec.time("parallel_cpu_s", cpu_s);
  rec.time("serial_wall_s", serial_wall);
  rec.set("spans", log.to_json());
  tier_fingerprint(rec, r, trace_hash(serial));
  return rec.take();
}

// --- P2P Chord churn ---------------------------------------------------------

/// The overlay with its churn and lookup generators, built by the timed
/// set-up calls.
struct ChordStudy {
  lsds::net::ZoneTree tree;
  std::unique_ptr<lsds::net::ZoneRouting> routing;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<p2p::ChordNetwork> chord;
  std::unique_ptr<p2p::ChordChurn> churn;
  std::unique_ptr<p2p::ChordLookupTraffic> traffic;
  double build_s = 0;           // platform + peers + finger tables
  double protocol_setup_s = 0;  // maintenance, churn and traffic start

  ChordStudy(std::uint64_t seed, core::EngineProbe* probe) {
    build_s = timed([&] {
      const std::size_t base = kP2pPeers / kP2pSites, extra = kP2pPeers % kP2pSites;
      for (std::size_t s = 0; s < kP2pSites; ++s) {
        lsds::net::ClusterSpec spec;
        spec.hosts = base + (s < extra ? 1 : 0);
        spec.host_bandwidth = 1e8;
        spec.host_latency = 5e-3;
        spec.backbone_bandwidth = 1e10;
        spec.backbone_latency = 2e-2;
        tree.add_child(std::make_unique<lsds::net::ClusterZone>(spec), 1e10, 2e-2);
      }
      routing = std::make_unique<lsds::net::ZoneRouting>(tree);
      engine = std::make_unique<core::Engine>(
          core::Engine::Config{.queue = core::QueueKind::kLadderQueue, .seed = seed});
      engine->set_probe(probe);
      chord = std::make_unique<p2p::ChordNetwork>(*engine, *routing, 32);
      chord->reserve(kP2pPeers);
      for (std::size_t i = 0; i < kP2pPeers; ++i) chord->add_peer(tree.host(i));
      chord->build();
    });
    protocol_setup_s = timed([&] {
      chord->enable_protocol_mode(kP2pStabilizePeriod, kP2pHorizon);
      p2p::ChurnSpec cspec;
      cspec.lifetime_model = p2p::ChurnSpec::Lifetime::kExponential;
      cspec.mean_lifetime = 120;
      cspec.mean_downtime = 15;
      cspec.horizon = kP2pHorizon;
      churn = std::make_unique<p2p::ChordChurn>(*engine, *chord, cspec);
      p2p::TrafficSpec tspec;
      tspec.rate = kP2pLookupRate;
      tspec.horizon = kP2pHorizon;
      traffic = std::make_unique<p2p::ChordLookupTraffic>(*engine, *chord, tspec);
      churn->start();
      traffic->start();
    });
  }
};

void p2p_fingerprint(Record& rec, const ChordStudy& st) {
  rec.field("state_digest", hex64(st.chord->state_digest()));
  rec.field("lookups_issued", st.traffic->issued());
  rec.field("lookups_succeeded", st.traffic->succeeded());
  rec.field("lookups_failed", st.traffic->failed());
  rec.check("every lookup resolved",
            st.traffic->issued() == st.traffic->succeeded() + st.traffic->failed());
}

Json p2p_chord_churn(bool traced, const RunContext& ctx) {
  Record rec;
  if (!traced) {
    rec.set("setup_s", setup_samples([&] { ChordStudy(ctx.seed, nullptr); }));
    std::unique_ptr<ChordStudy> st;
    rec.set("wall_s", timed([&] {
              st = std::make_unique<ChordStudy>(ctx.seed, nullptr);
              st->engine->run();
            }));
    rec.set("peak_rss_mb", peak_rss_mb());
    p2p_fingerprint(rec, *st);
    return rec.take();
  }
  SpanLog log;
  ChordStudy(ctx.seed, nullptr).engine->run();  // warm-up: every timed run below starts warm
  std::unique_ptr<ChordStudy> plain;
  double plain_wall = 0;
  {
    auto s = log.scope("untraced");
    plain_wall = timed([&] {
      plain = std::make_unique<ChordStudy>(ctx.seed, nullptr);
      plain->engine->run();
    });
  }
  const double build_s = plain->build_s, protocol_setup_s = plain->protocol_setup_s;
  plain.reset();
  QueueProbe probe;
  std::unique_ptr<ChordStudy> st;
  double traced_wall = 0;
  {
    auto traced_span = log.scope("traced");
    traced_wall = timed([&] {
      {
        auto s = log.scope("setup", "traced");
        st = std::make_unique<ChordStudy>(ctx.seed, &probe);
      }
      auto s = log.scope("engine.run", "traced");
      st->engine->run();
    });
  }
  rec.set("wall_s", plain_wall);
  rec.set("traced_wall_s", traced_wall);
  engine_counts(rec, st->engine->stats());
  probe_counts(rec, probe);
  rec.count("p2p_messages", st->chord->messages_sent());
  rec.count("stabilize_rounds", st->chord->stabilize_rounds());
  rec.count("lookups_issued", st->traffic->issued());
  rec.count("lookups_succeeded", st->traffic->succeeded());
  rec.count("lookups_failed", st->traffic->failed());
  rec.time("build_s", build_s);
  rec.time("protocol_setup_s", protocol_setup_s);
  rec.set("spans", log.to_json());
  p2p_fingerprint(rec, *st);
  return rec.take();
}

}  // namespace

Json run_workload(const std::string& name, bool traced, const RunContext& ctx) {
  Json (*run)(bool, const RunContext&) = nullptr;
  if (name == "lhc_2g5") run = lhc_2g5;
  if (name == "lhc_30g_observed") run = lhc_30g_observed;
  if (name == "tier_parallel") run = tier_parallel;
  if (name == "p2p_chord_churn") run = p2p_chord_churn;
  if (!run) throw std::invalid_argument("unknown workload: " + name);
  Json calib = Json::array();
  calib.push(calibration_seconds());
  Json rec = run(traced, ctx);
  calib.push(calibration_seconds());
  rec.set("calib_s", std::move(calib));
  return rec;
}

}  // namespace perfbench
