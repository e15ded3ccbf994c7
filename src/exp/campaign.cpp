#include "exp/campaign.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/engine.hpp"
#include "core/rng.hpp"
#include "obs/report.hpp"
#include "sim/facades/common.hpp"
#include "stats/batch_means.hpp"
#include "stats/summary.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define LSDS_EXP_CAN_SILENCE_STDOUT 1
#endif

namespace lsds::exp {

namespace {

// Facades print a one-line summary to stdout, and the chatty ones log to
// stderr; N workers' worth of those interleave arbitrarily (and in a
// distributed worker they would pollute the coordinator's view). Redirect
// fds 1 and 2 to /dev/null for the duration of the parallel phase. RAII:
// every fd this opens is closed again on every path — the dup2'd devnull fd
// immediately after redirection, the saved originals when they are restored
// in the destructor — so a campaign run leaks no descriptors even when a
// facade throws mid-phase.
class OutputSilencer {
 public:
  OutputSilencer() {
#ifdef LSDS_EXP_CAN_SILENCE_STDOUT
    std::fflush(stdout);
    std::fflush(stderr);
    const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
    if (devnull < 0) return;  // cannot silence; leave fds untouched
    saved_out_ = ::dup(1);
    saved_err_ = ::dup(2);
    if (saved_out_ >= 0) ::dup2(devnull, 1);
    if (saved_err_ >= 0) ::dup2(devnull, 2);
    ::close(devnull);  // fds 1/2 hold their own copies now
#endif
  }
  ~OutputSilencer() { restore(); }

  /// Restore the original fds early (idempotent) — used before error paths
  /// that must reach the user.
  void restore() {
#ifdef LSDS_EXP_CAN_SILENCE_STDOUT
    std::fflush(stdout);
    std::fflush(stderr);
    if (saved_out_ >= 0) {
      ::dup2(saved_out_, 1);
      ::close(saved_out_);
      saved_out_ = -1;
    }
    if (saved_err_ >= 0) {
      ::dup2(saved_err_, 2);
      ::close(saved_err_);
      saved_err_ = -1;
    }
#endif
  }

  OutputSilencer(const OutputSilencer&) = delete;
  OutputSilencer& operator=(const OutputSilencer&) = delete;

 private:
  int saved_out_ = -1;
  int saved_err_ = -1;
};

void extract_metrics(const obs::Json& result, RepOutcome& out) {
  for (const auto& [key, value] : result.members()) {
    switch (value.kind()) {
      case obs::Json::Kind::kInt:
      case obs::Json::Kind::kDouble:
        out.metrics.emplace_back(key, value.as_double());
        break;
      case obs::Json::Kind::kBool:  // aggregates to "fraction of replications"
        out.metrics.emplace_back(key, value.as_bool() ? 1.0 : 0.0);
        break;
      default:
        break;  // strings / nested structure are not aggregatable
    }
  }
}

}  // namespace

CampaignSpec CampaignSpec::parse(const util::IniConfig& ini) {
  CampaignSpec spec;
  spec.replications = ini.get_count("campaign", "replications", 5, 1);
  spec.warmup = ini.get_count("campaign", "warmup", 0);
  spec.confidence = ini.get_double("campaign", "confidence", 0.95);
  spec.workers = static_cast<unsigned>(ini.get_count("campaign", "workers", 1));
  spec.timing = ini.get_bool("campaign", "timing", false);
  if (spec.warmup >= spec.replications) {
    throw util::ConfigError("[campaign] warmup (" + std::to_string(spec.warmup) +
                            ") must be < replications (" + std::to_string(spec.replications) +
                            ")");
  }
  if (std::abs(spec.confidence - 0.95) > 1e-12) {
    throw util::ConfigError(
        "[campaign] confidence: only 0.95 is supported (Student-t table in stats/batch_means)");
  }
  return spec;
}

std::uint64_t substream_seed(std::uint64_t base_seed, std::size_t replication) {
  // SplitMix64 chain keyed by (master seed, "exp.campaign", replication).
  // Deliberately NOT keyed by the sweep point: every point replays the same
  // seed sequence (common random numbers), so cross-point comparisons are
  // paired and tighter than independent draws.
  std::uint64_t s = base_seed ^ core::fnv1a("exp.campaign");
  std::uint64_t out = core::splitmix64(s);
  s ^= (static_cast<std::uint64_t>(replication) + 1) * 0x9e3779b97f4a7c15ULL;
  out ^= core::splitmix64(s);
  return out;
}

Campaign::Campaign(util::IniConfig base) : base_(std::move(base)) {
  spec_ = CampaignSpec::parse(base_);
  sweep_ = SweepSpec::parse(base_);
  facade_ = base_.get_string("scenario", "facade", "");
  queue_name_ = base_.get_string("scenario", "queue", "heap");
  queue_ = sim::facades::parse_queue(queue_name_);
  base_seed_ = base_.get_count("scenario", "seed", 42);
  seeds_.resize(spec_.replications);
  for (std::size_t r = 0; r < spec_.replications; ++r) {
    seeds_[r] = substream_seed(base_seed_, r);
  }

  sim::register_builtin_facades();
  entry_ = sim::FacadeRegistry::global().find(facade_);
  if (!entry_) {
    throw util::ConfigError("campaign: unknown facade '" + facade_ + "' in [scenario]");
  }
}

std::vector<RepOutcome> Campaign::run_slots(std::size_t begin, std::size_t end,
                                            unsigned threads) const {
  const std::size_t n_reps = spec_.replications;
  if (begin > end || end > run_count()) {
    throw std::invalid_argument("campaign: slot range [" + std::to_string(begin) + ", " +
                                std::to_string(end) + ") outside grid of " +
                                std::to_string(run_count()));
  }
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;

  // Pre-sized outcome grid: each task writes its own slot, so scheduling
  // order cannot leak into the result.
  std::vector<RepOutcome> outcomes(end - begin);
  OutputSilencer quiet;
  util::ThreadPool pool(threads);
  for (std::size_t slot = begin; slot < end; ++slot) {
    const std::size_t p = slot / n_reps;
    const std::size_t r = slot % n_reps;
    pool.submit([this, &outcomes, begin, slot, p, r] {
      RepOutcome& out = outcomes[slot - begin];
      try {
        // A private point INI per slot: reads mark keys, and slots run
        // concurrently. It inherits the marks of the keys the constructor
        // read ([scenario], [sweep], [campaign]), so reject_unread() flags
        // only what neither the campaign nor the facade knows.
        util::IniConfig ini = base_;
        sweep_.apply(p, ini);
        const auto study = entry_->parse(ini);
        ini.reject_unread();
        core::Engine::Config ecfg;
        ecfg.queue = queue_;
        ecfg.seed = seeds_[r];
        core::Engine engine(ecfg);
        obs::RunReport report;
        out.rc = study(engine, report);
        extract_metrics(report.result(), out);
      } catch (const std::exception& e) {
        out.rc = -1;
        out.error = e.what();
      } catch (...) {
        out.rc = -1;
        out.error = "unknown exception";
      }
    });
  }
  pool.wait_idle();
  return outcomes;
}

CampaignResult Campaign::run() {
  const std::size_t n_points = sweep_.point_count();
  const std::size_t n_reps = spec_.replications;

  unsigned workers = spec_.workers;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;
  std::fprintf(stderr, "campaign: %s — %zu point%s x %zu replication%s on %u worker%s\n",
               facade_.c_str(), n_points, n_points == 1 ? "" : "s", n_reps,
               n_reps == 1 ? "" : "s", workers, workers == 1 ? "" : "s");

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<RepOutcome> outcomes = run_slots(0, run_count(), workers);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return aggregate(outcomes, wall);
}

CampaignResult Campaign::aggregate(const std::vector<RepOutcome>& outcomes,
                                   double wall_seconds) const {
  const std::size_t n_points = sweep_.point_count();
  const std::size_t n_reps = spec_.replications;
  const std::size_t n_runs = n_points * n_reps;
  if (outcomes.size() != n_runs) {
    throw std::runtime_error("campaign: aggregate over " + std::to_string(outcomes.size()) +
                             " outcomes, grid has " + std::to_string(n_runs));
  }

  // Fail loudly and deterministically: the first bad slot in grid order
  // wins, never whichever failure happened to finish first — the diagnostic
  // is identical across workers=1/N and across process counts.
  for (std::size_t p = 0; p < n_points; ++p) {
    for (std::size_t r = 0; r < n_reps; ++r) {
      const RepOutcome& out = outcomes[p * n_reps + r];
      if (out.rc != 0) {
        throw std::runtime_error("campaign: point " + std::to_string(p) + " replication " +
                                 std::to_string(r) + " failed (rc=" + std::to_string(out.rc) +
                                 (out.error.empty() ? ")" : "): " + out.error));
      }
    }
  }

  CampaignResult result;
  result.facade = facade_;
  result.queue = queue_name_;
  result.base_seed = base_seed_;
  result.spec = spec_;
  result.sweep = sweep_;
  result.seeds = seeds_;
  result.runs = n_runs;
  result.wall_seconds = wall_seconds;
  result.points.reserve(n_points);

  for (std::size_t p = 0; p < n_points; ++p) {
    PointResult point;
    point.index = p;
    point.params = sweep_.params(p);

    // Metric name order: replication 0's insertion order, then any names
    // that only appear later (shouldn't happen; kept deterministic anyway).
    std::vector<std::string> names;
    for (std::size_t r = 0; r < n_reps; ++r) {
      for (const auto& [name, value] : outcomes[p * n_reps + r].metrics) {
        bool known = false;
        for (const std::string& n : names) {
          if (n == name) {
            known = true;
            break;
          }
        }
        if (!known) names.push_back(name);
      }
    }

    for (const std::string& name : names) {
      stats::Accumulator acc;
      for (std::size_t r = spec_.warmup; r < n_reps; ++r) {
        for (const auto& [n, value] : outcomes[p * n_reps + r].metrics) {
          if (n == name) {
            acc.add(value);
            break;
          }
        }
      }
      MetricStats ms;
      ms.n = acc.count();
      ms.mean = acc.mean();
      ms.stddev = std::sqrt(acc.sample_variance());
      ms.min = acc.min();
      ms.max = acc.max();
      if (acc.count() >= 2) {
        ms.ci95 = stats::t_critical_95(acc.count() - 1) *
                  std::sqrt(acc.sample_variance() / static_cast<double>(acc.count()));
      }
      point.metrics.emplace_back(name, ms);
    }
    result.points.push_back(std::move(point));
  }
  return result;
}

obs::Json CampaignResult::to_json() const {
  obs::Json root = obs::Json::object();
  root.set("schema", kCampaignReportSchema);

  obs::Json c = obs::Json::object();
  c.set("facade", facade);
  c.set("queue", queue);
  c.set("base_seed", base_seed);
  c.set("replications", static_cast<std::uint64_t>(spec.replications));
  c.set("warmup", static_cast<std::uint64_t>(spec.warmup));
  c.set("confidence", spec.confidence);
  c.set("points", static_cast<std::uint64_t>(points.size()));
  c.set("runs", runs);
  // Worker count is intentionally absent: the report must be byte-identical
  // for workers=1 and workers=N.
  obs::Json seed_arr = obs::Json::array();
  for (std::uint64_t s : seeds) seed_arr.push(s);
  c.set("seeds", std::move(seed_arr));
  root.set("campaign", std::move(c));

  obs::Json sw = obs::Json::object();
  for (const SweepAxis& axis : sweep.axes()) {
    obs::Json vals = obs::Json::array();
    for (const std::string& v : axis.values) vals.push(v);
    sw.set(axis.name(), std::move(vals));
  }
  root.set("sweep", std::move(sw));

  obs::Json pts = obs::Json::array();
  for (const PointResult& p : points) {
    obs::Json jp = obs::Json::object();
    jp.set("index", static_cast<std::uint64_t>(p.index));
    obs::Json params = obs::Json::object();
    for (const auto& [name, value] : p.params) params.set(name, value);
    jp.set("params", std::move(params));
    obs::Json metrics = obs::Json::object();
    for (const auto& [name, ms] : p.metrics) {
      obs::Json jm = obs::Json::object();
      jm.set("n", static_cast<std::uint64_t>(ms.n));
      jm.set("mean", ms.mean);
      jm.set("stddev", ms.stddev);
      jm.set("ci95_halfwidth", ms.ci95);
      jm.set("min", ms.min);
      jm.set("max", ms.max);
      metrics.set(name, std::move(jm));
    }
    jp.set("metrics", std::move(metrics));
    pts.push(std::move(jp));
  }
  root.set("points", std::move(pts));

  if (spec.timing) {
    obs::Json t = obs::Json::object();
    t.set("wall_seconds", wall_seconds);
    root.set("timing", std::move(t));
    if (distribution) {
      // Worker-failure accounting is as nondeterministic as the wall clock
      // (which worker dies or times out depends on OS scheduling), so it
      // rides behind the same opt-in.
      obs::Json d = obs::Json::object();
      d.set("processes", static_cast<std::uint64_t>(distribution->processes));
      d.set("shards", static_cast<std::uint64_t>(distribution->shards));
      d.set("shards_resumed", static_cast<std::uint64_t>(distribution->shards_resumed));
      d.set("retries_used", static_cast<std::uint64_t>(distribution->retries_used));
      obs::Json fails = obs::Json::array();
      for (const DistAccounting::Failure& f : distribution->failures) {
        obs::Json jf = obs::Json::object();
        jf.set("shard", static_cast<std::uint64_t>(f.shard));
        jf.set("attempt", static_cast<std::uint64_t>(f.attempt));
        jf.set("reason", f.reason);
        jf.set("detail", f.detail);
        fails.push(std::move(jf));
      }
      d.set("worker_failures", std::move(fails));
      root.set("distribution", std::move(d));
    }
  }
  return root;
}

std::string CampaignResult::to_json_string(int indent) const { return to_json().dump(indent); }

void CampaignResult::write(const std::string& path) const { to_json().write_file(path); }

}  // namespace lsds::exp
