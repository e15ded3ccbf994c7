// Experiment campaigns: replicated sweeps with confidence-interval output
// analysis — the paper's third taxonomy axis made executable.
//
// A campaign takes a base scenario INI plus
//
//   [sweep]                      ; parameter grid, see exp/sweep.hpp
//   monarc.link = 2.5Gbps|30Gbps
//
//   [campaign]
//   replications = 8             ; independent replications per point
//   warmup       = 2             ; leading replications discarded from stats
//   confidence   = 0.95          ; CI level (0.95 is the one supported)
//   workers      = 4             ; thread-pool width (0 = hardware)
//   timing       = false         ; include wall-clock section in the report
//
// expands the cross product into run points, executes every (point,
// replication) pair on a util::ThreadPool, and aggregates each point's
// facade metrics (everything Result::to_report wrote into the RunReport's
// "result" section) into mean ± CI half-width via stats::Accumulator and
// the Student-t quantile from stats/batch_means.
//
// Determinism contract (the PR-2 discipline applied to output analysis):
// the campaign report is byte-identical for workers=1 and workers=N and
// across repeated runs with the same seed. Consequences:
//   * results are stored into a pre-sized (point, replication) grid, so
//     work-stealing order cannot leak into the report;
//   * replication seeds are SplitMix64 substreams of the [scenario] master
//     seed keyed by replication index only — the same seeds across points
//     (common random numbers), so point-to-point deltas are paired;
//   * the worker count and wall-clock timings are NOT part of the report
//     unless `timing = true` opts into a nondeterministic "timing" section.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/event_queue.hpp"
#include "exp/sweep.hpp"
#include "obs/json.hpp"
#include "sim/facade_registry.hpp"
#include "util/ini.hpp"

namespace lsds::exp {

/// Schema identifier stamped into every campaign report.
inline constexpr const char* kCampaignReportSchema = "lsds.campaign_report/1";

struct CampaignSpec {
  std::size_t replications = 5;
  /// Leading replications per point that are executed but excluded from the
  /// statistics (replication-level warmup deletion).
  std::size_t warmup = 0;
  double confidence = 0.95;  // only 0.95 is supported
  unsigned workers = 1;      // 0 = std::thread::hardware_concurrency()
  bool timing = false;       // opt into the nondeterministic wall-clock section

  /// Parse the `[campaign]` section (defaults when absent). Throws
  /// util::ConfigError on replications < 1, negative warmup/workers,
  /// warmup >= replications, or an unsupported confidence level.
  static CampaignSpec parse(const util::IniConfig& ini);
};

/// Seed of replication `replication` derived from the master seed via a
/// SplitMix64 chain. Independent of the sweep point (common random numbers)
/// and of worker count / execution order.
std::uint64_t substream_seed(std::uint64_t base_seed, std::size_t replication);

/// One (point, replication) slot's extracted scalar metrics in report
/// insertion order, plus its outcome. The unit of work the campaign grid —
/// in-process or distributed — is made of, and the payload of the
/// lsds.campaign_partial/1 protocol (see exp/dist_protocol.hpp).
struct RepOutcome {
  std::vector<std::pair<std::string, double>> metrics;
  int rc = 0;
  std::string error;
};

/// Across-replication statistics of one scalar metric at one point.
struct MetricStats {
  std::size_t n = 0;  // replications aggregated (replications - warmup)
  double mean = 0;
  double stddev = 0;  // sample (n-1) standard deviation
  double ci95 = 0;    // Student-t 95% CI half-width of the mean
  double min = 0;
  double max = 0;
};

struct PointResult {
  std::size_t index = 0;
  /// (axis name, value) assignments of this point, axis order.
  std::vector<std::pair<std::string, std::string>> params;
  /// Insertion-ordered per-metric statistics (order of the facade's
  /// Result::to_report writes).
  std::vector<std::pair<std::string, MetricStats>> metrics;
};

/// Structured accounting of a distributed run's worker failures and
/// recoveries (filled by exp::DistributedCampaign). Like the wall clock it
/// is nondeterministic — which worker dies, times out or retries depends on
/// scheduling — so it is serialized only under the `timing = true` opt-in;
/// the canonical report stays byte-identical across execution modes.
struct DistAccounting {
  unsigned processes = 0;       // concurrent worker processes
  std::size_t shards = 0;       // shards the grid was split into
  std::size_t shards_resumed = 0;  // shards skipped via --resume partials
  std::size_t retries_used = 0;
  struct Failure {
    std::size_t shard = 0;
    unsigned attempt = 0;   // 0-based attempt that failed
    std::string reason;     // "timeout" | "exit" | "signal" | "bad-partial" | "spawn"
    std::string detail;
  };
  std::vector<Failure> failures;
};

struct CampaignResult {
  std::string facade;
  std::string queue;
  std::uint64_t base_seed = 0;
  CampaignSpec spec;
  SweepSpec sweep;
  std::vector<std::uint64_t> seeds;  // per replication, shared across points
  std::vector<PointResult> points;
  std::uint64_t runs = 0;    // points x replications actually executed
  double wall_seconds = 0;   // total campaign wall clock (report: only when
                             // spec.timing)
  /// Present after a distributed run (report: only when spec.timing).
  std::optional<DistAccounting> distribution;

  obs::Json to_json() const;
  std::string to_json_string(int indent = 2) const;
  /// Write the report JSON to `path`. Throws std::runtime_error.
  void write(const std::string& path) const;
};

class Campaign {
 public:
  /// Parse [scenario]/[sweep]/[campaign] out of `base` and resolve the
  /// facade in the global registry (register_builtin_facades() is called).
  /// Throws util::ConfigError on an unknown facade or a bad spec. Keys
  /// `base` was already asked for stay known: a caller that reads more of
  /// the [campaign] section (DistConfig::parse) does so before this.
  explicit Campaign(util::IniConfig base);

  const CampaignSpec& spec() const { return spec_; }
  const SweepSpec& sweep() const { return sweep_; }
  const std::string& facade() const { return facade_; }
  /// The base scenario INI (pre-sweep) — the coordinator serializes this to
  /// ship the campaign to worker processes.
  const util::IniConfig& base() const { return base_; }
  const std::string& queue_name() const { return queue_name_; }
  std::uint64_t base_seed() const { return base_seed_; }
  const std::vector<std::uint64_t>& seeds() const { return seeds_; }
  std::size_t point_count() const { return sweep_.point_count(); }
  /// Grid size: point_count() x replications, point-major slot order.
  std::size_t run_count() const { return sweep_.point_count() * spec_.replications; }

  /// Command-line override of [campaign] workers (does not affect output).
  void set_workers(unsigned w) { spec_.workers = w; }

  /// Execute every (point, replication) pair and aggregate. Facade stdout/
  /// stderr are suppressed for the duration (parallel one-line summaries
  /// would interleave); campaign progress goes to stderr before the
  /// silenced phase. Throws std::runtime_error when any replication fails.
  CampaignResult run();

  // --- distributed building blocks (see exp/dist_campaign.hpp) --------------

  /// Execute slots [begin, end) of the point-major (point, replication)
  /// grid in-process on `threads` threads (0 = hardware concurrency) and
  /// return their outcomes (slot begin+i at index i). Each slot parses its
  /// point INI through the facade and rejects unread keys before it runs.
  /// Replication failures — a bad or unknown key included — are recorded
  /// per-slot, never thrown; surfacing them deterministically is
  /// aggregate()'s job. Facade stdout/stderr are silenced for the
  /// duration and restored on every path.
  std::vector<RepOutcome> run_slots(std::size_t begin, std::size_t end, unsigned threads) const;

  /// Deterministically surface failures (first bad slot in grid order wins,
  /// independent of execution order, thread count or process count — throws
  /// std::runtime_error with that slot's diagnostic) and aggregate a
  /// complete grid of run_count() outcomes into the campaign report.
  CampaignResult aggregate(const std::vector<RepOutcome>& outcomes, double wall_seconds) const;

 private:
  util::IniConfig base_;
  CampaignSpec spec_;
  SweepSpec sweep_;
  std::string facade_;
  std::string queue_name_;
  core::QueueKind queue_;
  std::uint64_t base_seed_ = 0;
  std::vector<std::uint64_t> seeds_;  // per replication, shared across points
  const sim::FacadeRegistry::Entry* entry_ = nullptr;
};

}  // namespace lsds::exp
