// Pull-based metrics registry.
//
// The paper's taxonomy makes *output analysis* a first-class axis of a
// simulator; MetricsRegistry is the uniform instrument panel behind it.
// Three instrument kinds, registered by name:
//
//   * counter — monotone accumulation (flows completed, bytes moved);
//   * gauge   — a pull callback sampled on a simulated-time cadence
//               (pending events, active flows, queue depth);
//   * timer   — a duration summary (flow/job span lengths): count, mean,
//               min, max and stddev, in O(1) memory.
//
// Sampling is *pull-based and event-carried*: `advance(t)` is called from
// the engine observation probe before each executed event, and when the
// clock has crossed the next cadence boundary every gauge is polled and
// every counter's running value recorded into its series. No sampling event
// is ever scheduled in the engine — the observed run's event trace stays
// byte-identical to the unobserved run's (a test asserts this).
// Each counter and gauge resolves its series once, when it is created, so a
// sample walks two flat lists and looks nothing up by name.
//
// A series is a stats::TimeSeries, a running summary rather than a list of
// points: the report reads only the sample count, the last point, the max
// and the time-weighted mean, so a long run stores nothing per sample.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats/summary.hpp"
#include "stats/timeseries.hpp"

namespace lsds::obs {

class Json;

class MetricsRegistry {
 public:
  using GaugeFn = std::function<double()>;

  /// Throws std::invalid_argument unless `sample_interval` is finite and
  /// > 0.
  explicit MetricsRegistry(double sample_interval = 1.0);

  // --- instruments (create on first use, stable thereafter) -----------------

  /// Monotone counter. Every instrument call takes the registry lock, since
  /// parallel LP threads may publish concurrently.
  void bump(const std::string& name, double amount = 1);
  double counter(const std::string& name) const;

  /// Register (or replace) a pull gauge; sampled at every cadence boundary.
  void gauge(const std::string& name, GaugeFn pull);
  /// Stop polling a gauge (e.g. before the object it reads goes away). The
  /// series it recorded so far stays in the registry and the report.
  void drop_gauge(const std::string& name);

  /// Record one duration sample (seconds) into the named timer.
  void time(const std::string& name, double seconds);

  // --- pre-resolved instruments (hot paths) ---------------------------------

  /// The registry lock. Hold it while resolving an instrument below and
  /// while updating through the returned reference; references stay valid
  /// for the registry's lifetime, so a hot path resolves once by name and
  /// then updates with no lookup.
  std::unique_lock<std::mutex> lock() const { return std::unique_lock<std::mutex>(mu_); }
  /// Counter value, created at 0 on first use. Caller holds lock().
  double& counter_ref(const std::string& name);
  /// Timer summary, created empty on first use. Caller holds lock().
  stats::Accumulator& timer_ref(const std::string& name);

  // --- sampling -------------------------------------------------------------

  double sample_interval() const { return sample_interval_; }

  /// Poll every gauge and counter at simulated time `t` into its series.
  void sample(double t);

  /// Event-carried cadence: called with the engine clock before each event;
  /// samples at the last crossed boundary when one has been passed.
  void advance(double t) {
    if (t >= next_sample_) advance_slow(t);
  }

  // --- output ---------------------------------------------------------------

  const std::map<std::string, double>& counters() const { return counters_; }
  const std::map<std::string, stats::Accumulator>& timers() const { return timers_; }
  const std::map<std::string, stats::TimeSeries>& series() const { return series_; }

  /// Serialize the registry: counters as values, timers as summary stats,
  /// gauges/counters as sampled series summaries (count/mean/max + last).
  Json to_json(double t_end) const;

 private:
  void advance_slow(double t);

  struct Gauge {
    std::string name;
    GaugeFn pull;
    stats::TimeSeries* series;
  };
  struct SampledCounter {
    const double* value;
    stats::TimeSeries* series;
  };

  double sample_interval_;
  double next_sample_ = 0;
  mutable std::mutex mu_;
  // std::map nodes never move, so the pointers below stay valid.
  std::map<std::string, double> counters_;
  std::map<std::string, stats::Accumulator> timers_;
  std::map<std::string, stats::TimeSeries> series_;
  std::vector<Gauge> gauges_;
  std::vector<SampledCounter> sampled_counters_;
};

}  // namespace lsds::obs
