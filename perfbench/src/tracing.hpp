// Benchmark-owned observation seams for the traced run.
//
// Everything here attaches through public hooks only: an EngineProbe on the
// engine a study runs on, a subscription on the process-wide span bus, and
// wall-clock spans the benchmark records around its own calls into the
// simulator. Counts are aggregated in place; nothing is emitted per
// operation, and the span log is kept in memory until the run ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/probe.hpp"
#include "obs/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system, all threads) in seconds.
double process_cpu_seconds();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Wall seconds of a fixed synthetic kernel that shares no code with the
/// simulator (binary-heap churn and random toggles over a 4 MiB table,
/// driven by a seeded generator), about 35 ms on a quiet host. Timed
/// around each run, it measures how fast the host runs at that moment, so
/// run.py can take out the slowdowns other tenants of a shared host impose
/// (WORKLOADS.md, "Statistics").
double calibration_seconds();

/// Wall-clock spans around the benchmark's public calls. A span names its
/// parent by name; times are seconds since the log was created.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Records [construction, destruction) as one span.
  class Scope {
   public:
    Scope(SpanLog& log, std::string name, std::string parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::string name_;
    std::string parent_;
    Clock::time_point start_;
  };

  Scope scope(std::string name, std::string parent = "") {
    return Scope(*this, std::move(name), std::move(parent));
  }
  /// [{name, parent, start_s, end_s}, ...] in completion order.
  lsds::obs::Json to_json() const;

 private:
  struct Span {
    std::string name;
    std::string parent;
    double start_s = 0;
    double end_s = 0;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Aggregating engine probe: sums the wall nanoseconds of queue operations
/// and tracks the deepest pending set. Forwards every callback to an inner
/// probe when set, so it can sit in front of obs::Observability.
class QueueProbe final : public lsds::core::EngineProbe {
 public:
  QueueProbe() = default;
  QueueProbe(const QueueProbe&) = delete;
  QueueProbe& operator=(const QueueProbe&) = delete;

  /// Forward every callback to `inner` as well (nullptr: stop forwarding).
  void forward_to(lsds::core::EngineProbe* inner) { inner_ = inner; }

  void on_event(lsds::core::SimTime t, lsds::core::EventId seq) override;
  void on_queue_push(std::uint64_t ns, std::size_t pending) override;
  void on_queue_pop(std::uint64_t ns) override;

  double queue_seconds() const { return static_cast<double>(push_ns_ + pop_ns_) * 1e-9; }
  std::size_t pending_peak() const { return pending_peak_; }

 private:
  lsds::core::EngineProbe* inner_ = nullptr;
  std::uint64_t push_ns_ = 0;
  std::uint64_t pop_ns_ = 0;
  std::size_t pending_peak_ = 0;
};

/// Span-bus subscriber counting flow and job spans by outcome. Subscribes
/// on construction and detaches on destruction; construct it only while no
/// simulation runs. Thread-safe: parallel LP threads publish concurrently.
class SpanCounter {
 public:
  SpanCounter();
  ~SpanCounter();
  SpanCounter(const SpanCounter&) = delete;
  SpanCounter& operator=(const SpanCounter&) = delete;

  std::uint64_t flows_done() const { return flows_done_.load(); }
  /// Flows that ended any other way (aborted, refused, cancelled).
  std::uint64_t flows_not_done() const { return flows_not_done_.load(); }
  std::uint64_t jobs_done() const { return jobs_done_.load(); }

 private:
  std::atomic<std::uint64_t> flows_done_{0};
  std::atomic<std::uint64_t> flows_not_done_{0};
  std::atomic<std::uint64_t> jobs_done_{0};
};

}  // namespace perfbench
