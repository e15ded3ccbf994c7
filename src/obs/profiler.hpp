// Wall-clock engine profiler.
//
// Answers the performance questions every scaling claim in EXPERIMENTS.md
// rests on: how fast does the engine burn events (events/sec wall-clock),
// what do pending-set operations cost (queue-op latency distributions from
// the core probe), and — for parallel runs — how well-occupied the LP
// windows are (events per window, per-LP balance, past_clamped) from
// core/parallel's counters.
//
// The profiler *is* a core::EngineProbe; attach with engine.set_probe(&p).
// It observes wall time only — it never touches simulated time, so an
// observed run's event trace is identical to an unobserved one.
//
// Queue timings are sampled: attached directly, the profiler asks the engine
// for kQueueStride, so queue_push_ns, queue_pop_ns and pending_depth
// summarize one push (or pop) in every N and their `count` is the number of
// sampled operations, not the total. The JSON states N as
// queue_sample_stride: the stride of the probe attached to the engine at
// ingest(), which differs from kQueueStride when a probe attached in front
// of this one forwards to it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "core/probe.hpp"
#include "stats/summary.hpp"

namespace lsds::hosts {
struct ExecutionReport;
}

namespace lsds::obs {

class Json;

class EngineProfiler final : public core::EngineProbe {
 public:
  /// Anchor the wall clock (done at construction; call again to re-anchor).
  void start();
  /// Stop the wall clock (idempotent; finalize calls it).
  void stop();

  /// Queue-timing stride the profiler asks for (see core/probe.hpp).
  static constexpr std::uint32_t kQueueStride = 64;

  EngineProfiler() { start(); }

  // --- core::EngineProbe ----------------------------------------------------

  void on_event(core::SimTime t, core::EventId seq) override;
  void on_queue_push(std::uint64_t ns, std::size_t pending) override;
  void on_queue_pop(std::uint64_t ns) override;
  std::uint32_t queue_stride() const override { return kQueueStride; }

  // --- rollups --------------------------------------------------------------

  /// Final engine counters (scheduled/executed/cancelled/past_clamped), and
  /// the queue stride of the engine's attached probe, if any.
  void ingest(const core::Engine& engine);
  /// Parallel-execution rollup: windows, cross-LP messages, per-LP window
  /// occupancy (events per window per LP) and past_clamped.
  void ingest_execution(const hosts::ExecutionReport& report);

  // --- readings -------------------------------------------------------------

  double wall_seconds() const;
  std::uint64_t events() const { return events_; }
  double events_per_sec() const;
  const stats::Accumulator& push_ns() const { return push_ns_; }
  const stats::Accumulator& pop_ns() const { return pop_ns_; }
  const stats::Accumulator& pending_depth() const { return pending_; }

  Json to_json() const;

 private:
  using Clock = std::chrono::steady_clock;

  std::uint32_t applied_stride_ = kQueueStride;  // reported queue_sample_stride
  Clock::time_point wall_start_{};
  Clock::time_point wall_stop_{};
  bool running_ = false;
  std::uint64_t events_ = 0;
  double last_event_time_ = 0;
  stats::Accumulator push_ns_;
  stats::Accumulator pop_ns_;
  stats::Accumulator pending_;

  // Engine rollup (after ingest()).
  bool have_engine_ = false;
  core::Engine::Stats engine_stats_{};
  const char* queue_name_ = nullptr;

  // Parallel rollup (after ingest_execution()).
  bool have_exec_ = false;
  bool exec_parallel_ = false;
  unsigned exec_lps_ = 1;
  unsigned exec_threads_ = 1;
  double exec_lookahead_ = 0;
  std::uint64_t exec_windows_ = 0;
  std::uint64_t exec_events_ = 0;
  std::uint64_t exec_cross_ = 0;
  std::uint64_t exec_past_clamped_ = 0;
  std::uint64_t exec_la_violations_ = 0;
  stats::Accumulator lp_events_;
  double exec_imbalance_ = 1.0;
  std::string exec_fallback_;
};

}  // namespace lsds::obs
