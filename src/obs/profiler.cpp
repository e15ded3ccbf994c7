#include "obs/profiler.hpp"

#include "hosts/parallel_grid.hpp"
#include "obs/json.hpp"

namespace lsds::obs {

void EngineProfiler::start() {
  wall_start_ = Clock::now();
  running_ = true;
}

void EngineProfiler::stop() {
  if (!running_) return;
  wall_stop_ = Clock::now();
  running_ = false;
}

void EngineProfiler::on_event(core::SimTime t, core::EventId) {
  ++events_;
  last_event_time_ = t;
}

void EngineProfiler::on_queue_push(std::uint64_t ns, std::size_t pending) {
  push_ns_.add(static_cast<double>(ns));
  pending_.add(static_cast<double>(pending));
}

void EngineProfiler::on_queue_pop(std::uint64_t ns) { pop_ns_.add(static_cast<double>(ns)); }

void EngineProfiler::ingest(const core::Engine& engine) {
  have_engine_ = true;
  engine_stats_ = engine.stats();
  queue_name_ = engine.queue_name();
  if (engine.probe()) applied_stride_ = engine.probe()->queue_stride();
  if (events_ == 0) events_ = engine_stats_.executed;
}

void EngineProfiler::ingest_execution(const hosts::ExecutionReport& report) {
  have_exec_ = true;
  exec_parallel_ = report.parallel;
  exec_lps_ = report.lps;
  exec_threads_ = report.threads;
  exec_lookahead_ = report.lookahead;
  exec_windows_ = report.engine.windows;
  exec_events_ = report.engine.events;
  exec_cross_ = report.engine.cross_messages;
  exec_past_clamped_ = report.engine.past_clamped;
  exec_la_violations_ = report.engine.lookahead_violations;
  lp_events_ = report.lp_events;
  exec_imbalance_ = report.imbalance();
  exec_fallback_ = report.fallback_reason;
  if (events_ == 0) events_ = exec_events_;
}

double EngineProfiler::wall_seconds() const {
  const auto end = running_ ? Clock::now() : wall_stop_;
  return std::chrono::duration<double>(end - wall_start_).count();
}

double EngineProfiler::events_per_sec() const {
  const double w = wall_seconds();
  return w > 0 ? static_cast<double>(events_) / w : 0.0;
}

namespace {
Json acc_json(const stats::Accumulator& a) {
  Json j = Json::object();
  j.set("count", a.count());
  j.set("mean", a.mean());
  j.set("min", a.min());
  j.set("max", a.max());
  j.set("stddev", a.stddev());
  return j;
}
}  // namespace

Json EngineProfiler::to_json() const {
  Json out = Json::object();
  out.set("wall_s", wall_seconds());
  out.set("events", events_);
  out.set("events_per_sec", events_per_sec());
  out.set("last_event_time_s", last_event_time_);
  out.set("queue_sample_stride", applied_stride_);
  if (push_ns_.count() > 0) out.set("queue_push_ns", acc_json(push_ns_));
  if (pop_ns_.count() > 0) out.set("queue_pop_ns", acc_json(pop_ns_));
  if (pending_.count() > 0) out.set("pending_depth", acc_json(pending_));
  if (have_engine_) {
    Json eng = Json::object();
    if (queue_name_) eng.set("queue", queue_name_);
    eng.set("scheduled", engine_stats_.scheduled);
    eng.set("executed", engine_stats_.executed);
    eng.set("cancelled", engine_stats_.cancelled);
    eng.set("past_clamped", engine_stats_.past_clamped);
    out.set("engine", std::move(eng));
  }
  if (have_exec_) {
    Json ex = Json::object();
    ex.set("parallel", exec_parallel_);
    if (!exec_fallback_.empty()) ex.set("fallback_reason", exec_fallback_);
    ex.set("lps", exec_lps_);
    ex.set("threads", exec_threads_);
    ex.set("lookahead_s", exec_lookahead_);
    ex.set("windows", exec_windows_);
    ex.set("events", exec_events_);
    ex.set("cross_messages", exec_cross_);
    ex.set("past_clamped", exec_past_clamped_);
    ex.set("lookahead_violations", exec_la_violations_);
    // Window occupancy: how many events each LP executes per synchronization
    // window — the grain-size indicator of conservative parallel execution.
    if (exec_windows_ > 0) {
      ex.set("events_per_window",
             static_cast<double>(exec_events_) / static_cast<double>(exec_windows_));
      Json occ = Json::object();
      occ.set("mean", lp_events_.mean() / static_cast<double>(exec_windows_));
      occ.set("min", lp_events_.min() / static_cast<double>(exec_windows_));
      occ.set("max", lp_events_.max() / static_cast<double>(exec_windows_));
      ex.set("lp_window_occupancy", std::move(occ));
    }
    ex.set("per_lp_events", acc_json(lp_events_));
    ex.set("imbalance", exec_imbalance_);
    out.set("execution", std::move(ex));
  }
  return out;
}

}  // namespace lsds::obs
