// The unified observability facade.
//
// One object bundles the whole layer — metrics registry, structured trace
// sink, engine profiler, span-bus subscription — behind the `[observability]`
// scenario section:
//
//   [observability]
//   enabled = true
//   report = RUN_monarc.json   ; RunReport path ("" -> RUN_<facade>.json)
//   trace = trace.jsonl        ; JSONL span/event trace ("" -> no trace file)
//   sample_interval = 1s       ; metric sampling cadence (simulated time)
//   trace_events = false       ; per-event records in the trace (high volume)
//
// Lifecycle: construct from Options, attach(engine) before the run,
// finalize(engine, report) after it. When disabled, attach/finalize are
// no-ops and the span bus stays unarmed, so models pay a single predictable
// branch per instrumentation point — the differential-determinism suite and
// the bench acceptance numbers hold with observability compiled in.
//
// The facade is also the span-bus subscriber: every substrate span feeds
// the trace sink (when a trace path is set) and the registry's standard
// counters/timers (flow.completed, job.done, span duration timers, ...).
// A span published inside a parallel LP window goes to that LP's partial
// instruments instead, and its trace line to that LP's sink buffer;
// finalize() folds the partials into the registry and writes the buffered
// lines, both in LP order. Floating-point sums depend on their order and
// the LP threads run in whatever order the host schedules them, so taking
// spans as they arrive would make a parallel report and its trace differ
// from run to run.
//
// Cheap enough to leave on: the engine times one queue push in every
// EngineProfiler::kQueueStride pushes (and one pop in as many pops), metric samples
// update pre-resolved series, and a span updates instruments resolved on
// the first span of its (kind, status).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/probe.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"

namespace lsds::util {
class IniConfig;
}

namespace lsds::obs {

class RunReport;

struct Options {
  bool enabled = false;
  std::string report_path;  // "" = derive RUN_<facade>.json
  std::string trace_path;   // "" = no JSONL trace
  double sample_interval = 1.0;
  bool trace_events = false;
};

/// Parse the `[observability]` section (absent section = disabled).
Options parse_options(const util::IniConfig& ini);

class Observability final : public core::EngineProbe {
 public:
  explicit Observability(Options opts);
  /// Detaches from the span bus and any attached engine.
  ~Observability() override;

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  bool enabled() const { return opts_.enabled; }
  const Options& options() const { return opts_; }

  MetricsRegistry& metrics() { return metrics_; }
  EngineProfiler& profiler() { return profiler_; }
  TraceSink* sink() { return sink_.get(); }

  /// Install the engine probe and the default engine gauges. No-op when
  /// disabled. The engine must outlive this object or be detached first.
  void attach(core::Engine& engine);

  /// Remove the probe and the engine gauges from the attached engine (if
  /// any); the gauge series recorded so far stay. Call before the engine is
  /// destroyed when it does not outlive this object.
  void detach();

  /// Stop the wall clock, take final samples, and populate the report's
  /// metrics + profiler sections. Safe to call when disabled (no-op).
  void finalize(core::Engine& engine, RunReport& report);
  /// Finalize without an engine (parallel runs own their engines).
  void finalize(RunReport& report, double t_end);

  /// Report path with the default applied ("RUN_<facade>.json").
  std::string report_path(const std::string& facade) const;

  // --- core::EngineProbe ----------------------------------------------------

  void on_event(core::SimTime t, core::EventId seq) override;
  void on_queue_push(std::uint64_t ns, std::size_t pending) override;
  void on_queue_pop(std::uint64_t ns) override;
  std::uint32_t queue_stride() const override { return profiler_.queue_stride(); }

 private:
  /// The instruments one (span kind, status) pair updates.
  struct SpanSlot {
    std::string kind;
    std::string status;
    double* count;
    double* quantity;  // nullptr: the kind moves no tracked quantity
    stats::Accumulator* duration;
  };
  /// One LP's share of a slot's instruments.
  struct SpanPartial {
    double count = 0;
    double quantity = 0;
    stats::Accumulator duration;
  };

  void on_span(const Span& s);
  /// Index of the slot for `s`, resolved on the first span of its kind and
  /// status. Caller holds the metrics lock.
  std::size_t span_slot(const Span& s);
  /// Fold the LP partials into the registry, LP by LP, and drop them.
  void fold_lp_spans();

  Options opts_;
  MetricsRegistry metrics_;
  EngineProfiler profiler_;
  std::unique_ptr<TraceSink> sink_;
  core::Engine* engine_ = nullptr;
  bool bus_subscribed_ = false;
  std::vector<SpanSlot> span_slots_;  // guarded by the metrics lock
  std::vector<std::vector<SpanPartial>> lp_spans_;  // [lp][slot]; metrics lock
};

}  // namespace lsds::obs
