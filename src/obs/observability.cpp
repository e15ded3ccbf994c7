#include "obs/observability.hpp"

#include <string>
#include <utility>

#include "core/parallel.hpp"
#include "obs/report.hpp"
#include "util/ini.hpp"
#include "util/strings.hpp"

namespace lsds::obs {

Options parse_options(const util::IniConfig& ini) {
  Options o;
  o.enabled = ini.get_bool("observability", "enabled", false);
  o.report_path = ini.get_string("observability", "report", "");
  o.trace_path = ini.get_string("observability", "trace", "");
  o.sample_interval = ini.get_duration("observability", "sample_interval", 1.0);
  if (!(o.sample_interval > 0)) {
    throw util::ConfigError(
        util::strformat("[observability] sample_interval must be > 0 (got %g)", o.sample_interval));
  }
  o.trace_events = ini.get_bool("observability", "trace_events", false);
  return o;
}

namespace {
constexpr const char* kPendingGauge = "engine.pending_events";
constexpr const char* kProcessesGauge = "engine.live_processes";
}  // namespace

Observability::Observability(Options opts)
    : opts_(std::move(opts)), metrics_(opts_.sample_interval) {
  if (!opts_.enabled) return;
  if (!opts_.trace_path.empty()) sink_ = std::make_unique<TraceSink>(opts_.trace_path);
  SpanBus::global().subscribe([this](const Span& s) { on_span(s); });
  bus_subscribed_ = true;
}

Observability::~Observability() {
  if (bus_subscribed_) SpanBus::global().reset();
  detach();
}

void Observability::detach() {
  if (!engine_) return;
  engine_->set_probe(nullptr);
  metrics_.drop_gauge(kPendingGauge);
  metrics_.drop_gauge(kProcessesGauge);
  engine_ = nullptr;
}

void Observability::attach(core::Engine& engine) {
  if (!opts_.enabled) return;
  engine_ = &engine;
  engine.set_probe(this);
  metrics_.gauge(kPendingGauge, [&engine] { return static_cast<double>(engine.pending()); });
  metrics_.gauge(kProcessesGauge, [&engine] {
    return static_cast<double>(engine.live_processes());
  });
  profiler_.start();
}

void Observability::on_span(const Span& s) {
  // Standard span-derived instruments: per-kind completion counters, moved
  // quantities and duration timers. Feeds both serial and parallel runs
  // (LP threads publish concurrently; the registry and sink are locked).
  const int lp = core::ParallelEngine::running_lp();
  {
    const auto lock = metrics_.lock();
    const std::size_t i = span_slot(s);
    if (lp < 0) {
      const SpanSlot& slot = span_slots_[i];
      *slot.count += 1;
      if (slot.quantity) *slot.quantity += s.quantity;
      slot.duration->add(s.t1 - s.t0);
    } else {
      // An LP's own spans arrive in its deterministic event order.
      if (lp_spans_.size() <= static_cast<std::size_t>(lp)) lp_spans_.resize(lp + 1);
      auto& row = lp_spans_[lp];
      if (row.size() <= i) row.resize(i + 1);
      SpanPartial& part = row[i];
      part.count += 1;
      part.quantity += s.quantity;
      part.duration.add(s.t1 - s.t0);
    }
  }
  if (sink_) sink_->record_span(s, lp);
}

void Observability::fold_lp_spans() {
  const auto lock = metrics_.lock();
  for (const auto& row : lp_spans_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      const SpanSlot& slot = span_slots_[i];
      const SpanPartial& part = row[i];
      *slot.count += part.count;
      if (slot.quantity) *slot.quantity += part.quantity;
      slot.duration->merge(part.duration);
    }
  }
  lp_spans_.clear();
}

std::size_t Observability::span_slot(const Span& s) {
  for (std::size_t i = 0; i < span_slots_.size(); ++i) {
    if (span_slots_[i].kind == s.kind && span_slots_[i].status == s.status) return i;
  }
  const std::string kind(s.kind);
  SpanSlot slot{kind, s.status, &metrics_.counter_ref("span." + kind + "." + s.status), nullptr,
                &metrics_.timer_ref("span." + kind + ".duration_s")};
  if (kind == "flow") {
    slot.quantity = &metrics_.counter_ref("net.bytes_moved");
  } else if (kind == "job") {
    slot.quantity = &metrics_.counter_ref("cpu.ops_done");
  }
  span_slots_.push_back(std::move(slot));
  return span_slots_.size() - 1;
}

void Observability::on_event(core::SimTime t, core::EventId seq) {
  metrics_.advance(t);
  profiler_.on_event(t, seq);
  if (opts_.trace_events && sink_) sink_->record_event(t, seq);
}

void Observability::on_queue_push(std::uint64_t ns, std::size_t pending) {
  profiler_.on_queue_push(ns, pending);
}

void Observability::on_queue_pop(std::uint64_t ns) { profiler_.on_queue_pop(ns); }

void Observability::finalize(core::Engine& engine, RunReport& report) {
  if (!opts_.enabled) return;
  profiler_.ingest(engine);
  finalize(report, engine.now());
}

void Observability::finalize(RunReport& report, double t_end) {
  if (!opts_.enabled) return;
  profiler_.stop();
  fold_lp_spans();
  metrics_.sample(t_end);  // closing sample so every series reaches the horizon
  report.add_metrics(metrics_, t_end);
  report.add_profiler(profiler_);
  if (sink_) {
    sink_->append_lp_lines();
    sink_->flush();
    Json t = Json::object();
    t.set("path", sink_->path());
    t.set("records", sink_->records());
    report.root().set("trace", std::move(t));
  }
}

std::string Observability::report_path(const std::string& facade) const {
  return opts_.report_path.empty() ? "RUN_" + facade + ".json" : opts_.report_path;
}

}  // namespace lsds::obs
