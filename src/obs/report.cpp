#include "obs/report.hpp"

#include "core/engine.hpp"
#include "hosts/parallel_grid.hpp"
#include "net/partition.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "stats/dependability.hpp"
#include "util/ini.hpp"

namespace lsds::obs {

RunReport::RunReport() {
  root_ = Json::object();
  root_.set("schema", kRunReportSchema);
}

void RunReport::set_scenario(const std::string& facade, std::uint64_t seed,
                             const std::string& queue, const std::string& source_path) {
  Json s = Json::object();
  s.set("facade", facade);
  s.set("seed", seed);
  s.set("queue", queue);
  if (!source_path.empty()) s.set("source", source_path);
  root_.set("scenario", std::move(s));
}

void RunReport::echo_config(const util::IniConfig& ini) {
  Json cfg = Json::object();
  for (const auto& section : ini.sections()) {
    Json sec = Json::object();
    for (const auto& key : ini.keys(section)) {
      sec.set(key, ini.get_string(section, key));
    }
    cfg.set(section, std::move(sec));
  }
  root_.set("config", std::move(cfg));
}

void RunReport::add_metrics(const MetricsRegistry& metrics, double t_end) {
  root_.set("metrics", metrics.to_json(t_end));
}

void RunReport::add_profiler(const EngineProfiler& profiler) {
  root_.set("profiler", profiler.to_json());
}

void RunReport::add_dependability(const stats::DependabilityTracker& ledger, double horizon) {
  Json d = Json::object();
  d.set("jobs_completed", ledger.jobs_completed());
  d.set("jobs_lost", ledger.jobs_lost());
  d.set("useful_ops", ledger.useful_ops());
  d.set("wasted_ops", ledger.wasted_ops());
  d.set("overhead_ops", ledger.overhead_ops());
  d.set("goodput_ops_per_s", ledger.goodput(horizon));
  d.set("raw_throughput_ops_per_s", ledger.raw_throughput(horizon));
  d.set("waste_fraction", ledger.waste_fraction());
  d.set("mean_availability", ledger.mean_availability());
  d.set("mean_attempts", ledger.attempts().mean());
  Json avail = Json::object();
  for (const auto& [name, a] : ledger.availabilities()) avail.set(name, a);
  d.set("resource_availability", std::move(avail));
  root_.set("dependability", std::move(d));
}

void RunReport::add_execution(const hosts::ExecutionReport& report) {
  Json ex = Json::object();
  ex.set("parallel", report.parallel);
  if (!report.fallback_reason.empty()) ex.set("fallback_reason", report.fallback_reason);
  ex.set("lps", report.lps);
  ex.set("threads", report.threads);
  ex.set("partition", net::to_string(report.partition));
  ex.set("lookahead_s", report.lookahead);
  ex.set("windows", report.engine.windows);
  ex.set("inline_windows", report.engine.inline_windows);
  ex.set("barrier_wait_s", report.engine.barrier_wait_s);
  ex.set("events", report.engine.events);
  ex.set("cross_messages", report.engine.cross_messages);
  ex.set("past_clamped", report.engine.past_clamped);
  ex.set("imbalance", report.imbalance());
  root_.set("execution", std::move(ex));
}

void RunReport::set_result_core(std::uint64_t jobs_done, double makespan, double bytes_moved) {
  Json& r = result();
  r.set("jobs_done", jobs_done);
  r.set("makespan", makespan);
  r.set("bytes_moved", bytes_moved);
}

void RunReport::write(const std::string& path) const { root_.write_file(path); }

}  // namespace lsds::obs
