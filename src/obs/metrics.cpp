#include "obs/metrics.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "obs/json.hpp"

namespace lsds::obs {

MetricsRegistry::MetricsRegistry(double sample_interval) : sample_interval_(sample_interval) {
  if (!(sample_interval > 0) || !std::isfinite(sample_interval)) {
    throw std::invalid_argument("metrics: sample interval must be a positive duration (got " +
                                std::to_string(sample_interval) + ")");
  }
}

double& MetricsRegistry::counter_ref(const std::string& name) {
  const auto [it, created] = counters_.try_emplace(name, 0.0);
  if (created) sampled_counters_.push_back({&it->second, &series_[name]});
  return it->second;
}

stats::Accumulator& MetricsRegistry::timer_ref(const std::string& name) { return timers_[name]; }

void MetricsRegistry::bump(const std::string& name, double amount) {
  const auto guard = lock();
  counter_ref(name) += amount;
}

double MetricsRegistry::counter(const std::string& name) const {
  const auto guard = lock();
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

void MetricsRegistry::gauge(const std::string& name, GaugeFn pull) {
  const auto guard = lock();
  for (Gauge& g : gauges_) {
    if (g.name == name) {
      g.pull = std::move(pull);
      return;
    }
  }
  gauges_.push_back({name, std::move(pull), &series_[name]});
}

void MetricsRegistry::drop_gauge(const std::string& name) {
  const auto guard = lock();
  std::erase_if(gauges_, [&](const Gauge& g) { return g.name == name; });
}

void MetricsRegistry::time(const std::string& name, double seconds) {
  const auto guard = lock();
  timer_ref(name).add(seconds);
}

void MetricsRegistry::sample(double t) {
  const auto guard = lock();
  for (const Gauge& g : gauges_) g.series->record(t, g.pull());
  for (const SampledCounter& c : sampled_counters_) c.series->record(t, *c.value);
}

void MetricsRegistry::advance_slow(double t) {
  // Sample once at the last crossed boundary: the instruments are
  // piecewise-constant state pulled "now", so intermediate boundaries in a
  // sparse stretch of virtual time would only repeat the same values.
  const double boundary = std::floor(t / sample_interval_) * sample_interval_;
  sample(boundary);
  next_sample_ = boundary + sample_interval_;
}

Json MetricsRegistry::to_json(double t_end) const {
  const auto guard = lock();
  Json out = Json::object();
  out.set("sample_interval_s", sample_interval_);
  Json& counters = out["counters"];
  counters = Json::object();
  for (const auto& [name, value] : counters_) counters.set(name, value);
  Json& timers = out["timers"];
  timers = Json::object();
  for (const auto& [name, acc] : timers_) {
    Json t = Json::object();
    t.set("count", acc.count());
    t.set("mean_s", acc.mean());
    t.set("min_s", acc.min());
    t.set("max_s", acc.max());
    t.set("stddev_s", acc.stddev());
    timers.set(name, std::move(t));
  }
  Json& series = out["series"];
  series = Json::object();
  for (const auto& [name, ts] : series_) {
    if (ts.empty()) continue;  // instrument created since the last sample
    Json s = Json::object();
    s.set("samples", static_cast<std::uint64_t>(ts.size()));
    const double last_t = ts.last_t();
    s.set("last_t", last_t);
    s.set("last", ts.last());
    s.set("max", ts.max_value());
    s.set("time_weighted_mean", ts.time_weighted_mean(t_end > last_t ? t_end : last_t));
    series.set(name, std::move(s));
  }
  return out;
}

}  // namespace lsds::obs
