#include "core/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace lsds::core {

std::optional<std::string> TraceEvent::attr(const std::string& key) const {
  for (const auto& [k, v] : attrs) {
    if (k == key) return v;
  }
  return std::nullopt;
}

namespace {
// An attribute read through `parse`: `def` when absent, else the parsed
// value; a value that does not parse is an error naming the key and value.
double attr_value(const TraceEvent& ev, const std::string& key, double def, const char* what,
                  bool (*parse)(std::string_view, double&)) {
  const auto v = ev.attr(key);
  if (!v) return def;
  double out = 0;
  if (!parse(*v, out)) {
    throw std::runtime_error(util::strformat("trace: %s event: %s=%s is not a %s", ev.kind.c_str(),
                                             key.c_str(), v->c_str(), what));
  }
  return out;
}
}  // namespace

double TraceEvent::num(const std::string& key, double def) const {
  return attr_value(*this, key, def, "number", util::parse_double);
}

double TraceEvent::size(const std::string& key, double def_bytes) const {
  return attr_value(*this, key, def_bytes, "size", util::parse_size);
}

double TraceEvent::rate(const std::string& key, double def) const {
  return attr_value(*this, key, def, "rate", util::parse_rate);
}

std::vector<TraceEvent> TraceReader::parse(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string_view trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    const auto fields = util::split_ws(trimmed);
    if (fields.size() < 2) {
      throw std::runtime_error(
          util::strformat("trace: line %zu: expected '<time> <kind> ...'", lineno));
    }
    TraceEvent ev;
    if (!util::parse_double(fields[0], ev.time) || !std::isfinite(ev.time)) {
      throw std::runtime_error(util::strformat("trace: line %zu: bad timestamp '%s'", lineno,
                                               fields[0].c_str()));
    }
    ev.kind = fields[1];
    for (std::size_t i = 2; i < fields.size(); ++i) {
      const size_t eq = fields[i].find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error(util::strformat("trace: line %zu: expected key=value, got '%s'",
                                                 lineno, fields[i].c_str()));
      }
      ev.attrs.emplace_back(fields[i].substr(0, eq), fields[i].substr(eq + 1));
    }
    events.push_back(std::move(ev));
  }
  return events;
}

std::vector<TraceEvent> TraceReader::parse_text(const std::string& text) {
  std::istringstream in(text);
  return parse(in);
}

std::vector<TraceEvent> TraceReader::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("trace: cannot open " + path);
  return parse(f);
}

void TraceWriter::write(const TraceEvent& ev) {
  out_ << util::strformat("%.9g %s", ev.time, ev.kind.c_str());
  for (const auto& [k, v] : ev.attrs) out_ << ' ' << k << '=' << v;
  out_ << '\n';
}

void TraceWriter::write_comment(const std::string& text) { out_ << "# " << text << '\n'; }

TraceDriver::TraceDriver(Engine& engine, std::vector<TraceEvent> events, Dispatch dispatch)
    : engine_(engine), events_(std::move(events)), dispatch_(std::move(dispatch)) {
  if (!std::is_sorted(events_.begin(), events_.end(),
                      [](const TraceEvent& a, const TraceEvent& b) { return a.time < b.time; })) {
    throw std::runtime_error("trace: events must be sorted by time");
  }
}

void TraceDriver::arm() {
  for (const TraceEvent& ev : events_) {
    engine_.schedule_at(ev.time, [this, &ev] { dispatch_(ev); });
  }
}

}  // namespace lsds::core
