// Trace-driven DES input.
//
// "A trace-driven DES proceeds by reading in a set of events that are
// collected independently from another environment and are suitable for
// modeling a system that has executed before in another environment."
// (Section 3.) MONARC 2, for instance, accepts monitoring data produced by
// MonALISA next to synthetic generators.
//
// Trace format — one event per line:
//
//   # comment
//   <time> <kind> [key=value]...
//   12.5 job_arrival site=T1_FR cpu=1500 input=2GB
//
// TraceReader/TraceWriter round-trip this format; TraceDriver schedules each
// trace event into an Engine and hands it to a model-defined dispatcher.
#pragma once

#include <cstddef>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"

namespace lsds::core {

struct TraceEvent {
  SimTime time = 0;
  std::string kind;
  std::vector<std::pair<std::string, std::string>> attrs;

  /// Attribute lookup; returns std::nullopt when absent.
  std::optional<std::string> attr(const std::string& key) const;
  /// Numeric attribute; `def` when absent. A present value that does not
  /// parse throws std::runtime_error naming the key and the value.
  double num(const std::string& key, double def) const;
  /// Unit-aware attribute lookups (sizes like "2GB", rates like "1Gbps"),
  /// with the same default and error rule as num().
  double size(const std::string& key, double def_bytes) const;
  double rate(const std::string& key, double def_bytes_per_sec) const;
};

class TraceReader {
 public:
  /// Parse a whole trace. Throws std::runtime_error on malformed lines,
  /// including a timestamp that is not a finite number.
  static std::vector<TraceEvent> parse(std::istream& in);
  static std::vector<TraceEvent> parse_text(const std::string& text);
  static std::vector<TraceEvent> load(const std::string& path);
};

class TraceWriter {
 public:
  explicit TraceWriter(std::ostream& out) : out_(out) {}
  void write(const TraceEvent& ev);
  void write_comment(const std::string& text);

 private:
  std::ostream& out_;
};

/// Feeds a trace into an engine: every trace event becomes one engine event
/// invoking `dispatch`. Events must be time-sorted (enforced).
class TraceDriver {
 public:
  using Dispatch = std::function<void(const TraceEvent&)>;

  TraceDriver(Engine& engine, std::vector<TraceEvent> events, Dispatch dispatch);

  /// Schedule every trace event. Call once before Engine::run().
  void arm();

  std::size_t count() const { return events_.size(); }

 private:
  Engine& engine_;
  std::vector<TraceEvent> events_;
  Dispatch dispatch_;
};

}  // namespace lsds::core
