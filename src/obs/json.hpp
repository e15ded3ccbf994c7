// Minimal JSON document builder for observability outputs.
//
// The observability layer serializes run reports and trace records to JSON
// (the machine-readable side of the paper's *output analysis* axis). The
// framework deliberately carries no third-party JSON dependency; this is a
// small insertion-ordered value tree with a writer tuned for simulation
// output:
//
//   * integers print exactly (event counts must not become 1.2e+07);
//   * doubles print with the shortest representation that round-trips;
//   * non-finite doubles print as NaN / Infinity (Python-parseable, and
//     exactly what tools/check_run_report.py rejects — a NaN in a report is
//     a bug to surface, not to launder into null).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lsds::obs {

class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(std::int64_t i) : kind_(Kind::kInt), int_(i) {}
  Json(std::uint64_t u) : kind_(Kind::kInt), int_(static_cast<std::int64_t>(u)) {}
  Json(int i) : kind_(Kind::kInt), int_(i) {}
  Json(unsigned u) : kind_(Kind::kInt), int_(u) {}
  Json(double d) : kind_(Kind::kDouble), double_(d) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}

  static Json object() { Json j; j.kind_ = Kind::kObject; return j; }
  static Json array() { Json j; j.kind_ = Kind::kArray; return j; }

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kInt || kind_ == Kind::kDouble; }

  // --- object ---------------------------------------------------------------

  /// Set (or replace) a member. Converts a null value to an object first,
  /// so `report["metrics"]["counters"]` chains build nested structure.
  Json& set(const std::string& key, Json v);

  /// Get-or-create member (null when absent). Converts null *this to object.
  Json& operator[](const std::string& key);

  /// Lookup; nullptr when absent or not an object.
  const Json* find(const std::string& key) const;

  // --- array ----------------------------------------------------------------

  /// Append. Converts a null value to an array first.
  Json& push(Json v);

  // --- scalar access (for tests / validation) -------------------------------

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const { return int_; }
  double as_double() const { return kind_ == Kind::kInt ? static_cast<double>(int_) : double_; }
  const std::string& as_string() const { return str_; }
  const std::vector<std::pair<std::string, Json>>& members() const { return object_; }
  const std::vector<Json>& items() const { return array_; }

  /// Serialize. indent > 0 pretty-prints; 0 emits one line.
  std::string dump(int indent = 2) const;

  /// Write dump() and a newline to `path`. Throws std::runtime_error naming
  /// the path when the file cannot be written.
  void write_file(const std::string& path) const;

  /// Parse a JSON document produced by this writer (the distributed-campaign
  /// partial protocol round-trips through here). Accepts the writer's full
  /// dialect including the NaN / Infinity / -Infinity literals; integers
  /// without a fraction or exponent come back as kInt, everything else
  /// numeric as kDouble, so dump(parse(dump(x))) == dump(x). Throws
  /// std::runtime_error with a byte offset on malformed input, including
  /// arrays and objects nested deeper than kMaxDepth.
  static Json parse(std::string_view text);
  static constexpr int kMaxDepth = 256;

  /// Escape + quote a string per JSON rules (shared with the JSONL sink).
  static std::string quote(std::string_view s);
  /// Shortest round-tripping representation of a double (NaN/Infinity for
  /// non-finite values).
  static std::string number(double d);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0;
  std::string str_;
  std::vector<std::pair<std::string, Json>> object_;  // insertion-ordered
  std::vector<Json> array_;
};

}  // namespace lsds::obs
