// INI-style scenario configuration.
//
// Simulation scenarios (topologies, workloads, sweeps) are described in a
// small INI dialect:
//
//   [network]
//   t0_t1_link = 2.5Gbps      ; rates/sizes/durations parse via util/units
//   latency    = 15ms
//
//   [workload]
//   jobs = 1000
//
// Sections and keys are case-sensitive; `;` and `#` start comments; values
// may be quoted to preserve spaces. Typed getters return a default when the
// key is missing and throw lsds::util::ConfigError when present but
// malformed — a silent fallback on a typo'd "2.5Gbsp" would invalidate an
// entire experiment.
//
// The getters are also the only list of keys that exist: every getter call
// (get, get_string and the typed ones, absent keys included) records the
// (section, key) it asked for, and reject_unread() throws on any key the
// file sets that no code asked for. A typo'd key therefore fails instead of
// silently running the default. Because reads mutate that tracking state,
// an IniConfig must not be read from several threads at once; give each
// thread its own copy (copies carry the read marks along).
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace lsds::util {

class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class IniConfig {
 public:
  /// Parse from text. Throws ConfigError on syntax errors.
  static IniConfig parse(std::string_view text);

  /// Parse from a file. Throws ConfigError when unreadable.
  static IniConfig load(const std::string& path);

  /// has(), keys(), sections() and dump() record no read.
  bool has(const std::string& section, const std::string& key) const;

  /// Raw string lookup.
  std::optional<std::string> get(const std::string& section, const std::string& key) const;

  std::string get_string(const std::string& section, const std::string& key,
                         std::string def = "") const;
  double get_double(const std::string& section, const std::string& key, double def) const;
  long long get_int(const std::string& section, const std::string& key, long long def) const;
  /// A count: an integer that must be >= `min`. The range is checked before
  /// any cast, so `-3` fails as "[s] k must be >= 0 (got -3)" instead of
  /// wrapping into a huge std::size_t.
  std::size_t get_count(const std::string& section, const std::string& key, std::size_t def,
                        std::size_t min = 0) const;
  bool get_bool(const std::string& section, const std::string& key, bool def) const;

  /// Unit-aware getters (see util/units.hpp).
  double get_size(const std::string& section, const std::string& key, double def_bytes) const;
  double get_rate(const std::string& section, const std::string& key, double def_bps) const;
  double get_duration(const std::string& section, const std::string& key, double def_sec) const;

  /// All section names in file order.
  std::vector<std::string> sections() const;
  /// All keys of a section in file order.
  std::vector<std::string> keys(const std::string& section) const;

  /// Throw ConfigError on the first key, in file order, that is set but was
  /// never asked for by a getter, with a "did you mean" hint naming a key
  /// that was asked for in that section (edit distance <= 2). A section in
  /// which no key was ever asked for is reported as an unknown section.
  void reject_unread() const;

  /// Programmatic construction (used by tests and sweep drivers).
  void set(const std::string& section, const std::string& key, std::string value);

  /// Serialize back to INI text (sections and keys in file order, values
  /// quoted when they would not survive reparsing). parse(dump()) yields an
  /// equivalent config — the distributed campaign coordinator ships the
  /// scenario to worker processes through this. Throws ConfigError on a
  /// value containing '\n' or '\r': the line-based format cannot represent
  /// it, and emitting it anyway would silently alter the value on reparse.
  std::string dump() const;
  /// Write dump() to `path`. Throws ConfigError when the file cannot be
  /// written.
  void save(const std::string& path) const;

 private:
  const std::string* find(const std::string& section, const std::string& key) const;
  /// find() that records the read.
  const std::string* read(const std::string& section, const std::string& key) const;

  // (section, key) -> value; insertion order tracked separately.
  std::map<std::string, std::map<std::string, std::string>> values_;
  std::vector<std::string> section_order_;
  std::map<std::string, std::vector<std::string>> key_order_;
  // (section, key) pairs some getter asked for, present or not.
  mutable std::map<std::string, std::set<std::string>> read_;
};

}  // namespace lsds::util
