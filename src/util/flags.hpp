// Tiny CLI flag parser used by the example programs and bench drivers.
//
//   lsds::util::Flags flags(argc, argv);
//   const int jobs = flags.get_int("jobs", 1000);          // --jobs=1000
//   const bool verbose = flags.get_bool("verbose", false); // --verbose
//   auto rest = flags.positional();
//
//   flags.reject_unread();  // after the last read: a typo'd flag exits 1
//
// Values attach with '='; a bare --name is boolean true. This keeps the
// grammar unambiguous when boolean flags precede positional arguments.
//
// Every getter and has() records the name it asked for, so reject_unread()
// can refuse a flag the program never reads (`--fiels=3`) instead of
// silently running another experiment.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace lsds::util {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name, std::string def = "") const;
  long long get_int(const std::string& name, long long def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Unit-aware lookups (see util/units.hpp). Throw std::runtime_error on
  /// malformed values.
  double get_rate(const std::string& name, double def_bytes_per_sec) const;
  double get_size(const std::string& name, double def_bytes) const;
  double get_duration(const std::string& name, double def_sec) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Print "unknown flag --<name>" (with the nearest flag read, when one is
  /// within edit distance 2) for the first given flag that no getter or
  /// has() asked for, and exit 1. Call once every flag has been read.
  void reject_unread() const;

 private:
  /// The value of --name, recording that the program reads it.
  const std::string* find(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace lsds::util
