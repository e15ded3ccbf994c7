// Facade registry: the one dispatch table from `[scenario] facade = <name>`
// to a runnable study.
//
// Each facade registers an Entry — a name and a parse function that reads
// every INI key the facade knows and returns the study, which holds its
// configuration by value and never touches the INI again. Callers parse,
// then call util::IniConfig::reject_unread(), then run: the keys the parse
// function asked for are the facade's key list, so a typo'd key fails with
// a near-miss suggestion before anything runs. The scenario runner
// resolves the facade by name instead of an if-chain, and an unknown name
// lists what IS registered.
//
// Registration is explicit (register_builtin_facades() calls one function
// per src/sim/facades/*_facade.cpp) rather than static-initializer magic:
// facades live in a static library, and a self-registering translation unit
// nothing references would be dead-stripped by the linker.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace lsds::core {
class Engine;
}
namespace lsds::util {
class IniConfig;
}
namespace lsds::obs {
class RunReport;
}

namespace lsds::sim {

class FacadeRegistry {
 public:
  /// A parsed study: run it on `engine`, filling the report's "result"
  /// (and, where it applies, "dependability" / "execution") sections.
  /// Returns a process exit code.
  using Study = std::function<int(core::Engine&, obs::RunReport&)>;
  /// Read the facade's keys from the scenario INI (throws
  /// util::ConfigError on a malformed value) and return its study.
  using ParseFn = std::function<Study(const util::IniConfig&)>;

  struct Entry {
    std::string name;
    ParseFn parse;
  };

  /// Throws std::invalid_argument when `e.name` is already registered.
  void add(Entry e);
  /// nullptr when unknown.
  const Entry* find(const std::string& name) const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;
  std::size_t size() const { return entries_.size(); }

  static FacadeRegistry& global();

 private:
  std::map<std::string, Entry> entries_;
};

// One registration function per facade adapter (src/sim/facades/).
void register_bricks_facade(FacadeRegistry& reg);
void register_optorsim_facade(FacadeRegistry& reg);
void register_monarc_facade(FacadeRegistry& reg);
void register_gridsim_facade(FacadeRegistry& reg);
void register_chicsim_facade(FacadeRegistry& reg);
void register_simg_facade(FacadeRegistry& reg);
void register_chaos_facade(FacadeRegistry& reg);
void register_explore_facade(FacadeRegistry& reg);
void register_platform_facade(FacadeRegistry& reg);
void register_p2p_facade(FacadeRegistry& reg);

/// Register every built-in facade into the global registry. Idempotent.
void register_builtin_facades();

}  // namespace lsds::sim
