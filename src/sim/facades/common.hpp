// Shared INI parsing for the facade adapters (src/sim/facades/*_facade.cpp):
// the [scenario] determinism knobs, the [failures] chaos section and the
// [execution] spec — one parser each, so every facade reads them the same
// way.
#pragma once

#include <string>

#include "core/engine.hpp"
#include "hosts/parallel_grid.hpp"
#include "middleware/failures.hpp"
#include "util/ini.hpp"

namespace lsds::sim::facades {

/// A rate or size that must be positive: throws ConfigError
/// "[section] key must be > 0 (got v)" for zero, negative and NaN values
/// and "... must be finite (got inf)" for infinities.
double get_positive(const util::IniConfig& ini, const char* section, const char* key, double def);

/// A size, cost, budget or latency that may be 0: throws ConfigError
/// "[section] key must be finite and >= 0 (got v)" for negative, NaN and
/// infinite values.
double get_non_negative(const util::IniConfig& ini, const char* section, const char* key,
                        double def);

/// A probability or fraction: throws ConfigError
/// "[section] key must be in [0, 1] (got v)" outside [0, 1] and for NaN.
double get_probability(const util::IniConfig& ini, const char* section, const char* key,
                       double def);

// These three and the IniConfig getters are the facades' only number
// readers: no facade but common.cpp calls the unchecked get_double
// (facade_registry_test scans the sources).

/// `[scenario] queue =` sorted | heap | splay | calendar | ladder.
core::QueueKind parse_queue(const std::string& s);

/// `[failures]` section: mtbf, mttr, semantics (resume|stop), weibull_shape,
/// horizon, links — plus policy knobs consumed by the chaos facade. The
/// section's presence (an `mtbf` key or `enabled = true`) turns chaos on.
middleware::FailureSpec parse_failures(const util::IniConfig& ini);

/// The data-grid facades model transparent outages only; fail-stop recovery
/// needs the chaos facade's FaultTolerantScheduler. Throws on
/// `semantics = stop`.
middleware::FailureSpec parse_resume_failures(const util::IniConfig& ini);

/// Parse the [execution] section and `[scenario] queue`. The seed is left
/// for the study to take from its engine, so every campaign replication of
/// a parallel-mode scenario runs its own substream.
hosts::ExecutionSpec parse_exec_spec(const util::IniConfig& ini);

/// `[storage]` section: `sharing = fifo|maxmin` selects the contention
/// model for every storage device of the scenario's sites. fifo (default)
/// is the busy-until head, byte-identical to the pre-storage-resource
/// framework; maxmin registers the heads as solver capacity resources so
/// disk and link constraints are solved jointly.
hosts::StorageSharing parse_storage(const util::IniConfig& ini);

/// Match `value` against an enum's candidate list by its to_string name,
/// assigning `out` on a hit; otherwise throw ConfigError naming the bad
/// value and the accepted set: "unknown <what>: v (a|b|c)".
template <typename Enum, typename Candidates>
void parse_enum(const char* what, const std::string& value, const Candidates& candidates,
                Enum& out) {
  std::string accepted;
  for (auto cand : candidates) {
    if (value == to_string(cand)) {
      out = cand;
      return;
    }
    if (!accepted.empty()) accepted += "|";
    accepted += to_string(cand);
  }
  throw util::ConfigError("unknown " + std::string(what) + ": " + value + " (" + accepted + ")");
}

}  // namespace lsds::sim::facades
