// The `[execution]` scenario section: serial vs parallel model execution.
//
//   [execution]
//   mode = parallel          ; serial (default) | parallel
//   threads = 4
//   lps = 0                  ; 0 = one LP per thread
//   partition = metis-ish    ; metis-ish (topology-aware, default) | round-robin
//   lookahead = 0            ; optional override FLOOR (duration); 0 = derive
//                            ; from the topology (min cross-partition latency)
//
// The section configures hosts::ParallelGrid; the facade-specific models
// (tier_model.hpp, bag_model.hpp) run on top of it. When the derived
// lookahead is <= 0 the run falls back to serial with a logged reason —
// `describe()` prints it.
#pragma once

#include <string>

#include "hosts/parallel_grid.hpp"
#include "util/ini.hpp"

namespace lsds::sim::parallel {

/// Parse the `[execution]` section. `seed` and `queue` come from the
/// `[scenario]` section (one source of truth for determinism knobs).
/// Throws util::ConfigError for threads < 1 or lps < 0.
hosts::ExecutionSpec parse_execution(const util::IniConfig& ini, std::uint64_t seed,
                                     core::QueueKind queue);

/// One-paragraph human-readable execution report: mode, LPs/threads,
/// partition scheme, effective lookahead, window/message counters, inline
/// windows and barrier wait, and the per-LP load balance rolled up from
/// Stats::per_lp_events.
std::string describe(const hosts::ExecutionReport& rep);

}  // namespace lsds::sim::parallel
