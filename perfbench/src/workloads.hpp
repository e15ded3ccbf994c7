// The four benchmark workloads (why each exists: WORKLOADS.md).
//
// Each call runs one workload once, in this process, through the
// simulator's public entry points, and returns one JSON record:
//
//   untraced: setup_s (3 samples of the horizon-cut set-up call), wall_s,
//             peak_rss_mb, fingerprint, checks
//   traced:   wall_s (an untraced run), traced_wall_s, raw per-layer
//             counts and times, spans, fingerprint, checks
//   both:     calib_s, the calibration kernel's wall just before and just
//             after the workload (tracing.hpp)
//
// The fingerprint is an ordered list of [field, value] pairs that covers
// model results only (never event counts); run.py compares it with the
// recorded reference. A check is a consistency condition that needs no
// reference (parallel == serial, report == engine); a false one fails the
// run. Ratios are derived by run.py, not here.
#pragma once

#include <cstdint>
#include <string>

#include "obs/json.hpp"

namespace perfbench {

struct RunContext {
  std::uint64_t seed = 0;
  /// Directory for files a workload writes (the observed RunReport).
  std::string tmp_dir;
};

/// Throws std::invalid_argument for an unknown workload name.
lsds::obs::Json run_workload(const std::string& name, bool traced, const RunContext& ctx);

}  // namespace perfbench
