// Standard Workload Format (SWF) support.
//
// The Parallel Workloads Archive's SWF is the de-facto trace format for
// cluster/batch scheduling studies — exactly the "data sets collected by
// monitoring" input class of the taxonomy, for the batch-queue substrate.
// One job per line, 18 whitespace-separated fields; we consume the ones a
// rigid-job scheduler needs and preserve the rest:
//
//   1 job id | 2 submit time | 4 run time | 5 allocated processors |
//   8 requested processors | 9 requested (estimated) time
//
// Missing values are -1 by convention; the reader falls back sensibly
// (allocated <- requested, estimate <- runtime). Lines starting with ';'
// are header comments.
#pragma once

#include <string>
#include <vector>

#include "core/rng.hpp"
#include "middleware/batch_queue.hpp"

namespace lsds::apps {

struct SwfJob {
  middleware::BatchJob job;
  double submit_time = 0;
};

/// Parse SWF text. Jobs with non-positive runtime or fewer than one processor
/// are skipped (cancelled/failed entries), as is conventional. Throws
/// std::runtime_error on a line with fewer than 9 fields, a read field that is
/// not a finite number, or a job id or processor count out of range.
std::vector<SwfJob> parse_swf(const std::string& text);
std::vector<SwfJob> load_swf(const std::string& path);

/// Serialize to SWF (fields we model; others written as -1).
std::string to_swf(const std::vector<SwfJob>& jobs);

/// Synthetic SWF-shaped workload: exponential interarrivals and runtimes,
/// log-uniform power-of-two-ish widths up to `max_cores`, user estimates
/// padded by a uniform factor in [1, overestimate_factor].
std::vector<SwfJob> generate_swf_like(core::RngStream& rng, std::size_t n_jobs,
                                      double mean_interarrival, double mean_runtime,
                                      unsigned max_cores, double overestimate_factor = 3.0);

}  // namespace lsds::apps
