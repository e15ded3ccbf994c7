// MONARC-style LHC tier model on ParallelGrid — the parallel execution
// opt-in for the monarc facade.
//
// Same study as sim/monarc (T0 production, replication agents pushing every
// raw file to each T1, analysis activities at T1 and optionally T2), on the
// platform monarc::add_tier_sites lays out, but built callback-style on
// hosts::ParallelGrid so T0, the T1 regional centers and their T2 children
// are partitioned across LPs and every replication transfer and analysis
// dispatch crosses partitions through the deterministic cross-LP message
// path.
//
// The model declares its channels (hosts::ParallelGrid::channel): T0 -> T1
// for replicas, T1 -> T2 for availability notices and files, T2 -> T1 for
// pull requests. The topology cut keeps each T1 with its T2s, so only the
// T0 -> T1 channels cross LPs and the LP graph is a star out of T0's LP.
// Nothing reaches T0, so its LP runs the whole production in the first
// round; the other LPs then run to the end in the second. On the 64-site
// tier on 4 LPs that is 2 rounds and one cross-LP message per replica
// shipped to another LP's T1 (2,100 at 300 files).
//
// The study logic stays separate from sim/monarc's on purpose: the serial
// study draws its submit times at setup and each job's demand when the job
// starts, from engine streams, and moves files over max-min flows; this
// model pre-draws both, interleaved, from master-seed streams and moves
// files over analytic store-and-forward channels. One implementation could
// keep only one of the two models' pinned results.
//
// All randomness (submit jitter, job service demands, the T2 file subsets)
// is drawn at setup time from streams derived only from the master seed —
// never from per-LP streams — so a given seed produces bit-identical
// results for ANY (lps, threads, partition) choice, including the serial
// reference (exec.parallel = false). tests/parallel_grid_test.cpp holds the
// model to that.
//
// Unsupported relative to the serial facade (request either and run_tier
// throws):
//   * failure injection — chaos needs the serial engine's global injector;
//   * max-min storage — files are stored instantly and moved over analytic
//     channels, so the only max-min device the model would drive is the T0
//     tape write, and the run would report the FIFO experiment's results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hosts/parallel_grid.hpp"
#include "sim/monarc/monarc.hpp"
#include "stats/summary.hpp"

namespace lsds::obs {
class RunReport;
}

namespace lsds::sim::parallel {

/// One completed analysis job (T1 or T2).
struct JobRecord {
  std::uint64_t id = 0;
  std::uint32_t site = 0;   // executing site
  double submit = 0;        // activity submit time
  double completion = 0;
  double ops = 0;
};

/// One delivered replica.
struct TransferRecord {
  std::uint64_t file = 0;
  std::uint32_t dst_site = 0;
  double produced_at = 0;
  double arrival = 0;
};

struct TierResult {
  std::uint64_t files_produced = 0;
  std::uint64_t replicas_delivered = 0;
  std::uint64_t files_archived = 0;
  /// Deterministically ordered (file, dst) / job-id records — the payload
  /// the differential determinism suite compares across LP counts.
  std::vector<TransferRecord> transfers;
  std::vector<JobRecord> jobs;
  /// Per ordered site pair (from, to, bytes) — transfer byte accounting.
  std::vector<std::tuple<hosts::SiteId, hosts::SiteId, double>> channel_bytes;
  stats::SampleSet replication_lag;
  stats::SampleSet analysis_delays;
  stats::SampleSet t2_delays;
  double backlog_at_production_end = 0;
  double makespan = 0;
  hosts::ExecutionReport exec;

  /// Canonical text serialization of every record (%.17g timestamps). Two
  /// runs are equivalent iff their traces are byte-identical — used by the
  /// parallel-run-twice and serial-vs-parallel checks.
  std::string trace() const;

  /// Fill the report's "result" section (shared names; bytes_moved sums
  /// channel_bytes) and the "execution" footprint.
  void to_report(obs::RunReport& report) const;
};

/// Throws util::ConfigError naming the keys when cfg requests what the tier
/// model does not model (max-min storage, failure injection).
void check_supported(const monarc::Config& cfg);

/// Run the tier model under the given execution spec; calls
/// check_supported(cfg) first.
TierResult run_tier(const monarc::Config& cfg, const hosts::ExecutionSpec& exec);

}  // namespace lsds::sim::parallel

namespace lsds::sim::monarc {
/// Parallel-execution opt-in for the MONARC facade ([execution] section in
/// scenario files): the tier study partitioned across LPs.
inline parallel::TierResult run_parallel(const Config& cfg, const hosts::ExecutionSpec& exec) {
  return parallel::run_tier(cfg, exec);
}
}  // namespace lsds::sim::monarc
