// OptorSim facade: Data Grid with pull-model replica optimization.
//
// "Given a Grid topology and resources, a set of jobs to be executed and an
// optimization strategy as input, OptorSim runs a number of Grid jobs on
// the simulated Grid. It provides a set of measurements which can be used
// to quantify the effectiveness of the optimization strategy."
//
// Sites sit around a hub; all master files start pinned at site 0 (the
// "CERN" storage element). Jobs run at the other sites, read their input
// files (locally when a replica exists, otherwise streamed from the closest
// replica), and the site's replication strategy decides — pull model —
// whether to cache a local replica and what to evict. Experiment E6 sweeps
// strategies and Zipf skew.
#pragma once

#include <cstdint>

#include "apps/workload.hpp"
#include "core/engine.hpp"
#include "hosts/storage.hpp"
#include "middleware/failures.hpp"
#include "net/flow.hpp"
#include "middleware/replication.hpp"
#include "stats/summary.hpp"

namespace lsds::obs {
class RunReport;
}

namespace lsds::sim::optorsim {

struct Config {
  std::size_t num_sites = 6;  // compute sites (excluding the master store)
  unsigned cores_per_site = 2;
  double cpu_speed = 1000;
  /// Per-site cache capacity as a fraction of the total dataset size.
  double cache_fraction = 0.2;
  double disk_bw = 200e6;

  double site_bw = 125e6;  // site <-> hub
  double site_latency = 0.01;

  /// Hierarchical platform: 0 or 1 = the classic flat hub star; >= 2 = that
  /// many StarZone subtrees composed by a net::ZoneTree backbone, sites
  /// dealt round-robin across subtrees (site i -> zone i % zones). Replica
  /// placement then becomes zone-aware: same-subtree replicas rank strictly
  /// ahead, ties broken deterministically by site id.
  std::size_t zones = 0;
  double zone_backbone_bw = 1.25e9;
  double zone_backbone_latency = 0.05;

  /// Storage contention model for every site (`[storage] sharing` INI key):
  /// kFifo busy-until heads, or kMaxMin heads solved jointly with the links
  /// — remote reads then contend with the source SE's local disk traffic,
  /// and the replica optimizer ranks sources by live storage access delay.
  hosts::StorageSharing storage_sharing = hosts::StorageSharing::kFifo;

  apps::DataGridWorkloadSpec workload;
  middleware::ReplicationPolicy policy = middleware::ReplicationPolicy::kLru;

  /// Optional chaos: fail-resume outages on every site CPU and link.
  middleware::FailureSpec failures;
};

struct Result {
  std::uint64_t jobs = 0;
  double makespan = 0;
  stats::SampleSet job_times;      // dispatch -> completion
  std::uint64_t local_reads = 0;   // input found on the local SE
  std::uint64_t remote_reads = 0;  // streamed from another site
  std::uint64_t replications = 0;  // local replicas created
  std::uint64_t evictions = 0;
  double network_bytes = 0;        // total bytes moved between sites

  double local_hit_ratio() const {
    const auto total = local_reads + remote_reads;
    return total ? static_cast<double>(local_reads) / static_cast<double>(total) : 0.0;
  }
  double mean_job_time() const { return job_times.mean(); }

  /// Fill the report's "result" section (shared names + replica-optimizer
  /// extras).
  void to_report(obs::RunReport& report) const;
};

Result run(core::Engine& engine, const Config& cfg);

}  // namespace lsds::sim::optorsim
