// ChicagoSim facade: scheduling strategies in conjunction with data
// location, with push-model replication.
//
// "ChicagoSim … is designed to investigate scheduling strategies in
// conjunction with data location. Its architecture includes a configurable
// number of schedulers rather than one Resource Broker … It also allows for
// data replication but with a 'push' model in which, when a site contains a
// popular data file, it will replicate it to remote sites, rather than the
// 'pull' model used in OptorSim."
//
// Following Ranganathan & Foster's ChicagoSim studies, the facade crosses
// *external scheduler* policies (where does a job run?) with *dataset
// scheduler* policies (how do replicas move?):
//
//   JobPolicy:  kRandom | kLeastLoaded | kDataPresent (run where the data
//               is) | kLocal (run at the submitting site)
//   DataPolicy: kNone (always stream remotely) | kCache (replicate on first
//               use — pull) | kPush (popularity-triggered proactive push to
//               the k least-loaded other sites)
#pragma once

#include <cstdint>

#include "apps/workload.hpp"
#include "core/engine.hpp"
#include "hosts/storage.hpp"
#include "middleware/failures.hpp"
#include "stats/summary.hpp"

namespace lsds::obs {
class RunReport;
}

namespace lsds::sim::chicsim {

enum class JobPolicy { kRandom, kLeastLoaded, kDataPresent, kLocal };
enum class DataPolicy { kNone, kCache, kPush };

const char* to_string(JobPolicy p);
const char* to_string(DataPolicy p);

inline constexpr JobPolicy kAllJobPolicies[] = {JobPolicy::kRandom, JobPolicy::kLeastLoaded,
                                                JobPolicy::kDataPresent, JobPolicy::kLocal};
inline constexpr DataPolicy kAllDataPolicies[] = {DataPolicy::kNone, DataPolicy::kCache,
                                                  DataPolicy::kPush};

struct Config {
  std::size_t num_sites = 6;
  unsigned processors_per_site = 4;  // "each site has a certain number of
                                     // processors of equal capacity"
  double cpu_speed = 1000;
  double storage_fraction = 0.25;  // of total dataset, per site ("limited storage")
  double disk_bw = 200e6;
  double site_bw = 125e6;
  double site_latency = 0.01;
  /// Storage contention model for every site (`[storage] sharing`).
  hosts::StorageSharing storage_sharing = hosts::StorageSharing::kFifo;

  apps::DataGridWorkloadSpec workload;
  JobPolicy job_policy = JobPolicy::kDataPresent;
  DataPolicy data_policy = DataPolicy::kCache;
  /// "Its architecture includes a configurable number of schedulers rather
  /// than one Resource Broker": sites are partitioned round-robin among
  /// `num_schedulers` external schedulers; a job submitted at a site is
  /// handled by that site's scheduler, which can only dispatch within its
  /// own partition (decentralized decisions interfere instead of
  /// coordinating — the phenomenon the multi-scheduler design studies).
  std::size_t num_schedulers = 1;
  /// kPush: push a replica after every `push_threshold` accesses of a file,
  /// to the `push_fanout` least-loaded other sites.
  std::uint32_t push_threshold = 5;
  std::size_t push_fanout = 2;

  /// Optional chaos: fail-resume outages on every site CPU and link.
  middleware::FailureSpec failures;
};

struct Result {
  std::uint64_t jobs = 0;
  double makespan = 0;
  stats::SampleSet response_times;  // submission -> completion
  std::uint64_t local_reads = 0;
  std::uint64_t remote_reads = 0;
  std::uint64_t replications = 0;  // pull-cached + pushed
  std::uint64_t pushes = 0;
  double network_bytes = 0;

  double locality() const {
    const auto total = local_reads + remote_reads;
    return total ? static_cast<double>(local_reads) / static_cast<double>(total) : 0.0;
  }

  /// Fill the report's "result" section (shared names + data-location
  /// extras).
  void to_report(obs::RunReport& report) const;
};

Result run(core::Engine& engine, const Config& cfg);

}  // namespace lsds::sim::chicsim
