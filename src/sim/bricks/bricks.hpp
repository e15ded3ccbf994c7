// Bricks facade: the "central model".
//
// "Bricks was among the first simulation projects developed to investigate
// different resource scheduling issues … Bricks uses a model which the
// authors call the 'central model'. In this simulation model it is assumed
// that all the jobs are processed at a single site."
//
// Clients around a hub submit jobs to one central server complex: each job
// ships its input over the network, queues at the server's CPU farm under a
// scheduling scheme, computes, and returns its output. The facade measures
// the client-observed response time decomposition the Bricks papers report
// (network in, queue, service, network out).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "hosts/storage.hpp"
#include "middleware/failures.hpp"
#include "stats/summary.hpp"

namespace lsds::obs {
class RunReport;
}

namespace lsds::sim::bricks {

enum class ServerScheme {
  kFcfs,       // single FIFO queue over all server cores
  kTimeShared  // processor sharing across the farm
};

const char* to_string(ServerScheme s);

/// How a client picks among multiple servers (num_servers > 1) — the
/// scheduling-scheme dimension of the Bricks studies. kForecast selects by
/// NWS-style predicted queue length from *stale periodic samples*
/// (middleware/forecast.hpp), which is what a real global-computing
/// scheduler has; kLeastQueue is the instantaneous-knowledge oracle it
/// chases; kRandom/kRoundRobin are the blind baselines.
enum class ServerSelection { kRandom, kRoundRobin, kLeastQueue, kForecast };

const char* to_string(ServerSelection s);

struct Config {
  std::size_t num_clients = 8;
  std::size_t jobs_per_client = 20;
  double mean_interarrival = 10;  // per client, exponential
  double mean_ops = 2000;         // exponential job length
  double input_bytes = 10e6;
  double output_bytes = 1e6;

  unsigned server_cores = 4;
  double server_speed = 1000;  // ops/s per core
  ServerScheme scheme = ServerScheme::kFcfs;

  /// Global-computing extension: several server sites behind the hub.
  std::size_t num_servers = 1;
  ServerSelection selection = ServerSelection::kLeastQueue;
  /// Sampling period of the load monitor feeding kForecast.
  double monitor_period = 5.0;

  double client_bw = 12.5e6;  // 100 Mbps
  double client_latency = 0.02;
  double server_bw = 125e6;  // 1 Gbps
  double server_latency = 0.002;

  /// Optional chaos: fail-resume outages on every site CPU and link.
  middleware::FailureSpec failures;


  /// Storage contention model for server and client disks (`[storage]
  /// sharing`): kMaxMin makes request/response payload flows contend with
  /// endpoint disk heads inside the solver.
  hosts::StorageSharing storage_sharing = hosts::StorageSharing::kFifo;
};

struct Result {
  std::uint64_t jobs = 0;
  double makespan = 0;
  stats::SampleSet response_times;  // submit -> output received at client
  stats::SampleSet queue_waits;     // arrival at server -> compute start
  double server_utilization = 0;    // mean over servers, over the makespan
  double network_bytes = 0;
  std::vector<std::uint64_t> per_server;  // jobs executed per server

  /// Fill the report's "result" section (shared names: jobs_done /
  /// makespan / bytes_moved, then facade-specific extras).
  void to_report(obs::RunReport& report) const;
};

/// Run the scenario to completion on `engine` (seed/queue via engine config).
Result run(core::Engine& engine, const Config& cfg);

}  // namespace lsds::sim::bricks
