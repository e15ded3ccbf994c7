// MONARC 2 facade: the tier model and the LHC T0/T1 replication study.
//
// "Its simulation model is based on the characteristics of the LHC physics
// experiments, and is organized in the form of a hierarchy of different
// sites that are grouped into levels called tiers … The experiment tested
// the behavior of the Tier architecture envisioned by the two largest LHC
// experiments, CMS and ATLAS. The obtained results indicated the role of
// using a data replication agent for the intelligent transferring of the
// produced data. The obtained results also showed that the existing
// capacity of 2.5 Gbps was not sufficient and, in fact, not far afterwards
// the link was upgraded to a current 30 Gbps." (Legrand et al. 2005)
//
// Model: T0 (CERN) runs a production activity that emits raw-data files at
// the experiment data rate; a *data replication agent* pushes every file to
// each T1 regional center over the T0-T1 links. T1s run analysis activities
// that consume replicated files (waiting for arrival when replication
// lags). Experiment E9 sweeps the T0-T1 link capacity and reports transfer
// backlog, replication lag, link utilization and analysis delays — the
// "2.5 Gbps insufficient / tens of Gbps comfortable" shape.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "hosts/site.hpp"
#include "hosts/storage.hpp"
#include "middleware/failures.hpp"
#include "stats/summary.hpp"
#include "stats/timeseries.hpp"
#include "util/strings.hpp"

namespace lsds::obs {
class RunReport;
}

namespace lsds::sim::monarc {

struct Config {
  std::size_t num_t1 = 4;
  double t0_t1_bandwidth = 2.5e9 / 8;  // bytes/s per T0-T1 link (2.5 Gbps)
  double t0_t1_latency = 0.05;

  // Production at T0: `num_files` raw files of `file_bytes`, one produced
  // every `production_interval` seconds (deterministic, like detector
  // readout), each pushed to every T1 by the replication agent.
  std::size_t num_files = 60;
  double file_bytes = 20e9;           // 20 GB raw-data products
  double production_interval = 40.0;  // => offered per-link rate 4 Gbps

  // Analysis at each T1: one job per produced file, submitted a think time
  // after production; waits until the local replica has arrived.
  bool run_analysis = true;
  double analysis_mean_ops = 500;
  double analysis_cpu_speed = 1000;
  unsigned t1_cores = 8;

  // Storage.
  double t0_disk = 5e15;
  double t1_disk = 5e15;
  /// Archive every raw file to T0 mass storage (MONARC's tape robots) in
  /// parallel with replication. The tape farm must sustain the production
  /// rate or the archive queue grows unboundedly.
  bool archive_to_tape = false;
  double tape_bandwidth = 1e9;  // bytes/s aggregate robot throughput
  double tape_mount_latency = 10.0;
  /// Storage contention model for every tier site (`[storage] sharing`).
  /// kMaxMin puts the T0 disk's read head (default 100 MB/s, well under
  /// the 2.5 Gbps link) and each T1 disk's write head into the transfer
  /// constraint sets, so replication sees the T0 staging bottleneck the
  /// MONARC studies identified — the fifo arm keeps the original
  /// link-only traces.
  hosts::StorageSharing storage_sharing = hosts::StorageSharing::kFifo;

  // Optional T2 tier ("jobs are processed according to their hierarchical
  // levels"): each T1 serves `t2_per_t1` T2 centers; every T2 re-analyzes a
  // fraction of the files, pulling each from its parent T1 once the T1
  // replica has landed.
  std::size_t t2_per_t1 = 0;  // 0 = two-level study only
  double t1_t2_bandwidth = 1e9 / 8;
  double t1_t2_latency = 0.01;
  double t2_fraction = 0.3;  // fraction of files each T2 analyzes
  unsigned t2_cores = 4;
  double t2_disk = 1e15;

  /// Simulation horizon; 0 = run to completion.
  double horizon = 0;

  /// Optional chaos: fail-resume outages on every site CPU and link.
  middleware::FailureSpec failures;
};

struct Result {
  std::uint64_t files_produced = 0;
  std::uint64_t replicas_delivered = 0;
  /// Replication lag of each delivered replica (production -> arrival).
  stats::SampleSet replication_lag;
  /// Backlog (bytes produced but not yet delivered, summed over T1s),
  /// recorded at every production and delivery; a running summary, so its
  /// time-weighted mean can be taken at or after the last record only.
  stats::TimeSeries backlog;
  double peak_backlog_bytes = 0;
  /// Backlog at the instant the last file is produced — the stability
  /// indicator: a keeping-up system has at most a few files in flight here.
  double backlog_at_production_end = 0;
  /// Time from the end of production until the last replica lands.
  double drain_time = 0;
  /// Time-weighted mean utilization of the first T0-T1 link up to the last
  /// delivery (the link's series as it stood at that delivery).
  double link_utilization = 0;
  /// Analysis job delays (submission -> completion), including replica wait.
  stats::SampleSet analysis_delays;
  std::uint64_t analysis_jobs = 0;
  /// T2 tier (when configured): delays include the T1->T2 pull.
  stats::SampleSet t2_delays;
  std::uint64_t t2_jobs = 0;
  /// Tape archive (when configured): files safely on tape, and the lag
  /// between production and archive completion.
  std::uint64_t files_archived = 0;
  stats::SampleSet archive_lag;
  double makespan = 0;
  double file_bytes = 0;   // copied from config, for the verdict
  std::size_t num_t1 = 0;  // copied from config

  /// The study's verdict: replication keeps up iff at most a couple of
  /// files per T1 are still in flight when production ends.
  bool sustainable() const {
    return backlog_at_production_end <= 2.5 * file_bytes * static_cast<double>(num_t1);
  }

  /// Fill the report's "result" section (shared names + replication study
  /// extras; bytes_moved = file_bytes * replicas delivered).
  void to_report(obs::RunReport& report) const;
};

/// Lays out MONARC's tier platform on an empty hosts::Grid or
/// hosts::ParallelGrid, before finalize(). Sites: T0 (id 0), then T1_<i>
/// (id 1 + i), then T2_<i>_<j> in (i, j) order; each site sits on the
/// topology node of its own id. Links: every T0--T1_<i> (link i carries the
/// T0 -> T1_<i> replicas), then every T1_<i>--T2_<i>_<j>. Returns the T2
/// site ids under each T1. Both the serial study (run) and the parallel
/// tier model (parallel::run_tier) build their platform here.
template <class G>
std::vector<std::vector<hosts::SiteId>> add_tier_sites(G& grid, const Config& cfg) {
  assert(grid.site_count() == 0 && grid.topology().node_count() == 0);
  const auto spec = [&cfg](std::string name, unsigned cores, double cpu_speed, double disk) {
    hosts::SiteSpec s;
    s.name = std::move(name);
    s.cores = cores;
    s.cpu_speed = cpu_speed;
    s.disk_capacity = disk;
    s.storage_sharing = cfg.storage_sharing;
    return s;
  };
  hosts::SiteSpec t0 = spec("T0", 32, 2000, cfg.t0_disk);
  t0.has_mass_storage = true;
  t0.tape_bandwidth = cfg.tape_bandwidth;
  t0.tape_mount_latency = cfg.tape_mount_latency;
  grid.add_site(t0);
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    grid.add_site(spec(util::strformat("T1_%zu", i), cfg.t1_cores, cfg.analysis_cpu_speed,
                       cfg.t1_disk));
  }
  std::vector<std::vector<hosts::SiteId>> t2_sites(cfg.num_t1);
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (std::size_t j = 0; j < cfg.t2_per_t1; ++j) {
      t2_sites[i].push_back(static_cast<hosts::SiteId>(grid.site_count()));
      grid.add_site(spec(util::strformat("T2_%zu_%zu", i, j), cfg.t2_cores,
                         cfg.analysis_cpu_speed, cfg.t2_disk));
    }
  }
  auto& topo = grid.topology();
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    topo.add_link(0, static_cast<net::NodeId>(1 + i), cfg.t0_t1_bandwidth, cfg.t0_t1_latency);
  }
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (hosts::SiteId t2 : t2_sites[i]) {
      topo.add_link(static_cast<net::NodeId>(1 + i), t2, cfg.t1_t2_bandwidth,
                    cfg.t1_t2_latency);
    }
  }
  return t2_sites;
}

/// Runs the study on `engine`, to completion or to `cfg.horizon`. A
/// horizon-cut run leaves events pending that refer to the run's own,
/// finished state, so it returns with the engine stopped: a further run(),
/// run_until() or run_window() executes none of them. The caller may read
/// the engine's clock, stats and counters and then destroy it, but must not
/// clear_stop() or step() it.
Result run(core::Engine& engine, const Config& cfg);

}  // namespace lsds::sim::monarc
