// Integration tests: the six simulator facades run whole scenarios
// deterministically and reproduce their papers' qualitative behaviors.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "hosts/parallel_grid.hpp"
#include "hosts/site.hpp"
#include "sim/bricks/bricks.hpp"
#include "sim/chicsim/chicsim.hpp"
#include "sim/gridsim/gridsim.hpp"
#include "sim/monarc/monarc.hpp"
#include "sim/optorsim/optorsim.hpp"
#include "sim/simg/simg.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace core = lsds::core;
namespace u = lsds::util;
using core::Engine;

// --- Bricks ---------------------------------------------------------------

TEST(Bricks, CentralModelCompletesAllJobs) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 11});
  lsds::sim::bricks::Config cfg;
  cfg.num_clients = 4;
  cfg.jobs_per_client = 10;
  const auto res = lsds::sim::bricks::run(eng, cfg);
  EXPECT_EQ(res.jobs, 40u);
  EXPECT_GT(res.makespan, 0);
  EXPECT_EQ(res.response_times.count(), 40u);
  EXPECT_GT(res.server_utilization, 0);
  EXPECT_LE(res.server_utilization, 1.0 + 1e-9);
  EXPECT_NEAR(res.network_bytes, 40 * (cfg.input_bytes + cfg.output_bytes), 1.0);
}

TEST(Bricks, DeterministicForSeed) {
  lsds::sim::bricks::Config cfg;
  cfg.num_clients = 3;
  cfg.jobs_per_client = 5;
  Engine a({.queue = core::QueueKind::kBinaryHeap, .seed = 5}), b({.queue = core::QueueKind::kBinaryHeap, .seed = 5});
  const auto ra = lsds::sim::bricks::run(a, cfg);
  const auto rb = lsds::sim::bricks::run(b, cfg);
  EXPECT_DOUBLE_EQ(ra.makespan, rb.makespan);
  EXPECT_DOUBLE_EQ(ra.response_times.mean(), rb.response_times.mean());
}

TEST(Bricks, MoreServersReduceQueueing) {
  lsds::sim::bricks::Config slow;
  slow.num_clients = 6;
  slow.jobs_per_client = 10;
  slow.mean_interarrival = 4.0;  // load the server
  slow.server_cores = 1;
  lsds::sim::bricks::Config fast = slow;
  fast.server_cores = 8;
  Engine a({.queue = core::QueueKind::kBinaryHeap, .seed = 7}), b({.queue = core::QueueKind::kBinaryHeap, .seed = 7});
  const auto r_slow = lsds::sim::bricks::run(a, slow);
  const auto r_fast = lsds::sim::bricks::run(b, fast);
  EXPECT_GT(r_slow.queue_waits.mean(), r_fast.queue_waits.mean());
  EXPECT_GT(r_slow.response_times.mean(), r_fast.response_times.mean());
}

// --- OptorSim --------------------------------------------------------

namespace {

lsds::sim::optorsim::Config optor_config() {
  lsds::sim::optorsim::Config cfg;
  cfg.num_sites = 4;
  cfg.workload.num_jobs = 120;
  cfg.workload.num_files = 40;
  cfg.workload.files_per_job = 2;
  cfg.workload.mean_interarrival = 2.0;
  cfg.workload.file_bytes = {lsds::apps::SizeDist::kConstant, 50e6, 0};
  cfg.cache_fraction = 0.25;
  return cfg;
}

}  // namespace

TEST(OptorSim, AllJobsComplete) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 21});
  auto cfg = optor_config();
  const auto res = lsds::sim::optorsim::run(eng, cfg);
  EXPECT_EQ(res.jobs, 120u);
  EXPECT_EQ(res.local_reads + res.remote_reads, 240u);  // 2 files per job
  EXPECT_GT(res.makespan, 0);
}

TEST(OptorSim, NoReplicationNeverReplicates) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 21});
  auto cfg = optor_config();
  cfg.policy = lsds::middleware::ReplicationPolicy::kNone;
  const auto res = lsds::sim::optorsim::run(eng, cfg);
  EXPECT_EQ(res.replications, 0u);
  EXPECT_EQ(res.local_reads, 0u);  // nothing is ever cached
}

TEST(OptorSim, LruCachingImprovesLocalityAndJobTimes) {
  auto cfg = optor_config();
  cfg.policy = lsds::middleware::ReplicationPolicy::kNone;
  Engine a({.queue = core::QueueKind::kBinaryHeap, .seed = 21});
  const auto none = lsds::sim::optorsim::run(a, cfg);

  cfg.policy = lsds::middleware::ReplicationPolicy::kLru;
  Engine b({.queue = core::QueueKind::kBinaryHeap, .seed = 21});
  const auto lru = lsds::sim::optorsim::run(b, cfg);

  EXPECT_GT(lru.replications, 0u);
  EXPECT_GT(lru.local_hit_ratio(), none.local_hit_ratio());
  EXPECT_LT(lru.mean_job_time(), none.mean_job_time());
  EXPECT_LT(lru.network_bytes, none.network_bytes);
}

TEST(OptorSim, CacheNeverExceedsCapacity) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 33});
  auto cfg = optor_config();
  cfg.cache_fraction = 0.1;  // tight caches force constant eviction
  const auto res = lsds::sim::optorsim::run(eng, cfg);
  EXPECT_EQ(res.jobs, 120u);
  EXPECT_GT(res.evictions, 0u);
}

TEST(OptorSim, EconomicDeclinesColdFiles) {
  auto cfg = optor_config();
  cfg.cache_fraction = 0.1;
  cfg.workload.zipf_exponent = 1.2;  // strong skew: hot files exist
  Engine a({.queue = core::QueueKind::kBinaryHeap, .seed = 9});
  cfg.policy = lsds::middleware::ReplicationPolicy::kLru;
  const auto lru = lsds::sim::optorsim::run(a, cfg);
  Engine b({.queue = core::QueueKind::kBinaryHeap, .seed = 9});
  cfg.policy = lsds::middleware::ReplicationPolicy::kEconomic;
  const auto eco = lsds::sim::optorsim::run(b, cfg);
  // Economic replicates more selectively than always-replicate LRU.
  EXPECT_LT(eco.replications, lru.replications);
  EXPECT_GT(eco.replications, 0u);
}

// --- SimGrid -----------------------------------------------------------

TEST(SimG, BothModesCompleteAllTasks) {
  for (auto mode :
       {lsds::sim::simg::SchedulingMode::kCompileTime, lsds::sim::simg::SchedulingMode::kRuntime}) {
    Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 3});
    lsds::sim::simg::Config cfg;
    cfg.mode = mode;
    cfg.num_tasks = 40;
    const auto res = lsds::sim::simg::run(eng, cfg);
    EXPECT_EQ(res.tasks, 40u) << to_string(mode);
    EXPECT_GT(res.makespan, 0) << to_string(mode);
    std::uint64_t total = 0;
    for (auto c : res.per_worker) total += c;
    EXPECT_EQ(total, 40u);
  }
}

TEST(SimG, RuntimeAdaptsBetterUnderEstimateError) {
  // With very noisy estimates, self-scheduling (runtime) should beat the
  // static compile-time plan; with perfect estimates they should be close.
  auto makespan = [](lsds::sim::simg::SchedulingMode mode, double err, std::uint64_t seed) {
    Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = seed});
    lsds::sim::simg::Config cfg;
    cfg.mode = mode;
    cfg.num_tasks = 100;
    cfg.estimate_error = err;
    return lsds::sim::simg::run(eng, cfg).makespan;
  };
  double rt_wins = 0, trials = 5;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    const double rt = makespan(lsds::sim::simg::SchedulingMode::kRuntime, 0.9, s);
    const double ct = makespan(lsds::sim::simg::SchedulingMode::kCompileTime, 0.9, s);
    if (rt <= ct) rt_wins += 1;
  }
  EXPECT_GE(rt_wins / trials, 0.6);
}

TEST(SimG, FasterWorkersDoMoreTasks) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 8});
  lsds::sim::simg::Config cfg;
  cfg.mode = lsds::sim::simg::SchedulingMode::kRuntime;
  cfg.num_tasks = 80;
  cfg.speed_min = 200;
  cfg.speed_max = 2000;
  const auto res = lsds::sim::simg::run(eng, cfg);
  // Worker 0 is the fastest (speed_max), the last is the slowest.
  EXPECT_GT(res.per_worker.front(), res.per_worker.back());
}

// --- GridSim ----------------------------------------------------------

TEST(GridSim, CostOptCheaperTimeOptFaster) {
  lsds::sim::gridsim::Config cfg;
  cfg.num_jobs = 40;
  cfg.strategy = lsds::middleware::DbcStrategy::kCostOptimization;
  Engine a({.queue = core::QueueKind::kBinaryHeap, .seed = 2});
  const auto cost_opt = lsds::sim::gridsim::run(a, cfg);
  cfg.strategy = lsds::middleware::DbcStrategy::kTimeOptimization;
  Engine b({.queue = core::QueueKind::kBinaryHeap, .seed = 2});
  const auto time_opt = lsds::sim::gridsim::run(b, cfg);

  EXPECT_EQ(cost_opt.completed, 40u);
  EXPECT_EQ(time_opt.completed, 40u);
  EXPECT_LT(cost_opt.cost, time_opt.cost);
  EXPECT_LT(time_opt.makespan, cost_opt.makespan);
}

TEST(GridSim, TightBudgetRejectsJobs) {
  lsds::sim::gridsim::Config cfg;
  cfg.num_jobs = 30;
  cfg.budget = 20.0;  // far below unconstrained spend
  cfg.strategy = lsds::middleware::DbcStrategy::kCostOptimization;
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 4});
  const auto res = lsds::sim::gridsim::run(eng, cfg);
  EXPECT_GT(res.rejected, 0u);
  EXPECT_LE(res.cost, cfg.budget + 1e-9);
  EXPECT_EQ(res.completed, res.accepted);
}

TEST(GridSim, DeadlinePushesCostUp) {
  lsds::sim::gridsim::Config cfg;
  cfg.num_jobs = 30;
  cfg.strategy = lsds::middleware::DbcStrategy::kCostOptimization;
  Engine a({.queue = core::QueueKind::kBinaryHeap, .seed = 6});
  const auto loose = lsds::sim::gridsim::run(a, cfg);
  cfg.deadline = loose.makespan / 3.0;  // force faster placement
  Engine b({.queue = core::QueueKind::kBinaryHeap, .seed = 6});
  const auto tight = lsds::sim::gridsim::run(b, cfg);
  EXPECT_GE(tight.cost, loose.cost);
  EXPECT_TRUE(tight.deadline_met);
}

// --- ChicagoSim -----------------------------------------------------------

namespace {

lsds::sim::chicsim::Config chic_config() {
  lsds::sim::chicsim::Config cfg;
  cfg.num_sites = 5;
  cfg.workload.num_jobs = 150;
  cfg.workload.num_files = 30;
  cfg.workload.files_per_job = 1;
  cfg.workload.mean_interarrival = 1.0;
  cfg.workload.file_bytes = {lsds::apps::SizeDist::kConstant, 40e6, 0};
  return cfg;
}

}  // namespace

TEST(ChicSim, AllPolicyCombinationsComplete) {
  for (auto jp : lsds::sim::chicsim::kAllJobPolicies) {
    for (auto dp : lsds::sim::chicsim::kAllDataPolicies) {
      Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 17});
      auto cfg = chic_config();
      cfg.job_policy = jp;
      cfg.data_policy = dp;
      const auto res = lsds::sim::chicsim::run(eng, cfg);
      EXPECT_EQ(res.jobs, 150u) << to_string(jp) << "/" << to_string(dp);
    }
  }
}

TEST(ChicSim, DataPresentSchedulingMaximizesLocality) {
  auto run_policy = [](lsds::sim::chicsim::JobPolicy jp) {
    Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 23});
    auto cfg = chic_config();
    cfg.job_policy = jp;
    cfg.data_policy = lsds::sim::chicsim::DataPolicy::kNone;
    return lsds::sim::chicsim::run(eng, cfg);
  };
  const auto data_present = run_policy(lsds::sim::chicsim::JobPolicy::kDataPresent);
  const auto random = run_policy(lsds::sim::chicsim::JobPolicy::kRandom);
  EXPECT_GT(data_present.locality(), random.locality());
  EXPECT_LT(data_present.network_bytes, random.network_bytes);
}

TEST(ChicSim, PushReplicationSpreadsPopularFiles) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 29});
  auto cfg = chic_config();
  cfg.workload.zipf_exponent = 1.2;
  cfg.job_policy = lsds::sim::chicsim::JobPolicy::kRandom;
  cfg.data_policy = lsds::sim::chicsim::DataPolicy::kPush;
  const auto res = lsds::sim::chicsim::run(eng, cfg);
  EXPECT_GT(res.pushes, 0u);
  // Push raises locality above the no-replication baseline.
  Engine eng2({.queue = core::QueueKind::kBinaryHeap, .seed = 29});
  cfg.data_policy = lsds::sim::chicsim::DataPolicy::kNone;
  const auto none = lsds::sim::chicsim::run(eng2, cfg);
  EXPECT_GT(res.locality(), none.locality());
}

TEST(ChicSim, MultipleSchedulersComplete) {
  for (std::size_t k : {1u, 2u, 3u}) {
    Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 41});
    auto cfg = chic_config();
    cfg.num_schedulers = k;
    cfg.job_policy = lsds::sim::chicsim::JobPolicy::kLeastLoaded;
    const auto res = lsds::sim::chicsim::run(eng, cfg);
    EXPECT_EQ(res.jobs, 150u) << k << " schedulers";
  }
}

TEST(ChicSim, SchedulerFragmentationHurtsDataPresentLocality) {
  // With one global scheduler, data-present placement always reaches the
  // data; schedulers restricted to partitions sometimes cannot.
  auto run_k = [](std::size_t k) {
    Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 43});
    auto cfg = chic_config();
    cfg.num_schedulers = k;
    cfg.job_policy = lsds::sim::chicsim::JobPolicy::kDataPresent;
    cfg.data_policy = lsds::sim::chicsim::DataPolicy::kNone;
    return lsds::sim::chicsim::run(eng, cfg);
  };
  const auto one = run_k(1);
  const auto three = run_k(3);
  EXPECT_GT(one.locality(), 0.99);
  EXPECT_LT(three.locality(), one.locality());
  EXPECT_GT(three.network_bytes, one.network_bytes);
}

TEST(ChicSim, CachingImprovesLocality) {
  auto cfg = chic_config();
  cfg.job_policy = lsds::sim::chicsim::JobPolicy::kRandom;
  Engine a({.queue = core::QueueKind::kBinaryHeap, .seed = 31});
  cfg.data_policy = lsds::sim::chicsim::DataPolicy::kNone;
  const auto none = lsds::sim::chicsim::run(a, cfg);
  Engine b({.queue = core::QueueKind::kBinaryHeap, .seed = 31});
  cfg.data_policy = lsds::sim::chicsim::DataPolicy::kCache;
  const auto cache = lsds::sim::chicsim::run(b, cfg);
  EXPECT_GT(cache.locality(), none.locality());
  EXPECT_GT(cache.replications, 0u);
}

// --- MONARC -----------------------------------------------------------

namespace {

lsds::sim::monarc::Config monarc_config(double gbps) {
  lsds::sim::monarc::Config cfg;
  cfg.num_t1 = 2;
  cfg.num_files = 20;
  cfg.file_bytes = 10e9;
  cfg.production_interval = 20.0;  // offered rate per link: 0.5 GB/s = 4 Gbps
  cfg.t0_t1_bandwidth = u::gbps(gbps);
  cfg.run_analysis = false;
  return cfg;
}

}  // namespace

// The serial study and the parallel tier model lay their platform out with
// the same function, so both grid types get the same sites, nodes and links.
TEST(Monarc, TierLayoutIsTheSameOnBothGridTypes) {
  auto cfg = monarc_config(10.0);
  cfg.t2_per_t1 = 2;
  Engine eng;
  lsds::hosts::Grid grid(eng);
  lsds::hosts::ParallelGrid pgrid(lsds::hosts::ExecutionSpec{});
  const auto t2 = lsds::sim::monarc::add_tier_sites(grid, cfg);
  EXPECT_EQ(t2, (std::vector<std::vector<lsds::hosts::SiteId>>{{3, 4}, {5, 6}}));
  EXPECT_EQ(lsds::sim::monarc::add_tier_sites(pgrid, cfg), t2);
  EXPECT_EQ(grid.topology().to_text(),
            "# lsds topology\n"
            "node T0\nnode T1_0\nnode T1_1\n"
            "node T2_0_0\nnode T2_0_1\nnode T2_1_0\nnode T2_1_1\n"
            "link T0 T1_0 1e+10bps 0.05s T0--T1_0\n"
            "link T0 T1_1 1e+10bps 0.05s T0--T1_1\n"
            "link T1_0 T2_0_0 1e+09bps 0.01s T1_0--T2_0_0\n"
            "link T1_0 T2_0_1 1e+09bps 0.01s T1_0--T2_0_1\n"
            "link T1_1 T2_1_0 1e+09bps 0.01s T1_1--T2_1_0\n"
            "link T1_1 T2_1_1 1e+09bps 0.01s T1_1--T2_1_1\n");
  EXPECT_EQ(pgrid.topology().to_text(), grid.topology().to_text());
  grid.finalize();
  pgrid.finalize();
  for (lsds::hosts::SiteId id = 0; id < grid.site_count(); ++id) {
    EXPECT_EQ(grid.site(id).node(), id);
    EXPECT_EQ(pgrid.site(id).node(), id);
    EXPECT_EQ(pgrid.site(id).name(), grid.site(id).name());
  }
  EXPECT_TRUE(grid.site(0).has_tape());
  EXPECT_EQ(grid.site(0).cpu().cores(), 32u);
  EXPECT_FALSE(grid.site(1).has_tape());
  EXPECT_EQ(grid.site(1).cpu().cores(), cfg.t1_cores);
  EXPECT_EQ(grid.site(3).cpu().cores(), cfg.t2_cores);
  EXPECT_EQ(grid.site(3).disk().capacity(), cfg.t2_disk);
}

// A horizon-cut run returns while events that point into the run's finished
// state are still pending, so running the engine further must execute none
// of them: each would be a use-after-scope, which the ASan build reports.
TEST(Monarc, HorizonCutRunLeavesNothingToRun) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  lsds::sim::monarc::Config cfg;
  cfg.num_files = 5;
  cfg.horizon = 50;
  const auto res = lsds::sim::monarc::run(eng, cfg);
  EXPECT_EQ(res.files_produced, 1u);
  EXPECT_GT(eng.pending(), 0u);
  const auto executed = eng.stats().executed;
  eng.run();
  EXPECT_EQ(eng.stats().executed, executed);
  EXPECT_EQ(eng.now(), 50.0);
}

TEST(Monarc, AllReplicasDelivered) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  auto cfg = monarc_config(10.0);
  cfg.run_analysis = true;
  const auto res = lsds::sim::monarc::run(eng, cfg);
  EXPECT_EQ(res.files_produced, 20u);
  EXPECT_EQ(res.replicas_delivered, 40u);  // 20 files x 2 T1s
  EXPECT_EQ(res.analysis_jobs, 40u);
  EXPECT_GT(res.link_utilization, 0);
  EXPECT_LE(res.link_utilization, 1.0 + 1e-9);
}

TEST(Monarc, InsufficientLinkDivergesSufficientKeepsUp) {
  // Offered rate is 4 Gbps per link: 2.5 Gbps must fall behind (growing
  // backlog, unsustainable), 10 Gbps must keep up — the paper's LHC story.
  Engine low({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  const auto r_low = lsds::sim::monarc::run(low, monarc_config(2.5));
  Engine high({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  const auto r_high = lsds::sim::monarc::run(high, monarc_config(10.0));

  EXPECT_FALSE(r_low.sustainable());
  EXPECT_TRUE(r_high.sustainable());
  EXPECT_GT(r_low.backlog_at_production_end, 4 * r_high.backlog_at_production_end);
  EXPECT_GT(r_low.replication_lag.mean(), r_high.replication_lag.mean());
  EXPECT_GT(r_low.drain_time, r_high.drain_time);
  // The starved link saturates; the comfortable one has headroom.
  EXPECT_GT(r_low.link_utilization, 0.95);
  EXPECT_LT(r_high.link_utilization, 0.75);
}

TEST(Monarc, BacklogSeriesMonotoneUnderStarvation) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  const auto res = lsds::sim::monarc::run(eng, monarc_config(1.0));
  // Peak backlog equals backlog at production end when the link can't keep
  // up at all.
  EXPECT_NEAR(res.peak_backlog_bytes, res.backlog_at_production_end,
              2 * res.file_bytes * static_cast<double>(res.num_t1));
}

TEST(Monarc, TapeArchiveKeepsUpWhenFastEnough) {
  // Production: 10 GB / 20 s = 0.5 GB/s offered to the tape robots.
  Engine fast({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  auto cfg = monarc_config(10.0);
  cfg.archive_to_tape = true;
  cfg.tape_bandwidth = 2e9;  // 4x headroom
  cfg.tape_mount_latency = 1.0;
  const auto r_fast = lsds::sim::monarc::run(fast, cfg);
  EXPECT_EQ(r_fast.files_archived, 20u);
  // Starved robots: archive lag grows far beyond the fast case.
  Engine slow({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  cfg.tape_bandwidth = 0.25e9;  // half the offered rate
  const auto r_slow = lsds::sim::monarc::run(slow, cfg);
  EXPECT_EQ(r_slow.files_archived, 20u);
  EXPECT_GT(r_slow.archive_lag.max(), 4 * r_fast.archive_lag.max());
}

TEST(Monarc, ThreeTierHierarchyRuns) {
  Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  auto cfg = monarc_config(10.0);
  cfg.run_analysis = true;
  cfg.t2_per_t1 = 2;
  cfg.t2_fraction = 0.5;
  const auto res = lsds::sim::monarc::run(eng, cfg);
  EXPECT_EQ(res.replicas_delivered, 40u);
  EXPECT_GT(res.t2_jobs, 0u);
  // ~2 T1s x 2 T2s x 20 files x 0.5 = ~40 expected T2 jobs.
  EXPECT_NEAR(static_cast<double>(res.t2_jobs), 40.0, 20.0);
  // T2 work rides on T1 replication + an extra network hop: slower than T1
  // analysis on average.
  EXPECT_GT(res.t2_delays.mean(), res.analysis_delays.mean());
}

// An arrival wakes only the jobs waiting for that file, and the flow layer
// queues one completion event per component, so the event count per job
// stays flat as the backlog grows. Waking every waiting job at every arrival,
// with per-flow completion events, took ~25 executed and 50-63 scheduled
// events per job here. The model results are the ones that design produced,
// bit for bit, T2 jobs included (several of them wait on one file).
TEST(Monarc, SaturatedStudyEventsPerJobStayFlatAndResultsUnchanged) {
  struct Want {
    std::size_t t2_per_t1;
    double makespan, t2_delay;
    std::size_t t2_jobs;
  };
  for (const Want& want : {Want{0, 1940.402228578404, 0, 0},
                           Want{2, 3425.2309763649055, 1412.8623635821009, 116}}) {
    Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
    auto cfg = monarc_config(2.5);
    cfg.num_files = 60;
    cfg.run_analysis = true;
    cfg.t2_per_t1 = want.t2_per_t1;
    cfg.t2_fraction = 0.5;
    const auto res = lsds::sim::monarc::run(eng, cfg);
    EXPECT_EQ(res.makespan, want.makespan);
    EXPECT_EQ(res.replication_lag.mean(), 740.04999999999973);
    EXPECT_EQ(res.analysis_delays.mean(), 730.28607684176268);
    EXPECT_EQ(res.t2_delays.mean(), want.t2_delay);
    EXPECT_EQ(res.t2_jobs, want.t2_jobs);
    ASSERT_EQ(res.analysis_jobs, 120u);
    const double jobs = static_cast<double>(res.analysis_jobs + res.t2_jobs);
    EXPECT_LT(static_cast<double>(eng.stats().executed) / jobs, 8.0);
    EXPECT_LT(static_cast<double>(eng.stats().scheduled) / jobs, 8.0);
  }
}

// Golden for the tracked T0-T1 link's time-weighted mean up to the last
// delivery and the backlog figures, as %.17g. In (a) T2 pulls keep the link
// re-solving after the last delivery, so the mean covers only a prefix of
// the link's series; (b) is the same run cut at a horizon; (c) adds CPU and
// link outages.
TEST(Monarc, LinkUtilizationIsPinned) {
  struct Want {
    const char* name;
    double horizon;
    bool failures;
    const char *link_utilization, *peak_backlog, *backlog_at_production_end;
  };
  for (const Want& want :
       {Want{"a", 0, false, "0.13528748590755343", "80000000000", "80000000000"},
        Want{"b", 2403, false, "0.13532110091743102", "80000000000", "80000000000"},
        Want{"c", 0, true, "0.13280388867742082", "120000000000", "100000000000"}}) {
    lsds::sim::monarc::Config cfg;
    cfg.num_files = 60;
    cfg.t0_t1_bandwidth = u::gbps(30);
    cfg.t2_per_t1 = 2;
    cfg.archive_to_tape = true;
    cfg.horizon = want.horizon;
    if (want.failures) {
      cfg.failures.enabled = true;
      cfg.failures.mtbf = 400;
      cfg.failures.mttr = 40;
      cfg.failures.horizon = 2400;
    }
    Engine eng({.queue = core::QueueKind::kCalendarQueue, .seed = 2005});
    const auto res = lsds::sim::monarc::run(eng, cfg);
    EXPECT_EQ(u::strformat("%.17g", res.link_utilization), want.link_utilization) << want.name;
    EXPECT_EQ(u::strformat("%.17g", res.peak_backlog_bytes), want.peak_backlog) << want.name;
    EXPECT_EQ(u::strformat("%.17g", res.backlog_at_production_end),
              want.backlog_at_production_end)
        << want.name;
  }
}

TEST(Monarc, AnalysisWaitsForReplicas) {
  Engine slow({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  auto cfg = monarc_config(2.5);
  cfg.run_analysis = true;
  const auto r_slow = lsds::sim::monarc::run(slow, cfg);
  Engine fast({.queue = core::QueueKind::kBinaryHeap, .seed = 1});
  auto cfg2 = monarc_config(20.0);
  cfg2.run_analysis = true;
  const auto r_fast = lsds::sim::monarc::run(fast, cfg2);
  // Starved replication delays the physics analysis downstream.
  EXPECT_GT(r_slow.analysis_delays.mean(), 2 * r_fast.analysis_delays.mean());
}
