// Failure injection: CPU outages, link outages, the stochastic injector,
// and the engine's event-budget watchdog.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "hosts/cpu.hpp"
#include "middleware/failures.hpp"
#include "middleware/recovery.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "event_probe.hpp"

namespace core = lsds::core;
namespace hosts = lsds::hosts;
namespace net = lsds::net;
namespace mw = lsds::middleware;

// --- engine watchdog -------------------------------------------------------

TEST(EventBudget, ThrowsOnZeroDelayLoop) {
  core::Engine::Config cfg;
  cfg.max_events = 1000;
  core::Engine eng(cfg);
  std::function<void()> spin = [&] { eng.schedule_in(0, spin); };  // model bug
  eng.schedule_at(0, spin);
  EXPECT_THROW(eng.run(), core::EventBudgetExceeded);
  EXPECT_EQ(eng.stats().executed, 1000u);
}

TEST(EventBudget, HonestModelsUnaffected) {
  core::Engine::Config cfg;
  cfg.max_events = 1000;
  core::Engine eng(cfg);
  int n = 0;
  for (int i = 0; i < 500; ++i) eng.schedule_at(i, [&] { ++n; });
  EXPECT_NO_THROW(eng.run());
  EXPECT_EQ(n, 500);
}

TEST(EventBudget, AppliesToRunUntil) {
  core::Engine::Config cfg;
  cfg.max_events = 10;
  core::Engine eng(cfg);
  std::function<void()> spin = [&] { eng.schedule_in(0, spin); };
  eng.schedule_at(0, spin);
  EXPECT_THROW(eng.run_until(1.0), core::EventBudgetExceeded);
}

// --- CPU outages ------------------------------------------------------

TEST(CpuFailure, OutageStretchesJob) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  double done_at = -1;
  cpu.submit(1, 1000.0, [&](hosts::JobId) { done_at = eng.now(); });  // 10s nominal
  // Down from t=3 to t=8: 5 seconds of paused progress.
  eng.schedule_at(3.0, [&] { cpu.set_online(false); });
  eng.schedule_at(8.0, [&] { cpu.set_online(true); });
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 15.0);
  EXPECT_EQ(cpu.outages(), 1u);
  EXPECT_TRUE(cpu.online());
}

TEST(CpuFailure, TimeSharedOutagePausesEveryone) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kTimeShared);
  std::vector<double> done;
  cpu.submit(1, 250.0, [&](hosts::JobId) { done.push_back(eng.now()); });
  cpu.submit(2, 250.0, [&](hosts::JobId) { done.push_back(eng.now()); });
  // Nominal completion at t=5 (two jobs at 50 ops/s). Outage 1..2.
  eng.schedule_at(1.0, [&] { cpu.set_online(false); });
  eng.schedule_at(2.0, [&] { cpu.set_online(true); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 6.0);
  EXPECT_DOUBLE_EQ(done[1], 6.0);
}

TEST(CpuFailure, SetOnlineIsIdempotent) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  cpu.set_online(false);
  cpu.set_online(false);
  EXPECT_EQ(cpu.outages(), 1u);
  cpu.set_online(true);
  cpu.set_online(true);
  EXPECT_EQ(cpu.outages(), 1u);
}

TEST(CpuFailure, SubmitWhileOfflineQueuesUntilRepair) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  cpu.set_online(false);
  double done_at = -1;
  cpu.submit(1, 100.0, [&](hosts::JobId) { done_at = eng.now(); });
  eng.schedule_at(5.0, [&] { cpu.set_online(true); });
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 6.0);  // 5s outage + 1s service
}

// --- link outages ------------------------------------------------------

TEST(LinkFailure, FlowStallsAndResumes) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double done_at = -1;
  fn.start_flow(a, b, 2e6, [&](net::FlowId) { done_at = eng.now(); });  // 2s nominal
  eng.schedule_at(1.0, [&] { fn.set_link_up(0, false); });
  eng.schedule_at(4.0, [&] { fn.set_link_up(0, true); });
  eng.run();
  EXPECT_NEAR(done_at, 5.0, 1e-6);  // 2s transfer + 3s outage
  EXPECT_TRUE(fn.link_up(0));
}

TEST(LinkFailure, FlowStartedDuringOutageWaits) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.set_link_up(0, false);
  double done_at = -1;
  fn.start_flow(a, b, 1e6, [&](net::FlowId) { done_at = eng.now(); });
  eng.schedule_at(10.0, [&] { fn.set_link_up(0, true); });
  eng.run();
  EXPECT_NEAR(done_at, 11.0, 1e-6);
}

TEST(LinkFailure, ParallelPathUnaffected) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  topo.add_link(a, b, 1e6, 0);
  topo.add_link(a, c, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double t_b = -1, t_c = -1;
  fn.start_flow(a, b, 1e6, [&](net::FlowId) { t_b = eng.now(); });
  fn.start_flow(a, c, 1e6, [&](net::FlowId) { t_c = eng.now(); });
  eng.schedule_at(0.5, [&] { fn.set_link_up(0, false); });
  eng.schedule_at(10.0, [&] { fn.set_link_up(0, true); });
  eng.run();
  EXPECT_NEAR(t_c, 1.0, 1e-6);   // untouched path finishes on time
  EXPECT_NEAR(t_b, 10.5, 1e-6);  // stalled path rides out the outage
}

// --- stochastic injector ----------------------------------------------------

TEST(FailureInjector, ChaosRunStillCompletesAllWork) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 99});
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0.001);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  hosts::CpuResource cpu(eng, "srv", 2, 100.0, hosts::SharingPolicy::kSpaceShared);

  mw::FailureInjector chaos(eng);
  chaos.add_cpu(cpu);
  chaos.add_link(fn, 0);
  chaos.start(/*mtbf=*/20.0, /*mttr=*/5.0, /*t_end=*/500.0);

  // 30 jobs, each: transfer 0.5 MB then compute 200 ops.
  int completed = 0;
  for (int i = 1; i <= 30; ++i) {
    eng.schedule_at(i * 2.0, [&, i] {
      fn.start_flow(a, b, 0.5e6, [&, i](net::FlowId) {
        cpu.submit(static_cast<hosts::JobId>(i), 200.0,
                   [&](hosts::JobId) { ++completed; });
      });
    });
  }
  eng.run();
  EXPECT_EQ(completed, 30);        // outages delay, never lose, work
  EXPECT_GT(chaos.outages_started(), 0u);
  EXPECT_EQ(chaos.outages_started(), chaos.repairs_completed());
  EXPECT_GT(chaos.total_downtime(), 0.0);
}

TEST(FailureInjector, DeterministicForSeed) {
  auto run_once = [] {
    core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 7});
    hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
    mw::FailureInjector chaos(eng);
    chaos.add_cpu(cpu);
    chaos.start(10.0, 2.0, 200.0);
    double done_at = -1;
    cpu.submit(1, 5000.0, [&](hosts::JobId) { done_at = eng.now(); });
    eng.run();
    return std::pair{done_at, chaos.outages_started()};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.first, 50.0);  // nominal 50s plus some downtime
}

TEST(FailureInjector, DoubleStartThrows) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  mw::FailureInjector chaos(eng);
  chaos.add_cpu(cpu);
  chaos.start(10.0, 2.0, 100.0);
  EXPECT_TRUE(chaos.started());
  // A second start would silently double every target's failure rate.
  EXPECT_THROW(chaos.start(10.0, 2.0, 100.0), std::logic_error);
  EXPECT_THROW(chaos.start_weibull(1.5, 10.0, 2.0, 100.0), std::logic_error);
}

TEST(FailureInjector, DowntimeTruncatedAtHorizon) {
  constexpr std::uint64_t kSeed = 11;
  constexpr double kMtbf = 10.0, kMttr = 5.0, kHorizon = 40.0;
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = kSeed});
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  mw::FailureInjector chaos(eng);
  chaos.add_cpu(cpu);
  chaos.start(kMtbf, kMttr, kHorizon);
  eng.run();

  // One target means the injector's draws are strictly sequential, so an
  // identical stream replays them: lifetime, then repair, per cycle.
  core::RngStream replay(kSeed, "failures");
  double t = 0, expected = 0;
  while (true) {
    t += replay.exponential(kMtbf);
    if (t > kHorizon) break;
    const double repair = replay.exponential(kMttr);
    // An outage still open at the horizon contributes only up to it.
    expected += std::min(repair, kHorizon - t);
    t += repair;
  }
  EXPECT_NEAR(chaos.total_downtime(), expected, 1e-9);
  EXPECT_GT(chaos.total_downtime(), 0.0);
}

TEST(FailureInjector, CorrelatedSiteOutage) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 5});
  hosts::CpuResource c1(eng, "a", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  hosts::CpuResource c2(eng, "b", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  mw::FailureInjector chaos(eng);
  chaos.add_site({&c1, &c2});  // one power feed for the whole site
  chaos.start(10.0, 2.0, 100.0);
  eng.run();
  EXPECT_GT(chaos.outages_started(), 0u);
  // Both CPUs fail and repair together: identical outage counts & downtime.
  EXPECT_EQ(c1.outages(), c2.outages());
  EXPECT_DOUBLE_EQ(c1.downtime(), c2.downtime());
}

TEST(FailureInjector, WeibullLifetimesDeterministicForSeed) {
  auto run_once = [] {
    core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 21});
    hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
    mw::FailureInjector chaos(eng);
    chaos.add_cpu(cpu);
    chaos.start_weibull(/*shape=*/0.7, /*mtbf=*/10.0, /*mttr=*/2.0, /*t_end=*/300.0);
    eng.run();
    return std::pair{chaos.outages_started(), chaos.total_downtime()};
  };
  const auto a = run_once();
  EXPECT_GT(a.first, 0u);
  EXPECT_EQ(a, run_once());
}

// --- whole-run determinism under chaos ---------------------------------------

namespace {

/// Full dependability stack: injector-driven fail-stop outages over a farm
/// run by the fault-tolerant scheduler. Returns the engine's (time, seq)
/// execution trace.
std::vector<std::pair<double, std::uint64_t>> chaos_trace(std::uint64_t seed) {
  std::vector<std::pair<double, std::uint64_t>> trace;
  lsds::testutil::EventProbe probe([&](double t, core::EventId id) { trace.emplace_back(t, id); });
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = seed});
  eng.set_probe(&probe);

  std::vector<std::unique_ptr<hosts::CpuResource>> owned;
  std::vector<hosts::CpuResource*> cpus;
  for (int i = 0; i < 4; ++i) {
    owned.push_back(std::make_unique<hosts::CpuResource>(eng, "h" + std::to_string(i), 1,
                                                         1000.0, hosts::SharingPolicy::kSpaceShared));
    cpus.push_back(owned.back().get());
  }
  mw::FailureInjector chaos(eng);
  for (auto* cpu : cpus) chaos.add_cpu(*cpu);
  chaos.start(3.0, 1.0, 1e5);

  mw::RecoveryConfig cfg;
  cfg.policy = mw::RecoveryPolicyKind::kResubmit;
  mw::FaultTolerantScheduler sched(eng, cpus, mw::Heuristic::kMinMin, cfg);
  auto& rng = eng.rng("bag");
  for (hosts::JobId j = 1; j <= 100; ++j) {
    hosts::Job job;
    job.id = j;
    job.ops = rng.exponential(2000.0);
    sched.submit(std::move(job));
  }
  std::size_t settled = 0;
  const auto on_settled = [&](const hosts::Job&) {
    if (++settled == 100) eng.stop();
  };
  sched.run(on_settled, on_settled);
  eng.run();
  EXPECT_EQ(sched.completed(), 100u);
  return trace;
}

}  // namespace

TEST(ChaosDeterminism, EqualSeedsGiveIdenticalTraces) {
  const auto a = chaos_trace(77);
  const auto b = chaos_trace(77);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // byte-identical (time, seq) schedule
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
  EXPECT_NE(chaos_trace(77), chaos_trace(78));
}

TEST(FailureInjector, NoFailuresBeyondHorizon) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 3});
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  mw::FailureInjector chaos(eng);
  chaos.add_cpu(cpu);
  chaos.start(1e-3, 1e-3, /*t_end=*/1.0);  // rapid cycling, but only until t=1
  eng.run();
  EXPECT_LE(eng.now(), 1.1);
  EXPECT_EQ(chaos.outages_started(), chaos.repairs_completed());
}

// --- deterministic outages --------------------------------------------------

TEST(DeterministicOutage, FiresAtExactTimeAndRepairs) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  mw::FailureInjector chaos(eng);
  chaos.add_cpu(cpu);
  ASSERT_EQ(chaos.target_count(), 1u);
  double down_at = -1, up_at = -1;
  cpu.set_online_observer([&](bool up) { (up ? up_at : down_at) = eng.now(); });
  chaos.schedule_outage(0, 3.0, 2.0);
  eng.run();
  EXPECT_DOUBLE_EQ(down_at, 3.0);
  EXPECT_DOUBLE_EQ(up_at, 5.0);
  EXPECT_EQ(chaos.outages_started(), 1u);
  EXPECT_EQ(chaos.repairs_completed(), 1u);
  EXPECT_DOUBLE_EQ(chaos.total_downtime(), 2.0);
}

TEST(DeterministicOutage, NegativeRepairIsPermanent) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  mw::FailureInjector chaos(eng);
  chaos.add_cpu(cpu);
  chaos.schedule_outage(0, 1.0, -1.0);
  eng.run();
  EXPECT_FALSE(cpu.online());
  EXPECT_EQ(chaos.repairs_completed(), 0u);
}

TEST(DeterministicOutage, UnknownTargetThrows) {
  core::Engine eng;
  mw::FailureInjector chaos(eng);
  EXPECT_THROW(chaos.schedule_outage(0, 1.0, 1.0), std::out_of_range);
  EXPECT_THROW(chaos.schedule_outage_choice(0, {1.0}, 1.0), std::out_of_range);
}

TEST(DeterministicOutage, ChoiceDefaultsToFirstCandidate) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "n", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  mw::FailureInjector chaos(eng);
  chaos.add_cpu(cpu);
  double down_at = -1;
  cpu.set_online_observer([&](bool up) {
    if (!up) down_at = eng.now();
  });
  // Without an explorer steering the tie, the first selector event wins.
  chaos.schedule_outage_choice(0, {2.0, 5.0, 9.0}, 0.5);
  eng.run();
  EXPECT_DOUBLE_EQ(down_at, 2.0);
  EXPECT_EQ(chaos.outages_started(), 1u);  // exactly one candidate fired
}

// A crash whose repair lands at the *same* timestamp: the recovery layer
// sees kill + online-observer callbacks back to back at one instant and
// must not dispatch the job twice.
TEST(DeterministicOutage, SimultaneousCrashAndRecoverNoDoubleStart) {
  for (mw::RecoveryPolicyKind policy :
       {mw::RecoveryPolicyKind::kRetry, mw::RecoveryPolicyKind::kResubmit,
        mw::RecoveryPolicyKind::kCheckpoint, mw::RecoveryPolicyKind::kReplicate}) {
    core::Engine eng;
    hosts::CpuResource a(eng, "a", 1, 1.0, hosts::SharingPolicy::kSpaceShared);
    hosts::CpuResource b(eng, "b", 1, 1.0, hosts::SharingPolicy::kSpaceShared);
    mw::RecoveryConfig rcfg;
    rcfg.policy = policy;
    rcfg.backoff_base = 1.0;
    mw::FaultTolerantScheduler sched(eng, {&a, &b}, mw::Heuristic::kFifo, rcfg);
    for (hosts::JobId id = 1; id <= 3; ++id) {
      hosts::Job j;
      j.id = id;
      j.ops = 4;
      sched.submit(std::move(j));
    }
    mw::FailureInjector chaos(eng);
    chaos.add_cpu(a);
    chaos.add_cpu(b);
    chaos.schedule_outage(0, 2.0, 0.0);  // crash and repair tied at t = 2
    sched.run();
    // The invariant must hold at every instant, not just at the end.
    const std::size_t allowed = policy == mw::RecoveryPolicyKind::kReplicate ? rcfg.replicas : 1;
    while (eng.step()) {
      for (std::size_t slot = 0; slot < sched.task_count(); ++slot) {
        const auto v = sched.task_view(slot);
        EXPECT_LE(v.live_copies, allowed) << "policy " << mw::to_string(policy) << " job "
                                          << v.job_id << " at t=" << eng.now();
      }
    }
    EXPECT_EQ(sched.completed(), 3u) << mw::to_string(policy);
    EXPECT_EQ(sched.lost(), 0u) << mw::to_string(policy);
  }
}
