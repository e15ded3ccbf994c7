// Cross-cutting property suites: conservation laws, adversarial
// pending-set patterns, and randomized whole-subsystem sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "hosts/cpu.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer.hpp"

namespace core = lsds::core;
namespace hosts = lsds::hosts;
namespace net = lsds::net;

// --- adversarial pending-set patterns (all five structures) -----------------

class QueueAdversarial : public ::testing::TestWithParam<core::QueueKind> {
 protected:
  std::unique_ptr<core::EventQueue> make() { return core::make_event_queue(GetParam()); }
};

TEST_P(QueueAdversarial, AllSimultaneous) {
  auto q = make();
  for (core::EventId i = 1; i <= 5000; ++i) q->push({42.0, i});
  for (core::EventId i = 1; i <= 5000; ++i) {
    auto ev = q->pop();
    ASSERT_EQ(ev.seq, i);
    ASSERT_DOUBLE_EQ(ev.time, 42.0);
  }
}

TEST_P(QueueAdversarial, HugeTimeJumps) {
  // Decades-apart clusters stress calendar year-walking and ladder epochs.
  auto q = make();
  core::RngStream rng(8);
  core::EventId seq = 1;
  double base = 0;
  for (int cluster = 0; cluster < 20; ++cluster) {
    for (int i = 0; i < 50; ++i) q->push({base + rng.uniform(0, 1e-3), seq++});
    base += 1e9;  // jump ~30 years
  }
  double last = -1;
  while (!q->empty()) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST_P(QueueAdversarial, DecreasingDensity) {
  // Geometric thinning: dense near zero, exponentially sparse later.
  auto q = make();
  core::EventId seq = 1;
  double t = 1e-6;
  for (int i = 0; i < 3000; ++i) {
    q->push({t, seq++});
    t *= 1.01;
  }
  double last = -1;
  while (!q->empty()) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST_P(QueueAdversarial, InterleavedNearAndFar) {
  // Hold loop that alternates +epsilon and +huge increments.
  auto q = make();
  core::EventId seq = 1;
  q->push({0.0, seq++});
  double last = -1;
  for (int i = 0; i < 4000; ++i) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
    q->push({ev.time + ((i % 2) ? 1e-9 : 1e6), seq++});
  }
}

INSTANTIATE_TEST_SUITE_P(AllStructures, QueueAdversarial,
                         ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// --- conservation laws -------------------------------------------------

TEST(Conservation, FlowNetworkDeliversExactlyWhatWasSent) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 3});
  core::RngStream trng(9);
  auto topo = net::Topology::random_connected(10, 6, 1e6, 0.001, trng);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  auto& rng = eng.rng("flows");
  double total = 0;
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 9));
    auto d = static_cast<net::NodeId>(rng.uniform_int(0, 8));
    if (d >= s) ++d;
    const double bytes = rng.uniform(1e4, 5e6);
    total += bytes;
    eng.schedule_at(rng.uniform(0, 20), [&fn, s, d, bytes] { fn.start_flow(s, d, bytes); });
  }
  eng.run();
  EXPECT_EQ(fn.flows_completed(), 60u);
  EXPECT_NEAR(fn.total_bytes_delivered(), total, total * 1e-9);
  EXPECT_EQ(fn.active_flows(), 0u);
}

TEST(Conservation, CpuDeliversExactlyRequestedOps) {
  for (auto policy : {hosts::SharingPolicy::kSpaceShared, hosts::SharingPolicy::kTimeShared}) {
    core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 4});
    hosts::CpuResource cpu(eng, "n", 3, 100.0, policy);
    auto& rng = eng.rng("jobs");
    double total = 0;
    for (int i = 1; i <= 50; ++i) {
      const double ops = rng.uniform(10, 2000);
      total += ops;
      eng.schedule_at(rng.uniform(0, 10), [&cpu, i, ops] {
        cpu.submit(static_cast<hosts::JobId>(i), ops, nullptr);
      });
    }
    eng.run();
    EXPECT_EQ(cpu.jobs_completed(), 50u) << to_string(policy);
    EXPECT_NEAR(cpu.busy_ops(), total, 1.0) << to_string(policy);
  }
}

TEST(Conservation, PacketAccountingBalances) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 5});
  auto topo = net::Topology::dumbbell(3, 3, 1e7, 0.0005, 1e6, 0.002);
  net::Routing routing(topo);
  net::PacketNetwork::Config cfg;
  cfg.queue_packets = 8;  // force drops
  net::PacketNetwork pn(eng, routing, cfg);
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    pn.start_transfer(static_cast<net::NodeId>(2 + i), static_cast<net::NodeId>(5 + i), 200000,
                      [&](net::TransferId) { ++completed; });
  }
  eng.run();
  const auto& s = pn.stats();
  EXPECT_EQ(completed, 3);
  // Every sent packet was either delivered or dropped...
  EXPECT_EQ(s.packets_sent, s.packets_delivered + s.packets_dropped);
  // ...every drop was eventually retransmitted...
  EXPECT_EQ(s.retransmits, s.packets_dropped);
  // ...and the payload arrived exactly once per packet slot.
  const auto expected_packets = 3u * static_cast<std::uint64_t>(std::ceil(200000.0 / 1500.0));
  EXPECT_EQ(s.packets_delivered, expected_packets);
}

// --- randomized packet-network sweeps ----------------------------------

class PacketSweep : public ::testing::TestWithParam<int> {};

TEST_P(PacketSweep, AllTransfersCompleteOnRandomTopologies) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = seed});
  core::RngStream trng(seed * 7 + 1);
  auto topo = net::Topology::random_connected(8, 4, 2e6, 0.002, trng);
  net::Routing routing(topo);
  net::PacketNetwork::Config cfg;
  cfg.queue_packets = 12;
  net::PacketNetwork pn(eng, routing, cfg);
  auto& rng = eng.rng("transfers");
  int completed = 0;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 7));
    auto d = static_cast<net::NodeId>(rng.uniform_int(0, 6));
    if (d >= s) ++d;
    eng.schedule_at(rng.uniform(0, 5), [&pn, s, d, &completed] {
      pn.start_transfer(s, d, 100000, [&completed](net::TransferId) { ++completed; });
    });
  }
  eng.run();
  EXPECT_EQ(completed, n);
  EXPECT_EQ(pn.active_transfers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketSweep, ::testing::Range(1, 9));

// --- transfer service conservation -----------------------------------------

TEST(Conservation, TransferServiceCompletesEverySubmission) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 6});
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0.001);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  net::TransferService::Config cfg;
  cfg.max_streams_per_pair = 2;
  net::TransferService svc(eng, fn, cfg);
  auto& rng = eng.rng("xfers");
  double total = 0;
  for (int i = 0; i < 40; ++i) {
    const double bytes = rng.uniform(1e3, 1e6);
    total += bytes;
    eng.schedule_at(rng.uniform(0, 10), [&svc, a, b, bytes] { svc.submit(a, b, bytes); });
  }
  eng.run();
  EXPECT_EQ(svc.completed(), 40u);
  EXPECT_EQ(svc.queued(), 0u);
  EXPECT_NEAR(svc.bytes_completed(), total, 1.0);
  // FIFO per pair: waits are finite and recorded for every transfer.
  EXPECT_EQ(svc.queue_waits().count(), 40u);
}

// --- engine determinism across queue structures on a full scenario ----------

class FullScenarioDeterminism : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(FullScenarioDeterminism, FlowScenarioIdenticalAcrossStructures) {
  auto run_with = [](core::QueueKind kind) {
    core::Engine eng({.queue = kind, .seed = 77});
    core::RngStream trng(123);
    auto topo = net::Topology::random_connected(12, 8, 1e6, 0.001, trng);
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing);
    auto& rng = eng.rng("wl");
    std::vector<double> completions;
    for (int i = 0; i < 40; ++i) {
      const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 11));
      auto d = static_cast<net::NodeId>(rng.uniform_int(0, 10));
      if (d >= s) ++d;
      eng.schedule_at(rng.uniform(0, 30), [&, s, d] {
        fn.start_flow(s, d, 1e6, [&](net::FlowId) { completions.push_back(eng.now()); });
      });
    }
    eng.run();
    return completions;
  };
  const auto ref = run_with(core::QueueKind::kBinaryHeap);
  const auto got = run_with(GetParam());
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_DOUBLE_EQ(got[i], ref[i]);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, FullScenarioDeterminism,
                         ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });
