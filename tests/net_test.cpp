// Network substrate: topology builders, routing, flow-level max-min model,
// transfer service, packet-level model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "net/flow.hpp"
#include "net/packet.hpp"
#include "net/partition.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer.hpp"
#include "stats/analytical.hpp"
#include "util/units.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace u = lsds::util;

// --- topology -------------------------------------------------------------

TEST(Topology, StarShape) {
  const auto t = net::Topology::star(5, u::gbps(1), 0.001);
  EXPECT_EQ(t.node_count(), 6u);
  EXPECT_EQ(t.link_count(), 5u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.node(0).kind, net::NodeKind::kRouter);
  EXPECT_EQ(t.links_of(0).size(), 5u);
}

TEST(Topology, DumbbellShape) {
  const auto t = net::Topology::dumbbell(3, 3, u::gbps(10), 1e-4, u::gbps(1), 0.01);
  EXPECT_EQ(t.node_count(), 8u);
  EXPECT_EQ(t.link_count(), 7u);
  EXPECT_TRUE(t.connected());
  EXPECT_EQ(t.link(0).name, "bottleneck");
  EXPECT_DOUBLE_EQ(t.link(0).bandwidth, u::gbps(1));
}

TEST(Topology, RingAndMesh) {
  const auto ring = net::Topology::ring(6, 1e8, 0.001);
  EXPECT_EQ(ring.link_count(), 6u);
  EXPECT_TRUE(ring.connected());
  const auto mesh = net::Topology::full_mesh(5, 1e8, 0.001);
  EXPECT_EQ(mesh.link_count(), 10u);
  EXPECT_TRUE(mesh.connected());
}

TEST(Topology, RandomConnectedIsConnected) {
  core::RngStream rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = net::Topology::random_connected(30, 15, 1e8, 0.001, rng);
    EXPECT_EQ(t.node_count(), 30u);
    EXPECT_EQ(t.link_count(), 29u + 15u);
    EXPECT_TRUE(t.connected());
  }
}

TEST(Topology, OtherEnd) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto l = t.add_link(a, b, 1e6, 0.001);
  EXPECT_EQ(t.other_end(l, a), b);
  EXPECT_EQ(t.other_end(l, b), a);
}

// --- topology text serialization ------------------------------------------

TEST(TopologyText, RoundTrip) {
  auto t = net::Topology::dumbbell(2, 2, u::mbps(100), 0.0005, u::gbps(1), 0.01);
  const auto text = t.to_text();
  const auto back = net::Topology::from_text(text);
  ASSERT_EQ(back.node_count(), t.node_count());
  ASSERT_EQ(back.link_count(), t.link_count());
  for (net::NodeId n = 0; n < t.node_count(); ++n) {
    EXPECT_EQ(back.node(n).name, t.node(n).name);
    EXPECT_EQ(back.node(n).kind, t.node(n).kind);
  }
  for (net::LinkId l = 0; l < t.link_count(); ++l) {
    EXPECT_EQ(back.link(l).a, t.link(l).a);
    EXPECT_EQ(back.link(l).b, t.link(l).b);
    EXPECT_NEAR(back.link(l).bandwidth, t.link(l).bandwidth, t.link(l).bandwidth * 1e-6);
    EXPECT_NEAR(back.link(l).latency, t.link(l).latency, 1e-12);
  }
  EXPECT_TRUE(back.connected());
}

TEST(TopologyText, ParsesUnitsAndComments) {
  const auto t = net::Topology::from_text(R"(
# a tiny WAN
node cern
node fnal
node hub router
link cern hub 2.5Gbps 15ms transatlantic
link hub fnal 10Gbps 5ms
)");
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.link_count(), 2u);
  EXPECT_EQ(t.node(2).kind, net::NodeKind::kRouter);
  EXPECT_DOUBLE_EQ(t.link(0).bandwidth, u::gbps(2.5));
  EXPECT_DOUBLE_EQ(t.link(0).latency, 0.015);
  EXPECT_EQ(t.link(0).name, "transatlantic");
}

TEST(TopologyText, RejectsMalformedInput) {
  EXPECT_THROW(net::Topology::from_text("node\n"), std::runtime_error);
  EXPECT_THROW(net::Topology::from_text("node a\nnode a\n"), std::runtime_error);
  EXPECT_THROW(net::Topology::from_text("node a\nlink a ghost 1Gbps 1ms\n"),
               std::runtime_error);
  EXPECT_THROW(net::Topology::from_text("node a\nnode b\nlink a b 100 1ms\n"),
               std::runtime_error);  // bandwidth without unit
  EXPECT_THROW(net::Topology::from_text("frobnicate\n"), std::runtime_error);
}

// --- routing ------------------------------------------------------------

TEST(Routing, ShortestByLatency) {
  // Triangle with a slow direct edge and a fast two-hop detour.
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  t.add_link(a, b, 1e8, 0.100);  // direct, slow
  const auto l_ac = t.add_link(a, c, 1e8, 0.010);
  const auto l_cb = t.add_link(c, b, 1e8, 0.010);
  net::Routing r(t);
  const auto& route = r.route(a, b);
  ASSERT_TRUE(route.valid);
  ASSERT_EQ(route.links.size(), 2u);
  EXPECT_EQ(route.links[0], l_ac);
  EXPECT_EQ(route.links[1], l_cb);
  EXPECT_DOUBLE_EQ(route.total_latency, 0.020);
}

TEST(Routing, HopMetricPrefersDirect) {
  net::Topology t;
  const auto a = t.add_node("a");
  const auto b = t.add_node("b");
  const auto c = t.add_node("c");
  const auto l_ab = t.add_link(a, b, 1e8, 0.100);
  t.add_link(a, c, 1e8, 0.010);
  t.add_link(c, b, 1e8, 0.010);
  net::Routing r(t, net::RouteMetric::kHops);
  const auto& route = r.route(a, b);
  ASSERT_EQ(route.links.size(), 1u);
  EXPECT_EQ(route.links[0], l_ab);
}

TEST(Routing, SelfRouteIsEmpty) {
  net::Topology t;
  const auto a = t.add_node("a");
  t.add_node("b");
  t.add_link(0, 1, 1e8, 0.001);
  net::Routing r(t);
  const auto& route = r.route(a, a);
  EXPECT_TRUE(route.valid);
  EXPECT_TRUE(route.links.empty());
  EXPECT_DOUBLE_EQ(route.total_latency, 0.0);
}

TEST(Routing, UnreachableIsInvalid) {
  net::Topology t;
  t.add_node("a");
  t.add_node("b");  // no link
  net::Routing r(t);
  EXPECT_FALSE(r.route(0, 1).valid);
}

// --- topology partitioning ---------------------------------------------------

namespace {

// Two-level clusters: 3 regions hang off a core router at 50 ms, each with
// 2 switches at 10 ms, each switch with 3 hosts at zero latency. Sites are
// the 18 hosts, in (region, switch, host) order.
struct Regions {
  net::Topology topo;
  std::vector<net::NodeId> sites;
  Regions() {
    const auto core_router = topo.add_node("core", net::NodeKind::kRouter);
    for (int r = 0; r < 3; ++r) {
      const auto region = topo.add_node("region", net::NodeKind::kRouter);
      topo.add_link(core_router, region, 1e9, 0.05);
      for (int s = 0; s < 2; ++s) {
        const auto sw = topo.add_node("switch", net::NodeKind::kRouter);
        topo.add_link(region, sw, 1e9, 0.01);
        for (int h = 0; h < 3; ++h) {
          sites.push_back(topo.add_node("host"));
          topo.add_link(sw, sites.back(), 1e9, 0.0);
        }
      }
    }
  }
};

/// The smallest latency(i, j) between two sites in different partitions:
/// the lookahead of a model that declares every pair.
template <class Latency>
double min_cut_latency(const net::Partition& p, Latency latency) {
  double lo = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < p.owner.size(); ++i) {
    for (std::size_t j = 0; j < p.owner.size(); ++j) {
      if (p.owner[i] != p.owner[j]) lo = std::min(lo, latency(i, j));
    }
  }
  return lo;
}

}  // namespace

TEST(Partition, TopologyKeepsClustersThatFitWhole) {
  Regions g;
  net::Routing routing(g.topo);
  // parts -> (cap, sites per kept cluster, lookahead): 3 parts keep each
  // region, 6 keep each switch, and 4 (cap 5) still never split a switch.
  struct Case {
    unsigned parts;
    std::size_t whole;
    double lookahead;
  };
  for (const Case& c : {Case{3, 6, 0.12}, Case{6, 3, 0.02}, Case{4, 3, 0.02}}) {
    SCOPED_TRACE(std::to_string(c.parts) + " parts");
    const auto p = net::partition_sites(routing, g.sites, c.parts, net::PartitionScheme::kTopology);
    ASSERT_EQ(p.parts, c.parts);
    ASSERT_EQ(p.owner.size(), g.sites.size());
    for (std::size_t i = 0; i < g.sites.size(); ++i) {
      EXPECT_EQ(p.owner[i], p.owner[i - i % c.whole]) << "site " << i << " cut from its cluster";
    }
    std::vector<std::size_t> load(p.parts, 0);
    for (unsigned o : p.owner) ++load[o];
    EXPECT_GT(*std::min_element(load.begin(), load.end()), 0u);
    const std::size_t n = g.sites.size();
    ASSERT_EQ(p.latency.size(), n * n);
    EXPECT_EQ(p.latency[1], routing.path_latency(g.sites[0], g.sites[1]));
    const auto latency = [&](std::size_t i, std::size_t j) { return p.latency[i * n + j]; };
    EXPECT_NEAR(min_cut_latency(p, latency), c.lookahead, 1e-12);
  }
}

TEST(Partition, TopologyNeverCutsAZeroLatencyPairTheCapAllows) {
  // Zero-latency pairs scattered through the site list: (0, 5), (1, 4) and
  // (2, 3) share a switch; the switches are 20 ms apart. Two parts (cap 3)
  // keep every pair; round-robin cuts them.
  net::Topology t;
  const auto hub = t.add_node("hub", net::NodeKind::kRouter);
  std::vector<net::NodeId> sw;
  for (int k = 0; k < 3; ++k) {
    sw.push_back(t.add_node("switch", net::NodeKind::kRouter));
    t.add_link(hub, sw.back(), 1e9, 0.01);
  }
  std::vector<net::NodeId> sites;
  for (int k : {0, 1, 2, 2, 1, 0}) {
    sites.push_back(t.add_node("host"));
    t.add_link(sw[k], sites.back(), 1e9, 0.0);
  }
  net::Routing routing(t);
  const auto p = net::partition_sites(routing, sites, 2, net::PartitionScheme::kTopology);
  EXPECT_EQ(p.owner[0], p.owner[5]);
  EXPECT_EQ(p.owner[1], p.owner[4]);
  EXPECT_EQ(p.owner[2], p.owner[3]);
  const auto latency = [&](std::size_t i, std::size_t j) {
    return routing.path_latency(sites[i], sites[j]);
  };
  EXPECT_EQ(min_cut_latency(p, latency), 0.02);
  const auto rr = net::partition_sites(routing, sites, 2, net::PartitionScheme::kRoundRobin);
  EXPECT_EQ(min_cut_latency(rr, latency), 0.0);
  EXPECT_TRUE(rr.latency.empty());
}

TEST(Topology, EpochAdvancesOnMutation) {
  net::Topology t;
  const auto e0 = t.epoch();
  t.add_node("a");
  EXPECT_GT(t.epoch(), e0);
  t.add_node("b");
  const auto e1 = t.epoch();
  t.add_link(0, 1, 1e8, 0.001);
  EXPECT_GT(t.epoch(), e1);
}

// Regression: Routing::route() used to return references into a cache built
// from a topology that could keep growing — mutating the topology after the
// first query silently dangled every previously returned Route. The epoch
// check turns that into an immediate assert.
TEST(RoutingDeathTest, TopologyMutationAfterQueryAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "epoch check is assert-based (debug only)";
#else
  net::Topology t;
  t.add_node("a");
  t.add_node("b");
  t.add_node("c");
  t.add_link(0, 1, 1e8, 0.001);
  t.add_link(1, 2, 1e8, 0.001);
  net::Routing r(t);
  ASSERT_TRUE(r.route(0, 1).valid);  // caches + captures the epoch
  t.add_link(0, 2, 1e8, 0.005);     // mutation invalidates cached paths
  EXPECT_DEATH(r.route(0, 2), "Topology mutated after Routing cached routes");
#endif
}

// --- flow-level model --------------------------------------------------

namespace {

struct FlowFixtureResult {
  std::vector<double> completion_times;
};

}  // namespace

TEST(FlowNetwork, SingleFlowLatencyPlusBandwidth) {
  core::Engine eng;
  auto topo = net::Topology::star(2, 1e6, 0.05);  // two hosts via hub: 2 hops
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double done_at = -1;
  fn.start_flow(1, 2, 1e6, [&](net::FlowId) { done_at = eng.now(); });
  eng.run();
  // Route latency 0.1s; 1 MB over two 1 MB/s links (the flow is the only
  // user, so rate = 1 MB/s): 0.1 + 1.0.
  EXPECT_NEAR(done_at, 1.1, 1e-9);
  EXPECT_EQ(fn.flows_completed(), 1u);
  EXPECT_NEAR(fn.total_bytes_delivered(), 1e6, 1.0);
}

TEST(FlowNetwork, EqualSharesOnSharedBottleneck) {
  core::Engine eng;
  auto topo = net::Topology::dumbbell(4, 4, 1e9, 0, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  std::vector<double> done;
  for (int i = 0; i < 4; ++i) {
    fn.start_flow(static_cast<net::NodeId>(2 + i), static_cast<net::NodeId>(6 + i), 1e6,
                  [&](net::FlowId) { done.push_back(eng.now()); });
  }
  eng.run();
  ASSERT_EQ(done.size(), 4u);
  const double expect =
      lsds::stats::maxmin_equal_share_completion(1e6, 1e6, 4);
  for (double t : done) EXPECT_NEAR(t, expect, 1e-6);
}

TEST(FlowNetwork, RatesRecomputeOnDeparture) {
  // Two flows share a 1 MB/s link; one is 0.5 MB, the other 1 MB. The short
  // one finishes at t=1 (rate 0.5); the long one then speeds up:
  // remaining 0.5 MB at 1 MB/s -> finishes at 1.5.
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double t_short = -1, t_long = -1;
  fn.start_flow(a, b, 0.5e6, [&](net::FlowId) { t_short = eng.now(); });
  fn.start_flow(a, b, 1e6, [&](net::FlowId) { t_long = eng.now(); });
  eng.run();
  EXPECT_NEAR(t_short, 1.0, 1e-9);
  EXPECT_NEAR(t_long, 1.5, 1e-9);
}

TEST(FlowNetwork, MidStreamArrivalSlowsExisting) {
  // Flow A alone for 1s (moves 1 MB), then B joins: both at 0.5 MB/s.
  // A has 1 MB left -> finishes at 1 + 2 = 3.
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double t_a = -1;
  fn.start_flow(a, b, 2e6, [&](net::FlowId) { t_a = eng.now(); });
  eng.schedule_at(1.0, [&] { fn.start_flow(a, b, 10e6, nullptr); });
  eng.run_until(3.5);
  EXPECT_NEAR(t_a, 3.0, 1e-6);
}

TEST(FlowNetwork, MaxMinUnevenPaths) {
  // Two-link line a-m-b. Flow1: a->b (both links). Flow2: a->m (link0 only),
  // Flow3: m->b (link1 only). Max-min: each link shared by 2 flows -> all
  // rates C/2.
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto m = topo.add_node("m");
  const auto b = topo.add_node("b");
  topo.add_link(a, m, 1e6, 0);
  topo.add_link(m, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.start_flow(a, b, 1e9);
  fn.start_flow(a, m, 1e9);
  fn.start_flow(m, b, 1e9);
  eng.run_until(0.001);  // let activations happen (latency 0)
  EXPECT_NEAR(fn.link_load(0), 1e6, 1.0);
  EXPECT_NEAR(fn.link_load(1), 1e6, 1.0);
  EXPECT_NEAR(fn.link_utilization(0), 1.0, 1e-6);
}

TEST(FlowNetwork, BottleneckRestrictedFlowLeavesSpare) {
  // Flow1 a->b via bottleneck 1 MB/s; Flow2 on a separate fat path keeps
  // its full share: classic max-min (not proportional) behavior.
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  topo.add_link(a, b, 1e6, 0);   // narrow
  topo.add_link(a, c, 4e6, 0);   // fat
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.start_flow(a, b, 1e9);
  fn.start_flow(a, c, 1e9);
  eng.run_until(0.001);
  EXPECT_NEAR(fn.link_load(0), 1e6, 1.0);
  EXPECT_NEAR(fn.link_load(1), 4e6, 1.0);
}

TEST(FlowNetwork, CancelReleasesBandwidth) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double t_done = -1;
  fn.start_flow(a, b, 1e6, [&](net::FlowId) { t_done = eng.now(); });
  const auto victim = fn.start_flow(a, b, 1e6);
  eng.schedule_at(0.5, [&] { EXPECT_TRUE(fn.cancel(victim)); });
  eng.run();
  // Both at 0.5 MB/s until t=0.5 (0.25 MB moved), then full speed:
  // 0.75 MB remaining at 1 MB/s -> done at 1.25.
  EXPECT_NEAR(t_done, 1.25, 1e-6);
  EXPECT_EQ(fn.flows_completed(), 1u);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterLatency) {
  core::Engine eng;
  auto topo = net::Topology::star(2, 1e6, 0.05);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double done_at = -1;
  fn.start_flow(1, 2, 0, [&](net::FlowId) { done_at = eng.now(); });
  eng.run();
  EXPECT_NEAR(done_at, 0.1, 1e-12);
}

TEST(FlowNetwork, SameNodeTransferInstant) {
  core::Engine eng;
  auto topo = net::Topology::star(2, 1e6, 0.05);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double done_at = -1;
  fn.start_flow(1, 1, 5e6, [&](net::FlowId) { done_at = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 0.0);
}

TEST(FlowNetwork, UnreachableThrows) {
  core::Engine eng;
  net::Topology topo;
  topo.add_node("a");
  topo.add_node("b");
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  EXPECT_THROW(fn.start_flow(0, 1, 100), std::invalid_argument);
}

// Admission checks stay in every build type: a bad size or weight throws
// and admits nothing.
struct BadFlow {
  const char* name;
  double bytes;
  double weight;
};

void PrintTo(const BadFlow& f, std::ostream* os) { *os << f.name; }

class FlowNetworkRejects : public ::testing::TestWithParam<BadFlow> {};

TEST_P(FlowNetworkRejects, BadBytesOrWeight) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  EXPECT_THROW(fn.start_flow_weighted(a, b, GetParam().bytes, GetParam().weight),
               std::invalid_argument);
  EXPECT_EQ(fn.active_flows(), 0u);
  EXPECT_EQ(eng.pending(), 0u);
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    FlowNetwork, FlowNetworkRejects,
    ::testing::Values(BadFlow{"NegativeBytes", -5, 1}, BadFlow{"NanBytes", kNan, 1},
                      BadFlow{"InfiniteBytes", kInf, 1}, BadFlow{"ZeroWeight", 1e6, 0},
                      BadFlow{"NegativeWeight", 1e6, -1}, BadFlow{"NanWeight", 1e6, kNan},
                      BadFlow{"InfiniteWeight", 1e6, kInf}),
    [](const ::testing::TestParamInfo<BadFlow>& info) { return info.param.name; });

TEST(FlowNetwork, TrackedSeriesRecordsUtilization) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.track_link(0);
  fn.start_flow(a, b, 1e6);
  eng.run();
  const auto& series = fn.link_series(0);
  ASSERT_GE(series.size(), 1u);
  EXPECT_NEAR(series.max_value(), 1.0, 1e-9);
}

// Property suite: max-min invariants on randomized scenarios across
// several topologies. Invariants checked at a probe instant:
//  (1) no link carries more than its capacity;
//  (2) every active flow has a saturated link on its path (bottleneck);
//  (3) rates are positive for all sharing flows.
class MaxMinProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinProperty, InvariantsHold) {
  const int seed = GetParam();
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = static_cast<std::uint64_t>(seed)});
  core::RngStream topo_rng(static_cast<std::uint64_t>(seed) * 13 + 1);
  auto topo = net::Topology::random_connected(12, 8, 1e6, 0.0, topo_rng);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  auto& rng = eng.rng("flows");
  std::vector<net::FlowId> ids;
  std::vector<std::vector<net::LinkId>> routes;
  for (int i = 0; i < 30; ++i) {
    const auto s = static_cast<net::NodeId>(rng.uniform_int(0, 11));
    auto d = static_cast<net::NodeId>(rng.uniform_int(0, 10));
    if (d >= s) ++d;
    ids.push_back(fn.start_flow(s, d, 1e12));  // huge: stays active
    routes.push_back(routing.route(s, d).links);
  }
  eng.run_until(0.5);  // all active now

  // (1) capacity respected
  for (net::LinkId l = 0; l < topo.link_count(); ++l) {
    EXPECT_LE(fn.link_load(l), topo.link(l).bandwidth * (1 + 1e-9));
  }
  // (2)+(3): every flow bottlenecked and positive
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const double r = fn.flow_rate(ids[i]);
    EXPECT_GT(r, 0.0);
    bool saturated = false;
    for (auto l : routes[i]) {
      if (fn.link_load(l) >= topo.link(l).bandwidth * (1 - 1e-6)) saturated = true;
    }
    EXPECT_TRUE(saturated) << "flow " << i << " has no saturated link";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty, ::testing::Range(1, 11));

// --- transfer service ------------------------------------------------------

TEST(TransferService, StreamLimitQueues) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  net::TransferService::Config cfg;
  cfg.max_streams_per_pair = 1;
  net::TransferService svc(eng, fn, cfg);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    svc.submit(a, b, 1e6, [&](const net::TransferRecord& r) { done.push_back(r.finish_time); });
  }
  eng.run();
  // Serialized: 1s each.
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 1.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
  EXPECT_NEAR(done[2], 3.0, 1e-6);
  EXPECT_NEAR(svc.queue_waits().max(), 2.0, 1e-6);
  EXPECT_EQ(svc.completed(), 3u);
  EXPECT_NEAR(svc.bytes_completed(), 3e6, 1.0);
}

TEST(TransferService, UnlimitedSharesBandwidth) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  net::TransferService svc(eng, fn);
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    svc.submit(a, b, 1e6, [&](const net::TransferRecord& r) { done.push_back(r.finish_time); });
  }
  eng.run();
  ASSERT_EQ(done.size(), 3u);
  for (double t : done) EXPECT_NEAR(t, 3.0, 1e-6);  // all share: 3x slower
}

TEST(TransferService, RetryBackoffSequenceRespectsCapAndFailsOnce) {
  // Dial-delay sequence is retry_backoff × backoff_factor^k clamped at
  // backoff_cap, and exhausting max_attempts marks the record failed exactly
  // once. With backoff 0.5, factor 2 and cap 1.5 the dead-link dials land at
  // t = 0, 0.5, 1.5 (0.5 + 1.0), 3.0 (+1.5 capped, not +2.0).
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  fn.set_failure_semantics(lsds::core::FailureSemantics::kFailStop);
  fn.set_link_up(0, false);  // dead for the whole run

  net::TransferService::Config cfg;
  cfg.max_attempts = 4;
  cfg.retry_backoff = 0.5;
  cfg.backoff_factor = 2.0;
  cfg.backoff_cap = 1.5;
  net::TransferService svc(eng, fn, cfg);

  int done_calls = 0;
  net::TransferRecord rec;
  svc.submit(a, b, 1e6, [&](const net::TransferRecord& r) {
    ++done_calls;
    rec = r;
  });
  // Each dead dial aborts one flow; probe the abort counter between the
  // expected dial times to pin the whole delay sequence.
  eng.schedule_at(0.25, [&] { EXPECT_EQ(fn.flows_aborted(), 1u); });
  eng.schedule_at(1.0, [&] { EXPECT_EQ(fn.flows_aborted(), 2u); });   // redial at 0.5
  eng.schedule_at(2.0, [&] { EXPECT_EQ(fn.flows_aborted(), 3u); });   // redial at 1.5
  eng.schedule_at(2.9, [&] { EXPECT_EQ(fn.flows_aborted(), 3u); });   // cap: not before 3.0
  eng.run();

  EXPECT_EQ(fn.flows_aborted(), 4u);  // final dial at 3.0
  EXPECT_EQ(done_calls, 1);           // failure reported exactly once
  EXPECT_TRUE(rec.failed);
  EXPECT_EQ(rec.attempts, 4u);
  EXPECT_DOUBLE_EQ(rec.finish_time, 3.0);
  EXPECT_EQ(svc.retries(), 3u);
  EXPECT_EQ(svc.failed(), 1u);
  EXPECT_EQ(svc.completed(), 0u);
  EXPECT_EQ(eng.tombstone_count(), 0u);
}

// --- packet-level model ------------------------------------------------

TEST(PacketNetwork, SingleTransferCompletes) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0.001);
  net::Routing routing(topo);
  net::PacketNetwork pn(eng, routing);
  double done_at = -1;
  pn.start_transfer(a, b, 150000, [&](net::TransferId) { done_at = eng.now(); });
  eng.run();
  EXPECT_GT(done_at, 0.15);  // >= serialization time of 100 packets
  EXPECT_LT(done_at, 1.0);
  EXPECT_EQ(pn.stats().transfers_completed, 1u);
  EXPECT_EQ(pn.stats().packets_delivered, 100u);
  EXPECT_EQ(pn.stats().packets_dropped, 0u);
}

TEST(PacketNetwork, PacketizationRoundsUp) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e8, 0.0001);
  net::Routing routing(topo);
  net::PacketNetwork pn(eng, routing);
  pn.start_transfer(a, b, 1, nullptr);       // 1 byte -> 1 packet
  pn.start_transfer(a, b, 1501, nullptr);    // -> 2 packets
  eng.run();
  EXPECT_EQ(pn.stats().packets_delivered, 3u);
}

TEST(PacketNetwork, CongestionCausesDropsAndRecovery) {
  // Many simultaneous transfers through a slow bottleneck with a tiny queue:
  // drops must occur, and every transfer must still complete (retransmits).
  core::Engine eng;
  auto topo = net::Topology::dumbbell(4, 4, 1e7, 0.0005, 1e6, 0.005);
  net::Routing routing(topo);
  net::PacketNetwork::Config cfg;
  cfg.queue_packets = 10;
  net::PacketNetwork pn(eng, routing, cfg);
  int completed = 0;
  for (int i = 0; i < 4; ++i) {
    pn.start_transfer(static_cast<net::NodeId>(2 + i), static_cast<net::NodeId>(6 + i), 300000,
                      [&](net::TransferId) { ++completed; });
  }
  eng.run();
  EXPECT_EQ(completed, 4);
  EXPECT_GT(pn.stats().packets_dropped, 0u);
  EXPECT_EQ(pn.stats().retransmits, pn.stats().packets_dropped);
  EXPECT_EQ(pn.active_transfers(), 0u);
}

TEST(PacketNetwork, AgreesWithFlowModelOnUncongestedPath) {
  // On an uncongested single flow the two granularities should agree within
  // ~15% (window ramp-up causes a small slowdown at packet level).
  const double bytes = 1.5e6;
  const double bw = 1e6;
  double t_flow = -1, t_packet = -1;
  {
    core::Engine eng;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, bw, 0.001);
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing);
    fn.start_flow(a, b, bytes, [&](net::FlowId) { t_flow = eng.now(); });
    eng.run();
  }
  {
    core::Engine eng;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, bw, 0.001);
    net::Routing routing(topo);
    net::PacketNetwork pn(eng, routing);
    pn.start_transfer(a, b, bytes, [&](net::TransferId) { t_packet = eng.now(); });
    eng.run();
  }
  ASSERT_GT(t_flow, 0);
  ASSERT_GT(t_packet, 0);
  EXPECT_NEAR(t_packet / t_flow, 1.0, 0.15);
}

TEST(PacketNetwork, PerPacketCostExceedsFlowCost) {
  // The paper's granularity trade-off: count engine events for the same
  // scenario under both models.
  const double bytes = 1.5e6;
  std::uint64_t ev_flow = 0, ev_packet = 0;
  {
    core::Engine eng;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, 1e6, 0.001);
    net::Routing routing(topo);
    net::FlowNetwork fn(eng, routing);
    fn.start_flow(a, b, bytes);
    eng.run();
    ev_flow = eng.stats().executed;
  }
  {
    core::Engine eng;
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    topo.add_link(a, b, 1e6, 0.001);
    net::Routing routing(topo);
    net::PacketNetwork pn(eng, routing);
    pn.start_transfer(a, b, bytes);
    eng.run();
    ev_packet = eng.stats().executed;
  }
  EXPECT_GT(ev_packet, 100 * ev_flow);
}

TEST(TransferService, RejectsInvalidRetryConfig) {
  core::Engine eng;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);

  auto make = [&](double backoff, double factor, double cap) {
    net::TransferService::Config cfg;
    cfg.retry_backoff = backoff;
    cfg.backoff_factor = factor;
    cfg.backoff_cap = cap;
    net::TransferService svc(eng, fn, cfg);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  EXPECT_NO_THROW(make(1.0, 2.0, 60.0));
  EXPECT_NO_THROW(make(1e-9, 1.0, 0.0));  // boundary values are legal

  // A zero or negative backoff would re-dial a dead link in a tight loop at
  // the same timestamp — reject at construction, not mid-simulation.
  EXPECT_THROW(make(0.0, 2.0, 60.0), std::invalid_argument);
  EXPECT_THROW(make(-1.0, 2.0, 60.0), std::invalid_argument);
  EXPECT_THROW(make(nan, 2.0, 60.0), std::invalid_argument);

  EXPECT_THROW(make(1.0, 0.5, 60.0), std::invalid_argument);  // shrinking backoff
  EXPECT_THROW(make(1.0, nan, 60.0), std::invalid_argument);

  EXPECT_THROW(make(1.0, 2.0, -1.0), std::invalid_argument);
  EXPECT_THROW(make(1.0, 2.0, inf), std::invalid_argument);
  EXPECT_THROW(make(1.0, 2.0, nan), std::invalid_argument);
}
