// Differential suite for hierarchical routing zones (net/zone.hpp): every
// zone kind, materialized to the equivalent flat Topology, must produce
// BYTE-identical answers to net::Routing's Dijkstra — same Route.links,
// bitwise-identical total_latency, path_latency and bottleneck_bandwidth —
// for all addressable (src, dst) pairs. path_latency takes the zones'
// route-free closed forms, so its bits pin their reverse summation order.
// Plus fuzzed random-pair checks at 10k hosts, route-symmetry and
// ZoneTree-composition invariants, the D-mod-k policy's weaker differential
// (same metrics, valid alternative path), the zone-structure partitioner,
// and end-to-end plumbing through FlowNetwork / TransferService /
// ParallelGrid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "core/rng.hpp"
#include "hosts/parallel_grid.hpp"
#include "net/flow.hpp"
#include "net/partition.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer.hpp"
#include "net/zone.hpp"
#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "util/ini.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace hosts = lsds::hosts;
namespace sim = lsds::sim;
namespace obs = lsds::obs;
namespace util = lsds::util;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::vector<net::NodeId> endpoints_of(const net::Zone& zone) {
  std::vector<net::NodeId> eps;
  for (std::size_t i = 0; i < zone.host_count(); ++i) eps.push_back(zone.host(i));
  eps.push_back(zone.gateway());
  return eps;
}

// The differential contract: zone answers == flat Dijkstra answers, byte
// for byte, over every addressable (src, dst) pair.
void expect_zone_matches_flat(const net::Zone& zone, const char* label) {
  const net::Topology topo = zone.to_topology();
  ASSERT_EQ(topo.node_count(), zone.node_count()) << label;
  ASSERT_EQ(topo.link_count(), zone.link_count()) << label;
  ASSERT_TRUE(topo.connected()) << label;
  net::Routing flat(topo);
  net::ZoneRouting zr(zone);
  const auto eps = endpoints_of(zone);
  for (net::NodeId src : eps) {
    for (net::NodeId dst : eps) {
      const net::Route zroute = zr.route(src, dst);  // copy: scratch-backed
      const net::Route& froute = flat.route(src, dst);
      ASSERT_TRUE(froute.valid) << label;
      ASSERT_EQ(zroute.links, froute.links) << label << " " << src << "->" << dst;
      ASSERT_EQ(bits(zroute.total_latency), bits(froute.total_latency))
          << label << " " << src << "->" << dst;
      ASSERT_EQ(bits(zr.path_latency(src, dst)), bits(flat.path_latency(src, dst)))
          << label << " " << src << "->" << dst;
      ASSERT_EQ(bits(zr.bottleneck_bandwidth(src, dst)), bits(flat.bottleneck_bandwidth(src, dst)))
          << label << " " << src << "->" << dst;
    }
  }
}

net::FatTreeSpec xgft(std::vector<std::uint32_t> m, std::vector<std::uint32_t> w,
                      double bw = 1e9, double lat = 1e-4) {
  net::FatTreeSpec s;
  s.children = std::move(m);
  s.parents = std::move(w);
  s.bandwidth.assign(s.children.size(), bw);
  s.latency.assign(s.children.size(), lat);
  // Distinct per-level values so a level mix-up cannot cancel out.
  for (std::size_t l = 0; l < s.children.size(); ++l) {
    s.bandwidth[l] = bw / static_cast<double>(l + 1);
    s.latency[l] = lat * static_cast<double>(l + 1);
  }
  return s;
}

std::unique_ptr<net::ZoneTree> make_mixed_tree() {
  auto tree = std::make_unique<net::ZoneTree>();
  tree->add_child(std::make_unique<net::StarZone>(net::StarSpec{5, 1e9, 2e-4}), 10e9, 3e-3);
  tree->add_child(
      std::make_unique<net::ClusterZone>(net::ClusterSpec{7, 1e9, 1e-4, 20e9, 1e-3}), 10e9, 5e-3);
  tree->add_child(std::make_unique<net::FatTreeZone>(xgft({2, 3}, {2, 2})), 40e9, 7e-3);
  return tree;
}

}  // namespace

// --- byte-identical differential, all zone kinds ---------------------------

TEST(ZoneVsFlat, StarAllPairs) {
  expect_zone_matches_flat(net::StarZone(net::StarSpec{16, 1e9, 5e-4}), "star16");
  // Zero-latency star: tree paths stay unique, so the contract must hold
  // even without link costs to break ties.
  expect_zone_matches_flat(net::StarZone(net::StarSpec{9, 2e9, 0.0}), "star9-zero-lat");
}

TEST(ZoneVsFlat, ClusterAllPairs) {
  expect_zone_matches_flat(net::ClusterZone(net::ClusterSpec{32, 1e9, 1e-4, 10e9, 2e-3}),
                           "cluster32");
}

// Cluster and star are trees: EVERY node pair (switches included) must
// match, not just hosts and gateway.
TEST(ZoneVsFlat, TreeShapedZonesMatchOnAllNodePairs) {
  const net::ClusterZone zone(net::ClusterSpec{6, 1e9, 1e-4, 10e9, 2e-3});
  const net::Topology topo = zone.to_topology();
  net::Routing flat(topo);
  net::ZoneRouting zr(zone);
  for (net::NodeId src = 0; src < zone.node_count(); ++src) {
    for (net::NodeId dst = 0; dst < zone.node_count(); ++dst) {
      const net::Route zroute = zr.route(src, dst);
      ASSERT_EQ(zroute.links, flat.route(src, dst).links) << src << "->" << dst;
      ASSERT_EQ(bits(zroute.total_latency), bits(flat.route(src, dst).total_latency));
      ASSERT_EQ(bits(zr.path_latency(src, dst)), bits(flat.path_latency(src, dst)));
      ASSERT_EQ(bits(zr.bottleneck_bandwidth(src, dst)), bits(flat.bottleneck_bandwidth(src, dst)));
    }
  }
}

TEST(ZoneVsFlat, FatTreeTwoLevelAllPairs) {
  // XGFT(2; 4,4; 1,2): 16 hosts, single-parent edge level, 2-way spines.
  expect_zone_matches_flat(net::FatTreeZone(xgft({4, 4}, {1, 2})), "xgft(2;4,4;1,2)");
  // Multi-parent at every level: equal-cost multipath from the very bottom.
  expect_zone_matches_flat(net::FatTreeZone(xgft({3, 3}, {2, 3})), "xgft(2;3,3;2,3)");
}

TEST(ZoneVsFlat, FatTreeThreeLevelAllPairs) {
  expect_zone_matches_flat(net::FatTreeZone(xgft({2, 2, 2}, {1, 2, 2})), "xgft(3;2,2,2;1,2,2)");
  expect_zone_matches_flat(net::FatTreeZone(xgft({2, 2, 2}, {2, 2, 2})), "xgft(3;2,2,2;2,2,2)");
  // Level latencies 7e-5, 1.4e-4, 2.1e-4 sum to different bits forward and
  // backward, so a host -> gateway climb pins the reverse summation order
  // (host-to-host routes are palindromes and cannot).
  expect_zone_matches_flat(net::FatTreeZone(xgft({2, 2, 2}, {1, 2, 2}, 1e9, 7e-5)),
                           "xgft(3;2,2,2;1,2,2) order-sensitive");
}

TEST(ZoneVsFlat, FatTree256HostsAllPairs) {
  // The ISSUE's <=256-host ceiling for exhaustive all-pairs coverage.
  expect_zone_matches_flat(net::FatTreeZone(xgft({16, 16}, {1, 4})), "xgft(2;16,16;1,4)");
}

TEST(ZoneVsFlat, ZoneTreeAllPairs) {
  expect_zone_matches_flat(*make_mixed_tree(), "zonetree-mixed");
}

TEST(ZoneVsFlat, NestedZoneTreeAllPairs) {
  auto outer = std::make_unique<net::ZoneTree>();
  outer->add_child(make_mixed_tree(), 100e9, 0.02);
  outer->add_child(std::make_unique<net::ClusterZone>(net::ClusterSpec{4, 1e9, 1e-4, 10e9, 1e-3}),
                   100e9, 0.015);
  expect_zone_matches_flat(*outer, "zonetree-nested");
}

// --- fuzzed random pairs at 10k hosts --------------------------------------

TEST(ZoneVsFlatFuzz, FatTree10kHostsRandomPairs) {
  // XGFT(2; 100,100; 1,10): 10000 hosts, 100 edge switches, 10 spines; and
  // XGFT(3; 25,20,20; 1,4,5), whose level latencies make the summation
  // order of a gateway route visible in its bits.
  for (const auto& spec : {xgft({100, 100}, {1, 10}), xgft({25, 20, 20}, {1, 4, 5}, 1e9, 7e-5)}) {
    const net::FatTreeZone zone(spec);
    ASSERT_EQ(zone.host_count(), 10000u);
    const net::Topology topo = zone.to_topology();
    net::ZoneRouting zr(zone);
    core::RngStream rng(2026);
    // One endpoint in 8 is the gateway; the first destination of every
    // source is the source itself.
    const auto endpoint = [&] {
      if (rng.uniform_int(0, 7) == 0) return zone.gateway();
      return static_cast<net::NodeId>(rng.uniform_int(0, zone.host_count() - 1));
    };
    for (int s = 0; s < 40; ++s) {
      const net::NodeId src = endpoint();
      // Fresh Routing per source: on-demand flat Dijkstra without holding a
      // 10k x 10k cache.
      net::Routing flat(topo);
      for (int d = 0; d < 8; ++d) {
        const net::NodeId dst = d == 0 ? src : endpoint();
        const net::Route zroute = zr.route(src, dst);
        const net::Route& froute = flat.route(src, dst);
        ASSERT_EQ(zroute.links, froute.links) << src << "->" << dst;
        ASSERT_EQ(bits(zroute.total_latency), bits(froute.total_latency)) << src << "->" << dst;
        ASSERT_EQ(bits(zr.path_latency(src, dst)), bits(flat.path_latency(src, dst)))
            << src << "->" << dst;
        ASSERT_EQ(bits(zr.bottleneck_bandwidth(src, dst)),
                  bits(flat.bottleneck_bandwidth(src, dst)));
      }
    }
  }
}

// --- properties -------------------------------------------------------------

// Links are undirected and the canonical policy is destination-independent,
// so route(b, a) must be route(a, b) reversed.
TEST(ZoneProperties, CanonicalRoutesAreSymmetric) {
  const auto tree = make_mixed_tree();
  net::ZoneRouting zr(*tree);
  const auto eps = endpoints_of(*tree);
  for (net::NodeId a : eps) {
    for (net::NodeId b : eps) {
      net::Route fwd = zr.route(a, b);
      const net::Route& rev = zr.route(b, a);
      std::reverse(fwd.links.begin(), fwd.links.end());
      ASSERT_EQ(fwd.links, rev.links) << a << "<->" << b;
    }
  }
}

// Cross-child routes must be exactly src-side segment + both backbone links
// + dst-side segment — the composition law the recursive router is built on.
TEST(ZoneProperties, ZoneTreeCompositionLaw) {
  const auto tree = make_mixed_tree();
  net::ZoneRouting zr(*tree);
  const net::NodeId src = tree->child_offset(0) + tree->child(0).host(2);
  const net::NodeId dst = tree->child_offset(2) + tree->child(2).host(4);

  std::vector<net::LinkId> expected;
  tree->child(0).append_route(tree->child(0).host(2), tree->child(0).gateway(), expected);
  // Child 0's links sit first in the composed space (offset 0).
  const std::size_t child_links =
      tree->child(0).link_count() + tree->child(1).link_count() + tree->child(2).link_count();
  expected.push_back(static_cast<net::LinkId>(child_links + 0));  // backbone of child 0
  expected.push_back(static_cast<net::LinkId>(child_links + 2));  // backbone of child 2
  std::vector<net::LinkId> down;
  tree->child(2).append_route(tree->child(2).gateway(), tree->child(2).host(4), down);
  const std::size_t off2 = tree->child(0).link_count() + tree->child(1).link_count();
  for (net::LinkId l : down) expected.push_back(static_cast<net::LinkId>(l + off2));

  EXPECT_EQ(zr.route(src, dst).links, expected);
}

// D-mod-k spreads across equal-cost parents: the route may differ from the
// canonical one, but it must be a valid src->dst walk in the flat graph
// with bitwise-identical latency and bottleneck (all parents are equal
// cost by construction).
TEST(ZoneProperties, DmodKPolicyKeepsMetricsSpreadsLinks) {
  auto spec = xgft({4, 4}, {2, 4});
  spec.up = net::FatTreeSpec::UpPolicy::kDmodK;
  const net::FatTreeZone zone(spec);
  const net::Topology topo = zone.to_topology();
  net::Routing flat(topo);
  net::ZoneRouting zr(zone);

  bool any_link_diff = false;
  for (net::NodeId src = 0; src < zone.host_count(); ++src) {
    for (net::NodeId dst = 0; dst < zone.host_count(); ++dst) {
      if (src == dst) continue;
      const net::Route zroute = zr.route(src, dst);
      const net::Route& froute = flat.route(src, dst);
      ASSERT_EQ(bits(zroute.total_latency), bits(froute.total_latency)) << src << "->" << dst;
      ASSERT_EQ(bits(zr.path_latency(src, dst)), bits(flat.path_latency(src, dst)))
          << src << "->" << dst;
      ASSERT_EQ(bits(zr.bottleneck_bandwidth(src, dst)), bits(flat.bottleneck_bandwidth(src, dst)));
      ASSERT_EQ(zroute.links.size(), froute.links.size());
      if (zroute.links != froute.links) any_link_diff = true;
      // Validity: consecutive links must chain src -> dst through shared
      // endpoints in the flat graph.
      net::NodeId cur = src;
      for (net::LinkId l : zroute.links) {
        const auto& li = topo.link(l);
        ASSERT_TRUE(li.a == cur || li.b == cur) << "broken walk at link " << l;
        cur = topo.other_end(l, cur);
      }
      ASSERT_EQ(cur, dst);
    }
  }
  EXPECT_TRUE(any_link_diff) << "kDmodK never diverged from kLowestIndex — no spreading";
}

TEST(ZoneSpecs, ValidationRejectsDegenerateShapes) {
  EXPECT_THROW(net::StarZone(net::StarSpec{0, 1e9, 1e-4}), std::invalid_argument);
  EXPECT_THROW(net::ClusterZone(net::ClusterSpec{4, 0.0, 1e-4, 1e9, 1e-3}),
               std::invalid_argument);
  net::FatTreeSpec bad = xgft({2, 2}, {1, 2});
  bad.parents.pop_back();
  EXPECT_THROW(net::FatTreeZone{bad}, std::invalid_argument);
  net::FatTreeSpec zero_lat = xgft({2, 2}, {1, 2});
  zero_lat.latency[0] = 0.0;  // ties equal-cost paths: rejected by contract
  EXPECT_THROW(net::FatTreeZone{zero_lat}, std::invalid_argument);
  net::ZoneTree tree;
  EXPECT_THROW(tree.add_child(std::make_unique<net::StarZone>(net::StarSpec{2, 1e9, 1e-4}),
                              -1.0, 1e-3),
               std::invalid_argument);
}

TEST(ZoneSpecs, ValidationRejectsInfiniteLatency) {
  // An infinite link latency is no way to say "unreachable": every path
  // over it would cost inf.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(net::StarZone(net::StarSpec{2, 1e9, inf}), std::invalid_argument);
  EXPECT_THROW(net::ClusterZone(net::ClusterSpec{4, 1e9, inf, 1e9, 1e-3}),
               std::invalid_argument);
  EXPECT_THROW(net::ClusterZone(net::ClusterSpec{4, 1e9, 1e-4, 1e9, inf}),
               std::invalid_argument);
  net::FatTreeSpec fat = xgft({2, 2}, {1, 2});
  fat.latency[1] = inf;
  EXPECT_THROW(net::FatTreeZone{fat}, std::invalid_argument);
  net::ZoneTree tree;
  EXPECT_THROW(tree.add_child(std::make_unique<net::StarZone>(net::StarSpec{2, 1e9, 1e-4}),
                              1e9, inf),
               std::invalid_argument);
}

// --- zone-structure partitioner ---------------------------------------------

TEST(ZonePartition, ZoneTreeLookaheadIsConservativeAndPositive) {
  const auto tree = make_mixed_tree();
  net::ZoneRouting zr(*tree);
  // One site per child host, spread over all three children.
  std::vector<net::NodeId> sites;
  for (std::size_t c = 0; c < tree->child_count(); ++c) {
    for (std::size_t i = 0; i < tree->child(c).host_count(); i += 2) {
      sites.push_back(tree->child_offset(c) + tree->child(c).host(i));
    }
  }
  const net::Partition p = net::partition_zone_tree(*tree, zr, sites, 3);
  ASSERT_EQ(p.parts, 3u);
  ASSERT_EQ(p.owner.size(), sites.size());
  // Children map to partitions whole.
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(p.owner[i], static_cast<unsigned>(tree->child_of(sites[i])));
  }
  // The closed-form lookahead must be conservative: no cross-partition pair
  // may be closer than it — and on this shape it must be strictly positive.
  EXPECT_GT(p.lookahead, 0.0);
  EXPECT_LE(p.lookahead, net::derive_lookahead(zr, sites, p.owner));
  EXPECT_GT(p.lookahead, 0.999 * net::derive_lookahead(zr, sites, p.owner));
}

// --- end-to-end plumbing ----------------------------------------------------

// TransferService (retry/recovery layer) over a zone-backed FlowNetwork:
// the full net stack runs on a provider with no Topology behind it.
TEST(ZonePlumbing, TransferServiceRunsOnZoneProvider) {
  const net::ClusterZone zone(net::ClusterSpec{8, 1e8, 1e-3, 1e9, 5e-3});
  core::Engine eng;
  net::ZoneRouting zr(zone);
  net::FlowNetwork fnet(eng, zr);
  net::TransferService xfer(eng, fnet, {});
  int done = 0;
  double done_at = -1;
  eng.schedule_at(0.0, [&] {
    xfer.submit(0, 5, 1e8, [&](const net::TransferRecord& rec) {
      EXPECT_FALSE(rec.failed);
      ++done;
      done_at = eng.now();
    });
  });
  eng.run();
  ASSERT_EQ(done, 1);
  // host0 -> switch -> host5: 2e-3 latency + 1e8 bytes at 1e8 B/s shared.
  EXPECT_GT(done_at, 1.0);
}

// A ParallelGrid on a ZoneTree platform: zone partitioning, closed-form
// lookahead, per-LP flow networks — and the parallel run produces the same
// channel traffic as the serial reference.
TEST(ZonePlumbing, ParallelGridOnZoneTreeMatchesSerial) {
  auto run = [](bool parallel) {
    auto tree = std::make_unique<net::ZoneTree>();
    tree->add_child(std::make_unique<net::ClusterZone>(net::ClusterSpec{4, 1e9, 1e-4, 10e9, 2e-3}),
                    10e9, 0.01);
    tree->add_child(std::make_unique<net::ClusterZone>(net::ClusterSpec{4, 1e9, 1e-4, 10e9, 2e-3}),
                    10e9, 0.012);
    hosts::ExecutionSpec spec;
    spec.parallel = parallel;
    spec.threads = 2;
    hosts::ParallelGrid grid(spec);
    grid.use_zone(*tree);
    std::vector<hosts::SiteId> ids;
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::size_t i = 0; i < 4; ++i) {
        hosts::SiteSpec s;
        s.name = "s" + std::to_string(c) + "_" + std::to_string(i);
        ids.push_back(grid.add_site_at(s, tree->child_offset(c) + static_cast<net::NodeId>(i)));
      }
    }
    grid.finalize();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const hosts::SiteId from = ids[i];
      const hosts::SiteId to = ids[(i + 3) % ids.size()];
      grid.at(from, 0.0, [&grid, from, to] {
        grid.transfer(from, to, 1e6 * (static_cast<double>(from) + 1), [] {});
      });
    }
    const auto rep = grid.run(10.0);
    return std::make_pair(grid.channel_bytes(), rep.parallel);
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_FALSE(serial.second);
  EXPECT_TRUE(parallel.second) << "zone lookahead should permit parallel execution";
}

// The `[platform]` facade: both arms of the zone-vs-flat A/B must produce
// identical results (same seed, same shape, different route provider), and
// the registry must expose the section and leave a typo'd key unread.
TEST(PlatformFacade, ZoneAndFlatArmsAgreeBitForBit) {
  sim::register_builtin_facades();
  const auto* entry = sim::FacadeRegistry::global().find("platform");
  ASSERT_NE(entry, nullptr);
  auto run = [&](const char* zone_kind) {
    const auto ini = util::IniConfig::parse(
        std::string("[platform]\nzone = ") + zone_kind +
        "\nchildren = 4,4\nparents = 1,2\nflows = 32\nbytes = 1e7\n");
    const auto study = entry->parse(ini);
    EXPECT_NO_THROW(ini.reject_unread());
    core::Engine eng(core::Engine::Config{core::QueueKind::kBinaryHeap, 7, 0, 0});
    obs::RunReport report;
    EXPECT_EQ(study(eng, report), 0);
    return std::make_pair(bits(report.result()["makespan"].as_double()),
                          bits(report.result()["bytes_moved"].as_double()));
  };
  const auto zoned = run("fat-tree");
  const auto flat = run("flat");
  EXPECT_EQ(zoned.first, flat.first);
  EXPECT_EQ(zoned.second, flat.second);
  EXPECT_GT(flat.second, 0u);  // bytes actually moved

  // Key validation covers the section: the parser never asks for a typo.
  const auto typo = util::IniConfig::parse("[platform]\nzome = star\n");
  entry->parse(typo);
  EXPECT_THROW(typo.reject_unread(), util::ConfigError);
  const auto bad_zone = util::IniConfig::parse("[platform]\nzone = mesh\n");
  EXPECT_THROW(entry->parse(bad_zone), util::ConfigError);
}

// Million-host construction cost smoke (the bench measures the real sweep):
// building the zone + provider is O(levels), with no per-pair or per-node
// allocation at all.
TEST(ZoneScale, MillionHostFatTreeConstructsInstantly) {
  const net::FatTreeZone zone(xgft({100, 100, 100}, {1, 10, 10}));
  EXPECT_EQ(zone.host_count(), 1000000u);
  net::ZoneRouting zr(zone);
  const net::Route r = zr.route(0, 999999);  // full-height crossing
  EXPECT_EQ(r.links.size(), 6u);
  EXPECT_TRUE(r.valid);
}
