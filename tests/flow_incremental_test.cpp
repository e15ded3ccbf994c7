// Differential suite for the incremental (component-partitioned) max-min
// solver: Config::incremental = true must produce BYTE-identical behavior to
// the full reference solver — same completion/abort callbacks at bitwise-
// identical times, bitwise-identical rates at checkpoints, bitwise-identical
// delivered-byte totals — on fuzzed random topologies under flow churn and
// link failures, across all five event-queue kinds. Plus the component-
// isolation property (perturbing component A never changes component B) and
// the equal-fair-share tie-break regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/rng.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/zone.hpp"
#include "event_probe.hpp"

namespace core = lsds::core;
namespace net = lsds::net;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// One trace entry: what happened ('X' an executed event, 'C'ompleted,
// 'E'rrored, 'R'ate and 'L'ink-load checkpoints, 'Y' a link's carried
// bytes, 'B'ytes total), to which event, flow or link, with the double
// payload (timestamp, rate or bytes) captured bit-for-bit.
using Trace = std::vector<std::tuple<char, net::FlowId, std::uint64_t>>;

struct Op {
  enum Kind { kStart, kCancel, kLinkDown, kLinkUp, kCheckpoint } kind = kStart;
  double t = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double bytes = 0;
  double weight = 1;
  std::size_t flow_idx = 0;  // kCancel: index into the started-flow list
  net::LinkId link = 0;
};

// Deterministic, churn-heavy op script over a random connected topology.
std::vector<Op> make_script(const net::Topology& topo, std::uint64_t seed, std::size_t n_ops) {
  core::RngStream rng(seed);
  std::vector<Op> ops;
  double t = 0;
  std::size_t started = 0;
  for (std::size_t i = 0; i < n_ops; ++i) {
    t += rng.exponential(0.3);
    Op op;
    op.t = t;
    const double r = rng.uniform();
    if (r < 0.55 || started == 0) {
      op.kind = Op::kStart;
      op.src = static_cast<net::NodeId>(rng.uniform_int(0, topo.node_count() - 1));
      do {
        op.dst = static_cast<net::NodeId>(rng.uniform_int(0, topo.node_count() - 1));
      } while (op.dst == op.src);
      op.bytes = rng.uniform(1e5, 5e7);
      op.weight = rng.uniform(0.5, 4.0);
      ++started;
    } else if (r < 0.75) {
      op.kind = Op::kCancel;
      op.flow_idx = static_cast<std::size_t>(rng.uniform_int(0, started - 1));
    } else if (r < 0.85) {
      op.kind = Op::kLinkDown;
      op.link = static_cast<net::LinkId>(rng.uniform_int(0, topo.link_count() - 1));
    } else if (r < 0.95) {
      op.kind = Op::kLinkUp;
      op.link = static_cast<net::LinkId>(rng.uniform_int(0, topo.link_count() - 1));
    } else {
      op.kind = Op::kCheckpoint;
    }
    ops.push_back(op);
  }
  return ops;
}

// `work` also appends the solver's work counters and the engine's counts.
// The two solvers agree on those only when every change dirties every
// sharing flow, as on a route that all flows share.
Trace run_script_on(net::RouteProvider& routing, const std::vector<Op>& ops, core::QueueKind kind,
                    bool incremental, core::FailureSemantics sem, bool work = false) {
  Trace trace;
  lsds::testutil::EventProbe probe(
      [&trace](double t, core::EventId id) { trace.emplace_back('X', id, bits(t)); });
  core::Engine eng(core::Engine::Config{kind, 7, 0, 0});
  eng.set_probe(&probe);
  net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
  fnet.set_failure_semantics(sem);

  std::vector<net::FlowId> flows;
  for (const Op& op : ops) {
    eng.schedule_at(op.t, [&eng, &fnet, &trace, &flows, op] {
      switch (op.kind) {
        case Op::kStart:
          flows.push_back(fnet.start_flow_weighted(
              op.src, op.dst, op.bytes, op.weight,
              [&trace, &eng](net::FlowId id) { trace.emplace_back('C', id, bits(eng.now())); },
              [&trace, &eng](net::FlowId id) { trace.emplace_back('E', id, bits(eng.now())); }));
          break;
        case Op::kCancel:
          if (op.flow_idx < flows.size()) fnet.cancel(flows[op.flow_idx]);
          break;
        case Op::kLinkDown:
          fnet.set_link_up(op.link, false);
          break;
        case Op::kLinkUp:
          fnet.set_link_up(op.link, true);
          break;
        case Op::kCheckpoint:
          for (net::FlowId id : flows) trace.emplace_back('R', id, bits(fnet.flow_rate(id)));
          for (net::LinkId l = 0; l < fnet.link_count(); ++l) {
            trace.emplace_back('L', l, bits(fnet.link_load(l)));
          }
          break;
      }
    });
  }
  eng.run();
  for (net::LinkId l = 0; l < fnet.link_count(); ++l) {
    trace.emplace_back('Y', l, bits(fnet.resource_bytes(l)));
  }
  trace.emplace_back('B', 0, bits(fnet.total_bytes_delivered()));
  if (work) {
    trace.emplace_back('S', fnet.solves(), fnet.flows_rerated());
    trace.emplace_back('Q', eng.stats().scheduled, eng.stats().cancelled);
    trace.emplace_back('Q', eng.stats().executed, fnet.flows_completed());
  }
  return trace;
}

Trace run_script(const net::Topology& topo, const std::vector<Op>& ops, core::QueueKind kind,
                 bool incremental, core::FailureSemantics sem, bool work = false) {
  net::Routing routing(topo);
  return run_script_on(routing, ops, kind, incremental, sem, work);
}

}  // namespace

// The core differential property: for every fuzz seed, every queue kind and
// both failure semantics, the incremental solver's model trace is byte-
// identical to the full solver's.
TEST(FlowIncremental, DifferentialFuzzFullVsIncremental) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    core::RngStream topo_rng(seed * 1000 + 17);
    const auto topo = net::Topology::random_connected(24, 10, 1e8, 0.002, topo_rng);
    const auto ops = make_script(topo, seed, 60);
    const auto sem = seed % 2 == 0 ? core::FailureSemantics::kFailStop
                                   : core::FailureSemantics::kFailResume;
    for (core::QueueKind kind : core::kAllQueueKinds) {
      const Trace full = run_script(topo, ops, kind, false, sem);
      const Trace inc = run_script(topo, ops, kind, true, sem);
      ASSERT_EQ(full, inc) << "seed " << seed << " queue " << core::to_string(kind);
      ASSERT_FALSE(full.empty());
    }
  }
}

// The trace must also agree ACROSS queue kinds (the engine's total order is
// queue-independent, and the model on top of it must stay so).
TEST(FlowIncremental, TraceAgreesAcrossQueueKinds) {
  core::RngStream topo_rng(99);
  const auto topo = net::Topology::random_connected(20, 8, 1e8, 0.002, topo_rng);
  const auto ops = make_script(topo, 99, 50);
  const Trace reference =
      run_script(topo, ops, core::QueueKind::kSortedList, true, core::FailureSemantics::kFailResume);
  for (core::QueueKind kind : core::kAllQueueKinds) {
    const Trace t = run_script(topo, ops, kind, true, core::FailureSemantics::kFailResume);
    ASSERT_EQ(reference, t) << "queue " << core::to_string(kind);
  }
}

namespace {

// Two disjoint 4-leaf stars in one topology. Returns the hub of each star.
net::Topology two_islands(std::vector<net::NodeId>& leaves_a, std::vector<net::NodeId>& leaves_b) {
  net::Topology topo;
  const auto hub_a = topo.add_node("hubA", net::NodeKind::kRouter);
  for (int i = 0; i < 4; ++i) {
    const auto n = topo.add_node("a" + std::to_string(i));
    topo.add_link(n, hub_a, 1e8, 0.001);
    leaves_a.push_back(n);
  }
  const auto hub_b = topo.add_node("hubB", net::NodeKind::kRouter);
  for (int i = 0; i < 4; ++i) {
    const auto n = topo.add_node("b" + std::to_string(i));
    topo.add_link(n, hub_b, 1e8, 0.001);
    leaves_b.push_back(n);
  }
  return topo;
}

}  // namespace

// Perturbing flows in component A (starts and cancels) must never change the
// rate of any flow in disconnected component B — not even in the last bit.
TEST(FlowIncremental, ComponentIsolationProperty) {
  std::vector<net::NodeId> la, lb;
  const auto topo = two_islands(la, lb);
  core::Engine eng;
  net::Routing routing(topo);
  net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{true});

  std::vector<net::FlowId> b_flows;
  std::vector<std::uint64_t> before, after;
  net::FlowId a0 = 0, a1 = 0;
  eng.schedule_at(0.0, [&] {
    // Component B: three long flows contending on b0's access link.
    b_flows.push_back(fnet.start_flow_weighted(lb[0], lb[1], 1e12, 1.0));
    b_flows.push_back(fnet.start_flow_weighted(lb[0], lb[2], 1e12, 2.0));
    b_flows.push_back(fnet.start_flow_weighted(lb[0], lb[3], 1e12, 1.0));
    // Component A: two flows.
    a0 = fnet.start_flow_weighted(la[0], la[1], 1e12, 1.0);
    a1 = fnet.start_flow_weighted(la[0], la[2], 1e12, 1.0);
  });
  eng.schedule_at(5.0, [&] {
    for (net::FlowId id : b_flows) before.push_back(bits(fnet.flow_rate(id)));
  });
  eng.schedule_at(6.0, [&] {
    // Perturb A only: churn its membership and weights.
    fnet.cancel(a1);
    a1 = fnet.start_flow_weighted(la[3], la[0], 1e12, 3.0);
    fnet.start_flow_weighted(la[1], la[2], 1e12, 0.7);
  });
  eng.schedule_at(7.0, [&] {
    for (net::FlowId id : b_flows) after.push_back(bits(fnet.flow_rate(id)));
  });
  eng.run_until(8.0);
  ASSERT_EQ(before.size(), 3u);
  EXPECT_EQ(before, after);
  EXPECT_GT(fnet.flow_rate(a0), 0.0);
}

// Work counters prove the incremental solver actually solves LESS: starting
// a flow in an island re-rates only that island's flows.
TEST(FlowIncremental, IncrementalSolvesOnlyDirtyComponent) {
  std::vector<net::NodeId> la, lb;
  const auto topo = two_islands(la, lb);

  auto rerated_after_two_starts = [&](bool incremental) {
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
    eng.schedule_at(0.0, [&] { fnet.start_flow_weighted(la[0], la[1], 1e12, 1.0); });
    eng.schedule_at(1.0, [&] { fnet.start_flow_weighted(lb[0], lb[1], 1e12, 1.0); });
    eng.run_until(2.0);
    return fnet.flows_rerated();
  };

  // Full: {A} then {A, B} = 3 re-rates. Incremental: {A} then {B} = 2.
  EXPECT_EQ(rerated_after_two_starts(false), 3u);
  EXPECT_EQ(rerated_after_two_starts(true), 2u);
}

// Regression for the bottleneck tie-break (satellite of the determinism
// work): two links with exactly equal fair shares must be processed in
// ascending LinkId order by construction, yielding the closed-form rates —
// bitwise reproducibly.
TEST(FlowDeterminism, EqualFairShareLinksTieBreakByLinkId) {
  auto run_once = [] {
    net::Topology topo;
    const auto a = topo.add_node("a");
    const auto b = topo.add_node("b");
    const auto c = topo.add_node("c");
    topo.add_link(a, b, 1e8, 0.001);  // link 0
    topo.add_link(b, c, 1e8, 0.001);  // link 1: identical capacity
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{true});
    std::vector<net::FlowId> ids;
    eng.schedule_at(0.0, [&] {
      ids.push_back(fnet.start_flow(a, c, 1e12));  // crosses links 0 and 1
      ids.push_back(fnet.start_flow(a, b, 1e12));  // link 0 only
      ids.push_back(fnet.start_flow(b, c, 1e12));  // link 1 only
    });
    eng.run_until(1.0);
    std::vector<std::uint64_t> rates;
    for (net::FlowId id : ids) rates.push_back(bits(fnet.flow_rate(id)));
    return rates;
  };
  const auto r1 = run_once();
  const auto r2 = run_once();
  ASSERT_EQ(r1.size(), 3u);
  // Both links tie at 1e8 / 2 flows = 5e7; every flow lands on exactly that.
  EXPECT_EQ(r1[0], bits(5e7));
  EXPECT_EQ(r1[1], bits(5e7));
  EXPECT_EQ(r1[2], bits(5e7));
  EXPECT_EQ(r1, r2);
}

// A FlowNetwork over a zone provider must behave byte-identically to one
// over the materialized flat topology: the whole churn script — starts,
// cancels, link failures, rate checkpoints — replayed on both, traces
// compared bit for bit. Locks the flow layer's independence from where
// routes come from.
TEST(FlowZoneDifferential, ClusterZoneTraceMatchesFlat) {
  const net::ClusterZone zone(net::ClusterSpec{24, 1e8, 0.002, 1e9, 0.01});
  const net::Topology topo = zone.to_topology();
  for (std::uint64_t seed : {11u, 12u}) {
    const auto ops = make_script(topo, seed, 70);
    const auto sem = seed % 2 == 0 ? core::FailureSemantics::kFailStop
                                   : core::FailureSemantics::kFailResume;
    for (bool incremental : {false, true}) {
      net::Routing flat(topo);
      net::ZoneRouting zoned(zone);
      const Trace reference =
          run_script_on(flat, ops, core::QueueKind::kBinaryHeap, incremental, sem);
      const Trace zone_trace =
          run_script_on(zoned, ops, core::QueueKind::kBinaryHeap, incremental, sem);
      ASSERT_EQ(reference, zone_trace) << "seed " << seed << " incremental " << incremental;
      ASSERT_FALSE(reference.empty());
    }
  }
}

// The over-merged-component rebuild path: heavy churn on one island forces
// stale member entries past the rebuild threshold; behavior must stay
// identical to the full solver throughout.
TEST(FlowIncremental, RebuildUnderChurnStaysDifferentialClean) {
  std::vector<net::NodeId> la, lb;
  const auto topo = two_islands(la, lb);
  auto run_churn = [&](bool incremental) {
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
    Trace trace;
    eng.schedule_at(0.0, [&] {
      for (int i = 0; i < 100; ++i) {
        fnet.start_flow_weighted(
            la[static_cast<std::size_t>(i) % 4], la[(static_cast<std::size_t>(i) + 1) % 4],
            1e6 + 1e4 * i, 1.0,
            [&trace, &eng](net::FlowId id) { trace.emplace_back('C', id, bits(eng.now())); });
      }
      fnet.start_flow_weighted(lb[0], lb[1], 5e7, 1.0, [&trace, &eng](net::FlowId id) {
        trace.emplace_back('C', id, bits(eng.now()));
      });
    });
    eng.run();
    trace.emplace_back('B', 0, bits(fnet.total_bytes_delivered()));
    return trace;
  };
  EXPECT_EQ(run_churn(false), run_churn(true));
}

// --- one completion event per component --------------------------------------

namespace {

// Completions tied with each other and with unrelated events at the same
// instants, on power-of-two capacities and sizes so every instant is exact.
// Returns "<what>@<time>" tokens in execution order.
std::string tie_order_trace(core::QueueKind kind, bool incremental) {
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  const auto c = topo.add_node("c");
  topo.add_link(a, b, 768, 0);   // link 0
  topo.add_link(b, c, 1024, 0);  // link 1
  core::Engine eng(core::Engine::Config{kind, 3, 0, 0});
  net::Routing routing(topo);
  net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
  std::string out;
  const auto mark = [&out, &eng](const char* what) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s@%.17g ", what, eng.now());
    out += buf;
  };
  const auto done = [&mark](const char* name) {
    return [&mark, name](net::FlowId) { mark(name); };
  };
  net::FlowId f6 = 0;
  eng.schedule_at(2.0, [&] { mark("u0"); });  // queued before any flow exists
  eng.schedule_at(0.0, [&] {
    // link 0: three flows at 256 B/s; f1 and f2 tie at t = 2.
    fnet.start_flow(a, b, 512, done("f1"));
    fnet.start_flow(a, b, 512, done("f2"));
    fnet.start_flow(a, b, 1536, [&](net::FlowId) {
      mark("f3");
      fnet.start_flow(a, c, 256, done("f5"));  // joins both links
    });
    // link 1, its own component: ends at t = 1, tied with u2.
    fnet.start_flow(b, c, 1024, [&](net::FlowId) {
      mark("f4");
      f6 = fnet.start_flow(b, c, 4096, done("f6"));
    });
  });
  eng.schedule_at(0.5, [&] {
    eng.schedule_at(1.0, [&] { mark("u2"); });  // queued after f4's key
    eng.schedule_at(2.0, [&] { mark("u1"); });  // between f1's key and f2's re-key
  });
  eng.schedule_at(3.0, [&] {
    mark("u3");
    fnet.cancel(f6);
  });
  eng.run();
  return out;
}

}  // namespace

// Per-component completion events must run completions in exactly the order
// per-flow events did: each queued event carries the key a per-flow event
// would have had. The expected string was recorded with one completion event
// per flow; it holds for every queue kind and for both solvers.
TEST(FlowCompletion, TieOrderMatchesPerFlowEvents) {
  const std::string expected =
      "f4@1 u2@1 u0@2 f1@2 u1@2 f2@2 u3@3 f3@3.333333333333333 f5@3.6666666666666665 ";
  for (core::QueueKind kind : core::kAllQueueKinds) {
    for (bool incremental : {false, true}) {
      EXPECT_EQ(tie_order_trace(kind, incremental), expected)
          << core::to_string(kind) << " incremental " << incremental;
    }
  }
}

// A saturated link re-rates every flow at every arrival and departure. With
// one completion event per component that costs one queue operation, not one
// per flow: per-flow events scheduled about n^2/2 events for this ramp.
TEST(FlowCompletion, SaturatedLinkQueuesOneEventPerChange) {
  constexpr std::size_t kFlows = 200;
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e6, 0.001);
  for (bool incremental : {false, true}) {
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
    std::size_t done = 0;
    std::size_t peak_pending = 0;
    for (std::size_t k = 0; k < kFlows; ++k) {
      eng.schedule_at(0.01 * static_cast<double>(k), [&] {
        peak_pending = std::max(peak_pending, eng.pending());
        fnet.start_flow(a, b, 1e6, [&done](net::FlowId) { ++done; });
      });
    }
    eng.run();
    EXPECT_EQ(done, kFlows);
    // Per flow: its start, its activation, and at most one schedule + one
    // cancel of the component's event per activation and per completion.
    EXPECT_LE(eng.stats().scheduled, 4 * kFlows) << "incremental " << incremental;
    EXPECT_LE(eng.stats().cancelled, 2 * kFlows) << "incremental " << incremental;
    // The pending set holds the remaining starts plus O(1) flow events.
    EXPECT_LE(peak_pending, kFlows + 2) << "incremental " << incremental;
  }
}

// A component rebuild can split an over-merged component whose one queued
// event belongs to the other part. A bridging flow merges links 0 and 1 and
// leaves; a fail-stop outage of link 0 then aborts enough flows at once to
// force a rebuild. The long flow on link 1 has been re-rated since it was
// last its component's earliest, and nothing dirties link 1 again: it must
// still complete, at the full solver's instant.
TEST(FlowCompletion, RebuildReArmsSplitComponents) {
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto h = topo.add_node("h", net::NodeKind::kRouter);
  const auto b = topo.add_node("b");
  topo.add_link(a, h, 1000, 0.001);  // link 0
  topo.add_link(h, b, 1000, 0.001);  // link 1
  auto run = [&](bool incremental) {
    core::Engine eng;
    net::Routing routing(topo);
    net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
    fnet.set_failure_semantics(core::FailureSemantics::kFailStop);
    Trace trace;
    const auto log = [&trace, &eng](char what) {
      return [&trace, &eng, what](net::FlowId id) { trace.emplace_back(what, id, bits(eng.now())); };
    };
    net::FlowId bridge = 0;
    eng.schedule_at(0.0, [&] {
      fnet.start_flow(h, b, 1e5, log('C'));  // the long flow, link 1 only
      bridge = fnet.start_flow(a, b, 1e9, log('C'));
    });
    eng.schedule_at(0.2, [&] {
      for (int k = 0; k < 70; ++k) fnet.start_flow_checked(a, h, 1e3, log('C'), log('E'));
    });
    eng.schedule_at(0.5, [&] { fnet.cancel(bridge); });
    eng.schedule_at(2.0, [&] { fnet.set_link_up(0, false); });
    eng.run();
    return trace;
  };
  const Trace full = run(false);
  const Trace inc = run(true);
  ASSERT_EQ(full.size(), 71u);  // 70 aborts, then the long flow
  EXPECT_EQ(std::get<0>(full.back()), 'C');
  EXPECT_EQ(std::get<1>(full.back()), 1u);
  EXPECT_EQ(full, inc);
}

// --- one-pass re-rate of a component that shares one constraint set ----------

namespace {

// A chain n0 - n1 - n2 - n3: links 0, 1 and 2, in that order.
net::Topology chain() {
  net::Topology topo;
  const auto n0 = topo.add_node("n0");
  const auto n1 = topo.add_node("n1", net::NodeKind::kRouter);
  const auto n2 = topo.add_node("n2", net::NodeKind::kRouter);
  const auto n3 = topo.add_node("n3");
  topo.add_link(n0, n1, 1e8, 0.001);  // link 0
  topo.add_link(n1, n2, 1e8, 0.002);  // link 1: ties link 0's capacity
  topo.add_link(n2, n3, 5e7, 0.001);  // link 2
  return topo;
}

// The flows of one shared route, and a cross route that overlaps it on at
// least one link, so a cross flow makes the component's sets differ until
// it leaves. `outage` is a link every flow crosses: then the full solver
// and the incremental one re-rate the same flows at every change, and the
// work counters compare too.
struct SharedRoute {
  const char* name;
  net::NodeId src, dst;
  net::NodeId cross_src, cross_dst;
  net::LinkId outage;
};

// Seeded churn on one shared route: starts with weights in [0.5, 4] and
// random sizes, bursts of identical flows that complete at one instant,
// cancels from the middle of the id order, short cross flows, and outages
// of the shared link.
std::vector<Op> make_shared_route_script(const SharedRoute& route, std::uint64_t seed,
                                         std::size_t n_ops) {
  core::RngStream rng(seed);
  std::vector<Op> ops;
  double t = 0;
  std::size_t started = 0;
  const auto push = [&ops, &t](Op::Kind kind) -> Op& {
    Op& op = ops.emplace_back();
    op.kind = kind;
    op.t = t;
    return op;
  };
  const auto start = [&](net::NodeId src, net::NodeId dst, double bytes, double weight) {
    Op& op = push(Op::kStart);
    op.src = src;
    op.dst = dst;
    op.bytes = bytes;
    op.weight = weight;
    ++started;
  };
  for (std::size_t i = 0; i < n_ops; ++i) {
    t += rng.exponential(0.15);
    const double r = rng.uniform();
    if (r < 0.45 || started < 4) {
      start(route.src, route.dst, rng.uniform(1e5, 5e7), rng.uniform(0.5, 4.0));
    } else if (r < 0.55) {
      // Same size, weight and start instant: the completions tie.
      const double bytes = rng.uniform(1e6, 2e7);
      const double weight = rng.uniform(0.5, 4.0);
      for (int k = 0; k < 3; ++k) start(route.src, route.dst, bytes, weight);
    } else if (r < 0.72) {
      push(Op::kCancel).flow_idx = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(started / 4), static_cast<std::int64_t>(3 * started / 4)));
    } else if (r < 0.8) {
      start(route.cross_src, route.cross_dst, rng.uniform(1e5, 5e6), rng.uniform(0.5, 4.0));
    } else if (r < 0.84) {
      push(Op::kLinkDown).link = route.outage;
    } else if (r < 0.92) {
      push(Op::kLinkUp).link = route.outage;
    } else {
      push(Op::kCheckpoint);
    }
  }
  // Heal the shared link, so every flow that stalled completes.
  t += 1.0;
  push(Op::kLinkUp).link = route.outage;
  return ops;
}

}  // namespace

// When a change touches one component whose flows all cross one constraint
// set, the incremental solver re-rates it in one pass. The pass must
// reproduce the reference solver bit for bit, through cross flows that make
// the sets differ and then leave, outages under both semantics, cancels from
// the middle of the id order and tied completions, on every queue kind.
TEST(FlowSharedSet, OnePassMatchesReferenceSolver) {
  const net::Topology topo = chain();
  const SharedRoute routes[] = {
      {"one link", 0, 1, 0, 2, 0},   // every flow on link 0; cross flows on 0 and 1
      {"two links", 0, 2, 1, 3, 1},  // every flow on links 0 and 1; cross flows on 1 and 2
  };
  for (const SharedRoute& route : routes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const auto ops = make_shared_route_script(route, seed * 31 + route.outage, 160);
      const auto sem = seed % 2 == 0 ? core::FailureSemantics::kFailStop
                                     : core::FailureSemantics::kFailResume;
      for (core::QueueKind kind : core::kAllQueueKinds) {
        const Trace full = run_script(topo, ops, kind, false, sem, true);
        const Trace inc = run_script(topo, ops, kind, true, sem, true);
        ASSERT_EQ(full, inc) << route.name << " seed " << seed << " queue "
                             << core::to_string(kind);
        // The script must reach the cases it is written for: completions,
        // tied ones among them.
        std::vector<std::uint64_t> done;
        for (const auto& [what, id, t] : full) {
          if (what == 'C') done.push_back(t);
        }
        ASSERT_GE(done.size(), 20u);
        std::sort(done.begin(), done.end());
        ASSERT_NE(std::adjacent_find(done.begin(), done.end()), done.end());
      }
    }
  }
}

// The earliest completion key of a component is the smallest (time, event
// id), which on a tie need not be the smallest flow id. Weights of 2^53, 2
// and 1 on a link of 2^53 + 2 B/s make that happen exactly: the weight sum
// absorbs X's weight of 1, so X joining at t = 1 re-keys X alone, and its
// new key ties Y's older one at t = 4. Y's key must stay the queued one;
// queuing X's as well shows as one extra schedule and one extra cancel when
// Y's departure re-rates X.
TEST(FlowSharedSet, TiedKeysPickTheEarlierEventNotTheLowerFlow) {
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 9007199254740994.0, 0);  // 2^53 + 2
  for (core::QueueKind kind : core::kAllQueueKinds) {
    std::vector<Trace> traces;
    for (bool incremental : {false, true}) {
      Trace trace;
      lsds::testutil::EventProbe probe(
          [&trace](double t, core::EventId id) { trace.emplace_back('X', id, bits(t)); });
      core::Engine eng(core::Engine::Config{kind, 1, 0, 0});
      eng.set_probe(&probe);
      net::Routing routing(topo);
      net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
      const auto log = [&trace, &eng](net::FlowId id) {
        trace.emplace_back('C', id, bits(eng.now()));
      };
      eng.schedule_at(0.0, [&] {
        fnet.start_flow_weighted(a, b, 1e300, 9007199254740992.0, log);  // H: 2^53
        net::FlowNetwork::FlowSpec x;  // X: a lower id than Y, activates later
        x.src = a;
        x.dst = b;
        x.bytes = 3;
        x.extra_latency = 1.0;
        x.on_complete = log;
        fnet.start_flow_spec(std::move(x));
        fnet.start_flow_weighted(a, b, 8, 2.0, log);  // Y
      });
      eng.run();
      trace.emplace_back('Q', eng.stats().scheduled, eng.stats().cancelled);
      traces.push_back(std::move(trace));
    }
    EXPECT_EQ(traces[0], traces[1]) << core::to_string(kind);
    // Eight events queued: the script, three activations, and the completion
    // events of H, Y, X and H again. One cancel: H's first, when Y joins.
    EXPECT_EQ(traces[1].back(), std::make_tuple('Q', std::uint64_t{8}, std::uint64_t{1}));
    // Y (flow 3) completes at 4 before X (flow 2), also at 4.
    std::vector<std::tuple<char, net::FlowId, std::uint64_t>> done;
    for (const auto& e : traces[1]) {
      if (std::get<0>(e) == 'C') done.push_back(e);
    }
    ASSERT_GE(done.size(), 2u);
    EXPECT_EQ(done[0], std::make_tuple('C', net::FlowId{3}, bits(4.0)));
    EXPECT_EQ(done[1], std::make_tuple('C', net::FlowId{2}, bits(4.0)));
  }
}
