// Experiment E11 — incremental vs full bandwidth-sharing at scale.
//
// The paper's Section 5 scaling claims require the flow-level network model
// to survive tens of thousands of concurrent transfers. The full reference
// solver re-rates EVERY sharing flow on EVERY membership change — O(N) per
// event, O(N^2) for a ramp to N flows. The incremental solver re-solves only
// the connected component of the constraint graph the change touched.
//
// Topology: kClusters disjoint star clusters (hub + kLeaves sources + one
// sink). Every flow goes source leaf -> sink, so each cluster has a single
// bottleneck (the sink's access link) and the constraint graph has exactly
// kClusters components. Workload per point: ramp to N standing flows
// (staggered starts), then a churn phase of kChurnOps cancel/replace
// operations, then stop at a horizon (flows are effectively infinite, so
// event count is workload-controlled, not rate-controlled).
//
// Both solvers run the identical script; the final model state (every flow's
// rate, bit-for-bit, plus delivered bytes) is FNV-1a hashed. The bench is
// self-checking and exits 1 with a FAIL line when the hashes diverge, when a
// wall time is not finite and positive, or when the incremental solver is
// slower than the full one on the largest point. Wall-clock, solver work
// counters and the speedup go to BENCH_flow.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "core/engine.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace obs = lsds::obs;

namespace {

using namespace lsds::bench;

constexpr std::size_t kClusters = 100;
constexpr std::size_t kLeaves = 20;       // source leaves per cluster
constexpr double kAccessBw = 1e8;
constexpr double kAccessLat = 0.001;
constexpr std::size_t kChurnOps = 2000;   // cancel/replace pairs
constexpr double kFlowBytes = 1e15;       // never completes inside the horizon
constexpr double kStagger = 1e-4;

struct Outcome {
  double wall_ms = 0;
  std::uint64_t hash = 0;
  std::uint64_t events = 0;
  std::uint64_t scheduled = 0;  // queue pushes: one per change per component
  std::uint64_t cancelled = 0;
  std::uint64_t solves = 0;
  std::uint64_t rerated = 0;
  std::size_t sharing = 0;
};

// One cluster: hub, kLeaves sources, one sink. Disjoint from all others.
net::Topology build_topology() {
  net::Topology topo;
  for (std::size_t c = 0; c < kClusters; ++c) {
    const auto hub = topo.add_node("hub" + std::to_string(c), net::NodeKind::kRouter);
    const auto sink = topo.add_node("sink" + std::to_string(c));
    topo.add_link(sink, hub, kAccessBw, kAccessLat);
    for (std::size_t s = 0; s < kLeaves; ++s) {
      const auto n = topo.add_node("src" + std::to_string(c) + "_" + std::to_string(s));
      topo.add_link(n, hub, kAccessBw, kAccessLat);
    }
  }
  return topo;
}

// Node ids follow construction order: cluster c occupies a block of
// 2 + kLeaves nodes — [hub, sink, src0..srcN).
net::NodeId sink_of(std::size_t c) { return static_cast<net::NodeId>(c * (2 + kLeaves) + 1); }
net::NodeId src_of(std::size_t c, std::size_t s) {
  return static_cast<net::NodeId>(c * (2 + kLeaves) + 2 + s);
}

Outcome run_point(const net::Topology& topo, std::size_t n_flows, bool incremental) {
  core::Engine eng(core::Engine::Config{core::QueueKind::kBinaryHeap, 42, 0, 0});
  net::Routing routing(topo);
  net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});

  std::vector<net::FlowId> live;
  live.reserve(n_flows);
  auto start_one = [&fnet, &live](std::size_t k) {
    const std::size_t c = k % kClusters;
    const std::size_t s = (k / kClusters) % kLeaves;
    live.push_back(fnet.start_flow_weighted(src_of(c, s), sink_of(c), kFlowBytes,
                                            1.0 + static_cast<double>(k % 4)));
  };

  // Ramp: one start per kStagger tick.
  for (std::size_t k = 0; k < n_flows; ++k) {
    eng.schedule_at(static_cast<double>(k) * kStagger, [&start_one, k] { start_one(k); });
  }
  // Churn: deterministic cancel + replacement, spread across clusters.
  const double churn_t0 = static_cast<double>(n_flows) * kStagger + 1.0;
  for (std::size_t k = 0; k < kChurnOps; ++k) {
    eng.schedule_at(churn_t0 + static_cast<double>(k) * 1e-3, [&fnet, &live, &start_one, k] {
      const std::size_t v = (k * 7919 + 13) % live.size();
      fnet.cancel(live[v]);
      live[v] = live.back();
      live.pop_back();
      start_one(k * 31 + 7);
    });
  }
  const double horizon = churn_t0 + static_cast<double>(kChurnOps) * 1e-3 + 1.0;

  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(horizon);
  const auto t1 = std::chrono::steady_clock::now();

  Outcome o;
  o.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  o.events = eng.stats().executed;
  o.scheduled = eng.stats().scheduled;
  o.cancelled = eng.stats().cancelled;
  o.solves = fnet.solves();
  o.rerated = fnet.flows_rerated();
  o.sharing = fnet.sharing_flows();
  // Bitwise final-state fingerprint: every live flow's rate in id order,
  // then the delivered-byte total.
  std::uint64_t h = 1469598103934665603ULL;
  std::vector<net::FlowId> ids = live;
  std::sort(ids.begin(), ids.end());
  for (net::FlowId id : ids) {
    h = fnv1a(h, id);
    h = fnv1a(h, bits(fnet.flow_rate(id)));
  }
  h = fnv1a(h, bits(fnet.total_bytes_delivered()));
  o.hash = h;
  return o;
}

struct Point {
  std::size_t flows;
  Outcome full;
  Outcome inc;
  bool identical = false;
};

obs::Json record(const std::vector<Point>& points) {
  auto doc = obs::Json::object();
  doc.set("benchmark", "flow_scaling");
  doc.set("clusters", kClusters);
  doc.set("churn_ops", kChurnOps);
  auto& arr = doc["points"] = obs::Json::array();
  for (const Point& p : points) {
    auto pt = obs::Json::object();
    pt.set("flows", p.flows);
    pt.set("full_wall_ms", p.full.wall_ms);
    pt.set("incremental_wall_ms", p.inc.wall_ms);
    pt.set("speedup", p.inc.wall_ms > 0 ? p.full.wall_ms / p.inc.wall_ms : 0.0);
    pt.set("full_hash", hex(p.full.hash));
    pt.set("incremental_hash", hex(p.inc.hash));
    pt.set("identical", p.identical);
    pt.set("full_solves", p.full.solves);
    pt.set("incremental_solves", p.inc.solves);
    pt.set("full_rerated", p.full.rerated);
    pt.set("incremental_rerated", p.inc.rerated);
    pt.set("events", p.inc.events);
    pt.set("scheduled", p.inc.scheduled);
    pt.set("cancelled", p.inc.cancelled);
    arr.push(std::move(pt));
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sweep = {100, 1000, 10000};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--small") sweep = {100, 1000, 4000};
    if (std::string(argv[i]) == "--large") sweep = {100, 1000, 10000, 50000};
  }

  std::printf("== Experiment E11: incremental vs full bandwidth sharing ==\n");
  std::printf("%zu disjoint clusters, %zu churn ops per point\n\n", kClusters, kChurnOps);
  std::printf("%10s  %12s  %12s  %8s  %10s  %s\n", "flows", "full [ms]", "incr [ms]", "speedup",
              "rerated", "identical");

  const auto topo = build_topology();
  std::vector<Point> points;
  SelfCheck check;
  for (std::size_t n : sweep) {
    Point p;
    p.flows = n;
    p.full = run_point(topo, n, false);
    p.inc = run_point(topo, n, true);
    p.identical = p.full.hash == p.inc.hash;
    std::printf("%10zu  %12.1f  %12.1f  %7.1fx  %4llu/%-5llu  %s\n", n, p.full.wall_ms,
                p.inc.wall_ms, p.inc.wall_ms > 0 ? p.full.wall_ms / p.inc.wall_ms : 0.0,
                static_cast<unsigned long long>(p.full.rerated / 1000),
                static_cast<unsigned long long>(p.inc.rerated / 1000),
                p.identical ? "yes" : "NO  <-- DIVERGENCE");
    std::fflush(stdout);
    check.expect(p.identical, "flows=%zu: full and incremental solvers diverged", n);
    for (const double ms : {p.full.wall_ms, p.inc.wall_ms}) {
      check.expect(std::isfinite(ms) && ms > 0, "flows=%zu: bad wall time %g ms", n, ms);
    }
    points.push_back(p);
  }
  // The incremental path must not regress into overhead where it matters.
  const Point& largest = points.back();
  check.expect(largest.inc.wall_ms <= largest.full.wall_ms,
               "flows=%zu: incremental (%.1f ms) slower than full (%.1f ms)", largest.flows,
               largest.inc.wall_ms, largest.full.wall_ms);
  std::printf("\n");
  check.write(record(points), "BENCH_flow.json");
  return check.ok ? 0 : 1;
}
