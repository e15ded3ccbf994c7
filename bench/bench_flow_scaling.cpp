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
//
// A second section is the saturated sweep: MONARC's 2.5 Gbps T0->T1 link,
// one 20 GB flow arriving every 40 s (1.6x the link's capacity), run until
// every flow completes. All flows share one link, so every arrival and
// departure re-rates every flow in flight: the re-rated count grows with
// the square of the arrivals, and the cost per re-rated flow is what the
// sweep tracks. Both solvers must give bit-identical completion instants.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "core/engine.hpp"
#include "core/hash.hpp"
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

constexpr double kSaturatedBw = 2.5e9 / 8;  // 2.5 Gbps in B/s
constexpr double kSaturatedBytes = 20e9;
constexpr double kSaturatedInterval = 40;

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

// Runs `run` (which drains the engine) under a wall clock and collects the
// engine's and the solver's counters; the caller adds the state hash.
template <class Run>
Outcome measure(const core::Engine& eng, const net::FlowNetwork& fnet, Run run) {
  const auto t0 = std::chrono::steady_clock::now();
  run();
  const auto t1 = std::chrono::steady_clock::now();
  Outcome o;
  o.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  o.events = eng.stats().executed;
  o.scheduled = eng.stats().scheduled;
  o.cancelled = eng.stats().cancelled;
  o.solves = fnet.solves();
  o.rerated = fnet.flows_rerated();
  o.sharing = fnet.sharing_flows();
  return o;
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

  Outcome o = measure(eng, fnet, [&eng, horizon] { eng.run_until(horizon); });
  // Bitwise final-state fingerprint: every live flow's rate in id order,
  // then the delivered-byte total.
  core::StateHash h;
  std::vector<net::FlowId> ids = live;
  std::sort(ids.begin(), ids.end());
  for (net::FlowId id : ids) {
    h.mix(id);
    h.mix(bits(fnet.flow_rate(id)));
  }
  h.mix(bits(fnet.total_bytes_delivered()));
  o.hash = h.value();
  return o;
}

struct Point {
  std::size_t flows;
  Outcome full;
  Outcome inc;
  bool identical = false;
};

// The saturated sweep: `arrivals` flows over one 2.5 Gbps link, run to the
// last completion. The hash covers every completion instant, bit for bit
// in flow id order, then the delivered-byte total.
Outcome run_saturated(std::size_t arrivals, bool incremental, std::size_t& completed) {
  net::Topology topo;
  const auto t0_node = topo.add_node("t0");
  const auto t1_node = topo.add_node("t1");
  topo.add_link(t0_node, t1_node, kSaturatedBw, 0.001);
  core::Engine eng(core::Engine::Config{core::QueueKind::kBinaryHeap, 42, 0, 0});
  net::Routing routing(topo);
  net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});

  std::vector<double> done_at(arrivals, -1.0);
  for (std::size_t k = 0; k < arrivals; ++k) {
    eng.schedule_at(static_cast<double>(k) * kSaturatedInterval, [&, k] {
      fnet.start_flow(t0_node, t1_node, kSaturatedBytes,
                      [&done_at, &eng, k](net::FlowId) { done_at[k] = eng.now(); });
    });
  }
  Outcome o = measure(eng, fnet, [&eng] { eng.run(); });
  core::StateHash h;
  for (double t : done_at) h.mix(bits(t));  // flow k has id k + 1
  h.mix(bits(fnet.total_bytes_delivered()));
  o.hash = h.value();
  completed = fnet.flows_completed();
  return o;
}

double ns_per_rerated(const Outcome& o) {
  return o.rerated > 0 ? o.wall_ms * 1e6 / static_cast<double>(o.rerated) : 0.0;
}

obs::Json record(const std::vector<Point>& points, const std::vector<Point>& saturated) {
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
  auto& sat = doc["saturated"] = obs::Json::array();
  for (const Point& p : saturated) {
    auto pt = obs::Json::object();
    pt.set("arrivals", p.flows);
    pt.set("identical", p.identical);
    pt.set("incremental_hash", hex(p.inc.hash));
    pt.set("events", p.inc.events);
    for (const auto& [name, o] : {std::pair<const char*, const Outcome*>{"full", &p.full},
                                  std::pair<const char*, const Outcome*>{"incremental", &p.inc}}) {
      const std::string pre = name;
      pt.set(pre + "_wall_ms", o->wall_ms);
      pt.set(pre + "_solves", o->solves);
      pt.set(pre + "_rerated", o->rerated);
      pt.set(pre + "_ns_per_rerated", ns_per_rerated(*o));
    }
    sat.push(std::move(pt));
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> sweep = {100, 1000, 10000};
  std::vector<std::size_t> saturated_sweep = {1000, 2000, 4000};
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--small") {
      sweep = {100, 1000, 4000};
      saturated_sweep = {250, 500, 1000};
    }
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

  // No wall-time ratio is checked here: an exact solver settles every flow
  // in flight at every change, so the cost per event grows with the flows
  // in flight, and only the cost per re-rated flow can stay flat.
  std::printf("Saturated link: one %.1f Gbps link, a %.0f GB flow every %.0f s, run to the end\n",
              kSaturatedBw * 8 / 1e9, kSaturatedBytes / 1e9, kSaturatedInterval);
  std::printf("%10s  %10s  %12s  %12s  %12s  %10s  %10s  %s\n", "arrivals", "events",
              "full [ms]", "incr [ms]", "rerated", "full ns/fl", "incr ns/fl", "identical");
  std::vector<Point> saturated;
  for (std::size_t n : saturated_sweep) {
    Point p;
    p.flows = n;
    std::size_t full_done = 0;
    std::size_t inc_done = 0;
    p.full = run_saturated(n, false, full_done);
    p.inc = run_saturated(n, true, inc_done);
    p.identical = p.full.hash == p.inc.hash;
    std::printf("%10zu  %10llu  %12.1f  %12.1f  %12llu  %10.1f  %10.1f  %s\n", n,
                static_cast<unsigned long long>(p.inc.events), p.full.wall_ms, p.inc.wall_ms,
                static_cast<unsigned long long>(p.inc.rerated), ns_per_rerated(p.full),
                ns_per_rerated(p.inc), p.identical ? "yes" : "NO  <-- DIVERGENCE");
    std::fflush(stdout);
    check.expect(p.identical, "saturated arrivals=%zu: full and incremental solvers diverged", n);
    check.expect(full_done == n && inc_done == n,
                 "saturated arrivals=%zu: %zu / %zu flows completed", n, full_done, inc_done);
    for (const double ms : {p.full.wall_ms, p.inc.wall_ms}) {
      check.expect(std::isfinite(ms) && ms > 0, "saturated arrivals=%zu: bad wall time %g ms", n,
                   ms);
    }
    saturated.push_back(p);
  }
  std::printf("\n");
  check.write(record(points, saturated), "BENCH_flow.json");
  return check.ok ? 0 : 1;
}
