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
// rate, bit-for-bit, plus delivered bytes) is FNV-1a hashed and must match —
// the bench is self-checking and exits non-zero on divergence. Wall-clock,
// solver work counters and the speedup go to BENCH_flow.json for
// tools/check_bench.py.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace core = lsds::core;
namespace net = lsds::net;

namespace {

constexpr std::size_t kClusters = 100;
constexpr std::size_t kLeaves = 20;       // source leaves per cluster
constexpr double kAccessBw = 1e8;
constexpr double kAccessLat = 0.001;
constexpr std::size_t kChurnOps = 2000;   // cancel/replace pairs
constexpr double kFlowBytes = 1e15;       // never completes inside the horizon
constexpr double kStagger = 1e-4;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

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

void emit_json(const std::vector<Point>& points, const char* path) {
  FILE* f = std::fopen(path, "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"benchmark\": \"flow_scaling\",\n");
  std::fprintf(f, "  \"clusters\": %zu,\n  \"churn_ops\": %zu,\n  \"points\": [\n", kClusters,
               kChurnOps);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"flows\": %zu, \"full_wall_ms\": %.3f, \"incremental_wall_ms\": %.3f, "
                 "\"speedup\": %.3f, \"full_hash\": \"%016" PRIx64 "\", "
                 "\"incremental_hash\": \"%016" PRIx64 "\", \"identical\": %s, "
                 "\"full_solves\": %llu, \"incremental_solves\": %llu, "
                 "\"full_rerated\": %llu, \"incremental_rerated\": %llu, "
                 "\"events\": %llu, \"scheduled\": %llu, \"cancelled\": %llu}%s\n",
                 p.flows, p.full.wall_ms, p.inc.wall_ms,
                 p.inc.wall_ms > 0 ? p.full.wall_ms / p.inc.wall_ms : 0.0, p.full.hash,
                 p.inc.hash, p.identical ? "true" : "false",
                 static_cast<unsigned long long>(p.full.solves),
                 static_cast<unsigned long long>(p.inc.solves),
                 static_cast<unsigned long long>(p.full.rerated),
                 static_cast<unsigned long long>(p.inc.rerated),
                 static_cast<unsigned long long>(p.inc.events),
                 static_cast<unsigned long long>(p.inc.scheduled),
                 static_cast<unsigned long long>(p.inc.cancelled),
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
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
  bool ok = true;
  for (std::size_t n : sweep) {
    Point p;
    p.flows = n;
    p.full = run_point(topo, n, false);
    p.inc = run_point(topo, n, true);
    p.identical = p.full.hash == p.inc.hash;
    ok = ok && p.identical;
    std::printf("%10zu  %12.1f  %12.1f  %7.1fx  %4llu/%-5llu  %s\n", n, p.full.wall_ms,
                p.inc.wall_ms, p.inc.wall_ms > 0 ? p.full.wall_ms / p.inc.wall_ms : 0.0,
                static_cast<unsigned long long>(p.full.rerated / 1000),
                static_cast<unsigned long long>(p.inc.rerated / 1000),
                p.identical ? "yes" : "NO  <-- DIVERGENCE");
    std::fflush(stdout);
    points.push_back(p);
  }
  emit_json(points, "BENCH_flow.json");
  std::printf("\nwrote BENCH_flow.json\n");
  if (!ok) {
    std::printf("FAIL: full and incremental solvers diverged\n");
    return 1;
  }
  return 0;
}
