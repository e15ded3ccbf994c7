// Experiment E14 — million-host platforms from hierarchical routing zones.
//
// The paper's scalability axis: flat Topology + Routing stores O(N) nodes,
// O(N * w) links and per-source Dijkstra caches that make million-host
// platforms unbuildable (the 1M-host flat graph alone would hold ~3M nodes
// and 12M links, and ONE warm source costs an O(N^2)-ish cache row). A
// FatTreeZone stores O(levels) integers and computes every route from the
// endpoint coordinates, so build cost is microseconds and memory is flat.
//
// Sweep: fat trees from 1k to 1M hosts. Per point we measure zone build
// time, then "warm" = kRoutesSampled deterministic route computations whose
// link ids and latencies are FNV-1a hashed. Self-checks:
//   * the smallest point's sampled routes are verified byte-identical
//     against flat Dijkstra over the materialized topology;
//   * every point's hash is recomputed in a second pass and must match
//     (route computation is deterministic and side-effect free);
//   * route hashes are non-zero and pairwise distinct (a constant hash would
//     mean routes were not computed), host counts strictly ascend;
//   * zone build cost does not grow with host count the way a flat graph
//     would: every build stays under kMaxBuildMs, and the largest point's
//     build + warm stays under kMaxTotalMs and its RSS under kMaxRssMb.
// The bench exits 1 with a FAIL line on any failed check. Results go to
// BENCH_zone.json; --small caps the sweep at 100k hosts for CI, --large
// adds nothing (1M is already the top point).
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_record.hpp"
#include "core/hash.hpp"
#include "core/rng.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/zone.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace obs = lsds::obs;

namespace {

using namespace lsds::bench;

constexpr std::size_t kRoutesSampled = 20000;
constexpr double kMaxBuildMs = 1000;   // every point
constexpr double kMaxTotalMs = 30000;  // build + warm, largest point
constexpr double kMaxRssMb = 2048;     // largest point

struct Shape {
  const char* name;
  std::vector<std::uint32_t> children, parents;
};

net::FatTreeSpec spec_of(const Shape& s) {
  net::FatTreeSpec spec;
  spec.children = s.children;
  spec.parents = s.parents;
  const std::size_t h = s.children.size();
  spec.bandwidth.assign(h, 0);
  spec.latency.assign(h, 0);
  for (std::size_t l = 0; l < h; ++l) {
    spec.bandwidth[l] = 1e9 * static_cast<double>(l + 1);
    spec.latency[l] = 1e-4 * static_cast<double>(l + 1);
  }
  return spec;
}

// Hash kRoutesSampled routes: link ids in path order + total_latency bits.
// The host pairs come from a local SplitMix64 state, not a global RNG, so
// the hash re-pass sees the exact same pairs.
std::uint64_t warm_hash(net::ZoneRouting& zr, std::size_t hosts) {
  std::uint64_t pairs = 12345;
  core::StateHash h;
  for (std::size_t i = 0; i < kRoutesSampled; ++i) {
    const auto src = static_cast<net::NodeId>(core::splitmix64(pairs) % hosts);
    const auto dst = static_cast<net::NodeId>(core::splitmix64(pairs) % hosts);
    const net::Route& r = zr.route(src, dst);
    h.mix(r.links.size());
    for (net::LinkId l : r.links) h.mix(l);
    h.mix(bits(r.total_latency));
    h.mix(bits(zr.bottleneck_bandwidth(src, dst)));
  }
  return h.value();
}

// Byte-identity spot check against flat Dijkstra (small shapes only). One
// endpoint draw in host_count() + 1 is the gateway, whose routes climb
// without descending; host-to-host routes alone never reach it.
bool flat_check(const net::FatTreeZone& zone, net::ZoneRouting& zr) {
  const net::Topology topo = zone.to_topology();
  net::Routing flat(topo);
  std::uint64_t pairs = 777;
  const auto endpoint = [&] {
    const std::size_t i = core::splitmix64(pairs) % (zone.host_count() + 1);
    return i == zone.host_count() ? zone.gateway() : static_cast<net::NodeId>(i);
  };
  for (std::size_t i = 0; i < 500; ++i) {
    const net::NodeId src = endpoint();
    const net::NodeId dst = endpoint();
    const net::Route zroute = zr.route(src, dst);  // copy out of scratch
    const net::Route& froute = flat.route(src, dst);
    if (zroute.links != froute.links) return false;
    if (bits(zroute.total_latency) != bits(froute.total_latency)) return false;
    if (bits(zr.path_latency(src, dst)) != bits(flat.path_latency(src, dst))) return false;
    if (bits(zr.bottleneck_bandwidth(src, dst)) != bits(flat.bottleneck_bandwidth(src, dst))) {
      return false;
    }
  }
  return true;
}

struct Point {
  std::string name;
  std::size_t hosts = 0, nodes = 0, links = 0;
  double build_ms = 0, warm_ms = 0, rss_mb = 0;
  std::uint64_t hash = 0;
  bool flat_checked = false;
  bool ok = false;
};

obs::Json record(const std::vector<Point>& points) {
  auto doc = obs::Json::object();
  doc.set("benchmark", "zone_scale");
  doc.set("routes_sampled", kRoutesSampled);
  auto& arr = doc["points"] = obs::Json::array();
  for (const Point& p : points) {
    auto pt = obs::Json::object();
    pt.set("shape", p.name);
    pt.set("hosts", p.hosts);
    pt.set("nodes", p.nodes);
    pt.set("links", p.links);
    pt.set("build_ms", p.build_ms);
    pt.set("warm_ms", p.warm_ms);
    pt.set("rss_mb", p.rss_mb);
    pt.set("route_hash", hex(p.hash));
    pt.set("flat_checked", p.flat_checked);
    pt.set("ok", p.ok);
    arr.push(std::move(pt));
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<Shape> sweep = {
      {"xgft(2;32,32;1,4)", {32, 32}, {1, 4}},            // 1k hosts
      {"xgft(2;100,100;1,10)", {100, 100}, {1, 10}},      // 10k
      {"xgft(3;50,50,40;1,10,10)", {50, 50, 40}, {1, 10, 10}},   // 100k
      {"xgft(3;100,100,100;1,10,10)", {100, 100, 100}, {1, 10, 10}},  // 1M
  };
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--small") sweep.pop_back();  // cap at 100k for CI
  }

  std::printf("== Experiment E14: hierarchical zones at platform scale ==\n");
  std::printf("%zu routes sampled + hashed per point\n\n", kRoutesSampled);
  std::printf("%28s  %9s  %10s  %10s  %8s  %s\n", "shape", "hosts", "build [ms]", "warm [ms]",
              "rss [MB]", "self-check");

  std::vector<Point> points;
  std::set<std::uint64_t> hashes;
  SelfCheck check;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    Point p;
    p.name = sweep[i].name;

    const auto t0 = std::chrono::steady_clock::now();
    const auto zone = std::make_unique<net::FatTreeZone>(spec_of(sweep[i]));
    net::ZoneRouting zr(*zone);
    const auto t1 = std::chrono::steady_clock::now();
    p.hash = warm_hash(zr, zone->host_count());
    const auto t2 = std::chrono::steady_clock::now();

    p.hosts = zone->host_count();
    p.nodes = zone->node_count();
    p.links = zone->link_count();
    p.build_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    p.warm_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    p.rss_mb = rss_mb();
    // Determinism re-pass: same pair stream, same hash — always. Flat
    // Dijkstra byte-identity: first (smallest) point only; the flat graph
    // at 100k+ is exactly what this subsystem exists to avoid building.
    p.ok = warm_hash(zr, zone->host_count()) == p.hash;
    if (i == 0) {
      p.flat_checked = true;
      p.ok = p.ok && flat_check(*zone, zr);
    }

    std::printf("%28s  %9zu  %10.2f  %10.1f  %8.1f  %s\n", p.name.c_str(), p.hosts, p.build_ms,
                p.warm_ms, p.rss_mb, p.ok ? (p.flat_checked ? "flat+hash" : "hash") : "FAILED");
    std::fflush(stdout);
    const char* shape = p.name.c_str();
    check.expect(p.ok, "%s: zone routing self-check failed", shape);
    check.expect(points.empty() || p.hosts > points.back().hosts,
                 "%s: hosts not strictly ascending", shape);
    for (const double v : {p.build_ms, p.warm_ms, p.rss_mb}) {
      check.expect(std::isfinite(v) && v >= 0, "%s: bad measurement %g", shape, v);
    }
    check.expect(p.hash != 0, "%s: zero route hash, routes were not computed", shape);
    check.expect(hashes.insert(p.hash).second, "%s: duplicate route hash %s", shape,
                 hex(p.hash).c_str());
    check.expect(p.build_ms <= kMaxBuildMs,
                 "%s: build_ms %.1f > %.0f (zone build must not scale with host count)", shape,
                 p.build_ms, kMaxBuildMs);
    points.push_back(p);
  }
  const Point& largest = points.back();
  const double total_ms = largest.build_ms + largest.warm_ms;
  check.expect(total_ms <= kMaxTotalMs, "%s: build+warm %.0f ms > %.0f ms", largest.name.c_str(),
               total_ms, kMaxTotalMs);
  check.expect(largest.rss_mb <= kMaxRssMb, "%s: rss %.0f MB > %.0f MB", largest.name.c_str(),
               largest.rss_mb, kMaxRssMb);
  std::printf("\n");
  check.write(record(points), "BENCH_zone.json");
  return check.ok ? 0 : 1;
}
