// Registry adapter for the platform facade: build a routing-zone platform
// from the `[platform]` section and drive a deterministic all-to-random
// transfer workload over it. The `zone` key picks the provider:
//
//   zone = star | cluster | fat-tree   — algorithmic ZoneRouting, no flat
//                                        graph; scales to millions of hosts.
//   zone = flat                        — the SAME shape (inferred from the
//                                        shape keys) materialized into a
//                                        flat Topology and routed with
//                                        Dijkstra. The A/B control: results
//                                        are identical by the differential
//                                        contract, memory/build cost is not.
//
// Shape keys: `hosts` (star/cluster), `children`/`parents` (fat-tree level
// lists, e.g. "4,4" / "1,2"), `bandwidth`/`latency` (scalar, or per-level
// list for fat-tree), `backbone_bandwidth`/`backbone_latency` (cluster),
// `up = lowest|dmodk` (fat-tree equal-cost policy). Workload keys: `flows`
// transfers of `bytes` each between rng-drawn host pairs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "net/transfer.hpp"
#include "net/zone.hpp"
#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "util/strings.hpp"

namespace lsds::sim {

namespace {

// "4,4" / "4x4" / "4 4" -> {4, 4}.
std::vector<double> parse_list(const std::string& raw, const char* what) {
  std::string s = raw;
  for (char& c : s) {
    if (c == ',' || c == 'x') c = ' ';
  }
  std::vector<double> out;
  for (const std::string& tok : util::split_ws(s)) {
    try {
      out.push_back(std::stod(tok));
    } catch (const std::exception&) {
      throw util::ConfigError("[platform] " + std::string(what) + ": bad number '" + tok + "'");
    }
  }
  if (out.empty()) throw util::ConfigError("[platform] " + std::string(what) + ": empty list");
  return out;
}

std::vector<std::uint32_t> parse_u32_list(const std::string& raw, const char* what) {
  std::vector<std::uint32_t> out;
  for (double v : parse_list(raw, what)) out.push_back(static_cast<std::uint32_t>(v));
  return out;
}

// Per-level link parameters: a scalar broadcasts to all levels.
std::vector<double> per_level(const util::IniConfig& ini, const char* key, double def,
                              std::size_t levels) {
  const auto raw = ini.get("platform", key);
  std::vector<double> v = raw ? parse_list(*raw, key) : std::vector<double>{def};
  if (v.size() == 1) v.assign(levels, v[0]);
  if (v.size() != levels) {
    throw util::ConfigError("[platform] " + std::string(key) + ": expected 1 or " +
                            std::to_string(levels) + " values, got " + std::to_string(v.size()));
  }
  return v;
}

// Every [platform] key, read whatever the zone, so a key is accepted
// exactly when the facade knows it. Only the spec of `shape` is used.
struct PlatformConfig {
  std::string kind;   // the `zone` key
  std::string shape;  // star | cluster | fat-tree
  net::StarSpec star;
  net::ClusterSpec cluster;
  net::FatTreeSpec fat_tree;
  std::size_t flows = 0;
  double bytes = 0;
};

PlatformConfig parse_config(const util::IniConfig& ini) {
  PlatformConfig c;
  c.kind = ini.get_string("platform", "zone", "cluster");
  // zone = flat is the control arm: same shape, flat-graph Dijkstra routing.
  c.shape = c.kind != "flat" ? c.kind
            : ini.has("platform", "children") ? "fat-tree"
            : ini.has("platform", "backbone_bandwidth") || !ini.has("platform", "hosts")
                ? "cluster"
                : "star";
  if (c.shape != "star" && c.shape != "cluster" && c.shape != "fat-tree") {
    throw util::ConfigError("unknown zone: " + c.kind + " (star|cluster|fat-tree|flat)");
  }

  c.star.hosts = c.cluster.hosts = ini.get_count("platform", "hosts", 64);
  c.cluster.backbone_bandwidth =
      facades::get_positive(ini, "platform", "backbone_bandwidth", 10e9);
  c.cluster.backbone_latency = facades::get_non_negative(ini, "platform", "backbone_latency", 1e-3);
  c.fat_tree.children = parse_u32_list(ini.get_string("platform", "children", "4,4"), "children");
  c.fat_tree.parents = parse_u32_list(ini.get_string("platform", "parents", "1,2"), "parents");
  const std::string up = ini.get_string("platform", "up", "lowest");
  if (up == "dmodk") {
    c.fat_tree.up = net::FatTreeSpec::UpPolicy::kDmodK;
  } else if (up != "lowest") {
    throw util::ConfigError("unknown up policy: " + up + " (lowest|dmodk)");
  }
  // `bandwidth`/`latency` are scalars, or per-level lists for fat-tree.
  if (c.shape == "fat-tree") {
    c.fat_tree.bandwidth = per_level(ini, "bandwidth", 1e9, c.fat_tree.children.size());
    c.fat_tree.latency = per_level(ini, "latency", 1e-4, c.fat_tree.children.size());
  } else {
    c.star.bandwidth = c.cluster.host_bandwidth =
        facades::get_positive(ini, "platform", "bandwidth", 1e9);
    c.star.latency = c.cluster.host_latency =
        facades::get_non_negative(ini, "platform", "latency", 1e-4);
  }

  c.flows = ini.get_count("platform", "flows", 64);
  c.bytes = facades::get_non_negative(ini, "platform", "bytes", 1e8);
  return c;
}

std::unique_ptr<net::Zone> build_zone(const PlatformConfig& c) {
  if (c.shape == "star") return std::make_unique<net::StarZone>(c.star);
  if (c.shape == "cluster") return std::make_unique<net::ClusterZone>(c.cluster);
  return std::make_unique<net::FatTreeZone>(c.fat_tree);
}

int run_platform(const PlatformConfig& c, core::Engine& eng, obs::RunReport& report) {
  const bool flat = c.kind == "flat";
  const std::string& shape = c.shape;
  const std::unique_ptr<net::Zone> zone = build_zone(c);

  std::unique_ptr<net::Topology> topo;        // flat arm only
  std::unique_ptr<net::RouteProvider> provider;
  if (flat) {
    topo = std::make_unique<net::Topology>(zone->to_topology());
    provider = std::make_unique<net::Routing>(*topo);
  } else {
    provider = std::make_unique<net::ZoneRouting>(*zone);
  }

  net::FlowNetwork fnet(eng, *provider);
  net::TransferService xfer(eng, fnet);

  const std::size_t flows = c.flows;
  const double bytes = c.bytes;
  auto& rng = eng.rng("platform.pairs");
  eng.schedule_at(0.0, [&] {
    const auto n = static_cast<std::int64_t>(zone->host_count());
    for (std::size_t i = 0; i < flows; ++i) {
      const auto src = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      auto dst = static_cast<std::size_t>(rng.uniform_int(0, n - 2));
      if (dst >= src) ++dst;
      xfer.submit(zone->host(src), zone->host(dst), bytes);
    }
  });
  eng.run();

  const double makespan = eng.now();
  std::printf("platform(%s%s): %zu hosts, %zu links, %llu transfers, %.3e bytes, makespan %.2f s\n",
              shape.c_str(), flat ? "/flat" : "", zone->host_count(), zone->link_count(),
              static_cast<unsigned long long>(xfer.completed()), xfer.bytes_completed(), makespan);

  report.set_result_core(xfer.completed(), makespan, xfer.bytes_completed());
  auto& res = report.result();
  res["zone"] = c.kind;
  res["shape"] = shape;
  res["hosts"] = zone->host_count();
  res["nodes"] = zone->node_count();
  res["links"] = zone->link_count();
  res["mean_transfer_duration"] = xfer.durations().mean();
  return xfer.completed() == flows ? 0 : 1;
}

FacadeRegistry::Study parse_platform(const util::IniConfig& ini) {
  return [c = parse_config(ini)](core::Engine& eng, obs::RunReport& report) {
    return run_platform(c, eng, report);
  };
}

}  // namespace

void register_platform_facade(FacadeRegistry& reg) { reg.add({"platform", parse_platform}); }

}  // namespace lsds::sim
