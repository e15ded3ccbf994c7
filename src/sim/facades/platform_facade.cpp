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
  std::vector<double> v = ini.has("platform", key)
                              ? parse_list(ini.get_string("platform", key, ""), key)
                              : std::vector<double>{def};
  if (v.size() == 1) v.assign(levels, v[0]);
  if (v.size() != levels) {
    throw util::ConfigError("[platform] " + std::string(key) + ": expected 1 or " +
                            std::to_string(levels) + " values, got " + std::to_string(v.size()));
  }
  return v;
}

std::unique_ptr<net::Zone> build_zone(const util::IniConfig& ini, const std::string& shape) {
  const auto hosts = static_cast<std::size_t>(ini.get_int("platform", "hosts", 64));
  const double bw = ini.get_double("platform", "bandwidth", 1e9);
  const double lat = ini.get_double("platform", "latency", 1e-4);
  if (shape == "star") {
    return std::make_unique<net::StarZone>(net::StarSpec{hosts, bw, lat});
  }
  if (shape == "cluster") {
    net::ClusterSpec s;
    s.hosts = hosts;
    s.host_bandwidth = bw;
    s.host_latency = lat;
    s.backbone_bandwidth = ini.get_double("platform", "backbone_bandwidth", 10e9);
    s.backbone_latency = ini.get_double("platform", "backbone_latency", 1e-3);
    return std::make_unique<net::ClusterZone>(s);
  }
  if (shape == "fat-tree") {
    net::FatTreeSpec s;
    s.children = parse_u32_list(ini.get_string("platform", "children", "4,4"), "children");
    s.parents = parse_u32_list(ini.get_string("platform", "parents", "1,2"), "parents");
    s.bandwidth = per_level(ini, "bandwidth", bw, s.children.size());
    s.latency = per_level(ini, "latency", lat, s.children.size());
    const std::string up = ini.get_string("platform", "up", "lowest");
    if (up == "dmodk") {
      s.up = net::FatTreeSpec::UpPolicy::kDmodK;
    } else if (up != "lowest") {
      throw util::ConfigError("unknown up policy: " + up + " (lowest|dmodk)");
    }
    return std::make_unique<net::FatTreeZone>(s);
  }
  throw util::ConfigError("unknown zone: " + shape + " (star|cluster|fat-tree|flat)");
}

int run_platform(core::Engine& eng, const util::IniConfig& ini, obs::RunReport& report) {
  const std::string kind = ini.get_string("platform", "zone", "cluster");
  // zone = flat is the control arm: same shape, flat-graph Dijkstra routing.
  const bool flat = kind == "flat";
  const std::string shape =
      flat ? (ini.has("platform", "children") ? "fat-tree"
              : ini.has("platform", "backbone_bandwidth") || !ini.has("platform", "hosts")
                  ? "cluster"
                  : "star")
           : kind;
  const std::unique_ptr<net::Zone> zone = build_zone(ini, shape);

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

  const auto flows = static_cast<std::size_t>(ini.get_int("platform", "flows", 64));
  const double bytes = ini.get_double("platform", "bytes", 1e8);
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
  res["zone"] = kind;
  res["shape"] = shape;
  res["hosts"] = zone->host_count();
  res["nodes"] = zone->node_count();
  res["links"] = zone->link_count();
  res["mean_transfer_duration"] = xfer.durations().mean();
  return xfer.completed() == flows ? 0 : 1;
}

}  // namespace

void register_platform_facade(FacadeRegistry& reg) {
  FacadeRegistry::Entry e;
  e.name = "platform";
  e.run = run_platform;
  e.keys["platform"] = {"zone",     "hosts",   "children",           "parents",
                        "bandwidth", "latency", "backbone_bandwidth", "backbone_latency",
                        "up",        "flows",   "bytes"};
  reg.add(std::move(e));
}

}  // namespace lsds::sim
