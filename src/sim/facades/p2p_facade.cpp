// Registry adapter for the P2P overlay facade: build a ZoneTree platform
// of `sites` clusters, overlay it with a Chord DHT or a Gnutella flooding
// network, and drive lifetime-model churn plus Poisson lookup/search
// traffic over it — the experiment E16 workload as a scenario.
//
//   [p2p]
//   overlay = chord | gnutella
//   peers, sites                      — population and platform shape
//   bandwidth, latency,
//   backbone_bandwidth, backbone_latency
//   m                                 — Chord id-space bits
//   protocol = true|false             — Chord protocol mode (maintenance)
//   stabilize_period, horizon
//   churn = none | exponential | weibull
//   mean_lifetime, weibull_shape, mean_downtime
//   lookup_rate                       — Poisson arrivals per sim second
//   degree, ttl, objects              — Gnutella overlay/flood shape
//
// Churn requires protocol mode for Chord (a failed peer must be healed by
// stabilization, not by an omniscient rebuild); the facade rejects the
// combination churn != none, protocol = false. Routing is ZoneTree-backed
// (O(1) route memory), so the facade scales to million-peer populations.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "net/zone.hpp"
#include "obs/report.hpp"
#include "p2p/churn.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "util/strings.hpp"

namespace lsds::sim {

namespace {

std::string hex64(std::uint64_t v) { return util::strformat("%016llx", (unsigned long long)v); }

// Every key of [p2p], read whatever the overlay and churn model, so a key
// is accepted exactly when the facade knows it.
struct P2pConfig {
  std::string overlay;
  std::size_t peers = 0;
  std::size_t sites = 0;
  net::ClusterSpec site;  // link shape of every site; hosts set per site
  bool churn_on = false;
  p2p::ChurnSpec churn;
  p2p::TrafficSpec traffic;
  std::uint32_t m = 0;  // chord
  bool protocol = false;
  double period = 0;
  std::size_t degree = 0;  // gnutella
  std::size_t objects = 0;
};

P2pConfig parse_config(const util::IniConfig& ini) {
  P2pConfig c;
  c.overlay = ini.get_string("p2p", "overlay", "chord");
  if (c.overlay != "chord" && c.overlay != "gnutella") {
    throw util::ConfigError("unknown overlay: " + c.overlay + " (chord|gnutella)");
  }
  c.peers = ini.get_count("p2p", "peers", 1024, 2);
  c.sites = std::min(ini.get_count("p2p", "sites", 16, 1), c.peers);
  c.site.host_bandwidth = facades::get_positive(ini, "p2p", "bandwidth", 1e8);
  c.site.host_latency = facades::get_non_negative(ini, "p2p", "latency", 5e-3);
  c.site.backbone_bandwidth = facades::get_positive(ini, "p2p", "backbone_bandwidth", 1e10);
  c.site.backbone_latency = facades::get_non_negative(ini, "p2p", "backbone_latency", 2e-2);

  const double horizon = ini.get_duration("p2p", "horizon", 60.0);
  if (!(horizon > 0) || !std::isfinite(horizon)) {
    throw util::ConfigError("[p2p] horizon: must be positive and finite");
  }

  const std::string churn_kind = ini.get_string("p2p", "churn", "none");
  c.churn_on = churn_kind != "none";
  if (churn_kind == "weibull") {
    c.churn.lifetime_model = p2p::ChurnSpec::Lifetime::kWeibull;
  } else if (c.churn_on && churn_kind != "exponential") {
    throw util::ConfigError("unknown churn: " + churn_kind + " (none|exponential|weibull)");
  }
  c.churn.mean_lifetime = ini.get_duration("p2p", "mean_lifetime", 300.0);
  c.churn.weibull_shape = facades::get_positive(ini, "p2p", "weibull_shape", 1.5);
  c.churn.mean_downtime = ini.get_duration("p2p", "mean_downtime", 30.0);
  c.churn.horizon = horizon;
  if (c.churn_on) c.churn.validate();

  c.traffic.rate = facades::get_positive(ini, "p2p", "lookup_rate", 100.0);
  c.traffic.ttl = ini.get_count("p2p", "ttl", 6);
  c.traffic.horizon = horizon;
  c.traffic.validate();

  c.m = static_cast<std::uint32_t>(ini.get_count("p2p", "m", 32));
  c.protocol = ini.get_bool("p2p", "protocol", c.churn_on);
  c.period = ini.get_duration("p2p", "stabilize_period", 5.0);
  if (c.overlay == "chord" && c.churn_on && !c.protocol) {
    throw util::ConfigError(
        "[p2p] churn without protocol mode: a failed peer can only be healed by "
        "stabilization; set protocol = true");
  }
  c.degree = ini.get_count("p2p", "degree", 4);
  c.objects = ini.get_count("p2p", "objects", 64, 1);
  return c;
}

int run_p2p(const P2pConfig& c, core::Engine& eng, obs::RunReport& report) {
  const std::size_t peers = c.peers;
  const std::size_t sites = c.sites;

  // Platform: `sites` clusters under one backbone, peers spread evenly.
  net::ZoneTree tree;
  const std::size_t base = peers / sites;
  const std::size_t extra = peers % sites;
  for (std::size_t s = 0; s < sites; ++s) {
    net::ClusterSpec spec = c.site;
    spec.hosts = base + (s < extra ? 1 : 0);
    tree.add_child(std::make_unique<net::ClusterZone>(spec), spec.backbone_bandwidth,
                   spec.backbone_latency);
  }
  net::ZoneRouting routing(tree);

  std::uint64_t digest = 0;
  if (c.overlay == "chord") {
    p2p::ChordNetwork chord(eng, routing, c.m);
    chord.reserve(peers);
    for (std::size_t i = 0; i < peers; ++i) chord.add_peer(tree.host(i));
    chord.build();
    if (c.protocol) chord.enable_protocol_mode(c.period, c.traffic.horizon);

    p2p::ChordLookupTraffic gen(eng, chord, c.traffic);
    std::unique_ptr<p2p::ChordChurn> churner;
    if (c.churn_on) {
      churner = std::make_unique<p2p::ChordChurn>(eng, chord, c.churn);
      churner->start();
    }
    gen.start();
    eng.run();

    digest = chord.state_digest();
    std::printf(
        "p2p(chord): %zu peers (%zu live), %llu lookups (%.4f failed), mean hops %.2f, "
        "mean latency %.4f s, %llu deaths, peak pending %zu\n",
        peers, chord.size(), static_cast<unsigned long long>(gen.issued()), gen.failure_rate(),
        gen.hops().mean(), gen.latency().mean(),
        static_cast<unsigned long long>(churner ? churner->deaths() : 0), gen.peak_pending());

    report.set_result_core(gen.succeeded(), eng.now(), 0.0);
    auto& res = report.result();
    res["overlay"] = std::string("chord");
    res["peers"] = std::uint64_t{peers};
    res["live_peers"] = std::uint64_t{chord.size()};
    res["lookups_issued"] = gen.issued();
    res["lookups_ok"] = gen.succeeded();
    res["lookups_failed"] = gen.failed();
    res["failure_rate"] = gen.failure_rate();
    res["mean_hops"] = gen.hops().mean();
    res["mean_latency"] = gen.latency().mean();
    res["messages"] = chord.messages_sent();
    res["stabilize_rounds"] = chord.stabilize_rounds();
    res["deaths"] = churner ? churner->deaths() : 0;
    res["rebirths"] = churner ? churner->rebirths() : 0;
    res["state_digest"] = hex64(digest);
    return gen.issued() > 0 && chord.size() > 0 ? 0 : 1;
  }

  // gnutella
  p2p::GnutellaNetwork gnet(eng, routing);
  gnet.reserve(peers);
  for (std::size_t i = 0; i < peers; ++i) gnet.add_peer(tree.host(i));
  gnet.build_random_overlay(c.degree, eng.rng("p2p.overlay"));

  // Catalog: objects placed on rng-drawn peers; searches draw from it.
  std::vector<std::uint64_t> catalog;
  catalog.reserve(c.objects);
  auto& place_rng = eng.rng("p2p.objects");
  for (std::size_t i = 0; i < c.objects; ++i) {
    const std::string name = "obj-" + std::to_string(i);
    const auto holder = static_cast<std::size_t>(
        place_rng.uniform_int(0, static_cast<std::int64_t>(peers) - 1));
    gnet.place_object(holder, name);
    catalog.push_back(p2p::GnutellaNetwork::hash_name(name));
  }

  p2p::GnutellaSearchTraffic gen(eng, gnet, c.traffic, std::move(catalog));
  std::unique_ptr<p2p::GnutellaChurn> churner;
  if (c.churn_on) {
    churner = std::make_unique<p2p::GnutellaChurn>(eng, gnet, c.churn, c.degree);
    churner->start();
  }
  gen.start();
  eng.run();

  digest = gnet.state_digest();
  std::printf(
      "p2p(gnutella): %zu peers (%zu live), %llu searches (%.4f missed), mean hops %.2f, "
      "mean messages %.1f, %llu deaths, query table %zu slots\n",
      peers, gnet.size(), static_cast<unsigned long long>(gen.issued()), gen.failure_rate(),
      gen.hops().mean(), gen.messages().mean(),
      static_cast<unsigned long long>(churner ? churner->deaths() : 0),
      gnet.query_table_capacity());

  report.set_result_core(gen.found(), eng.now(), 0.0);
  auto& res = report.result();
  res["overlay"] = std::string("gnutella");
  res["peers"] = std::uint64_t{peers};
  res["live_peers"] = std::uint64_t{gnet.size()};
  res["searches_issued"] = gen.issued();
  res["searches_found"] = gen.found();
  res["searches_missed"] = gen.missed();
  res["failure_rate"] = gen.failure_rate();
  res["mean_hops"] = gen.hops().mean();
  res["mean_latency"] = gen.latency().mean();
  res["mean_messages"] = gen.messages().mean();
  res["deaths"] = churner ? churner->deaths() : 0;
  res["rebirths"] = churner ? churner->rebirths() : 0;
  res["query_table_slots"] = std::uint64_t{gnet.query_table_capacity()};
  res["state_digest"] = hex64(digest);
  return gen.issued() > 0 && gnet.size() > 0 ? 0 : 1;
}

FacadeRegistry::Study parse_p2p(const util::IniConfig& ini) {
  return [c = parse_config(ini)](core::Engine& eng, obs::RunReport& report) {
    return run_p2p(c, eng, report);
  };
}

}  // namespace

void register_p2p_facade(FacadeRegistry& reg) { reg.add({"p2p", parse_p2p}); }

}  // namespace lsds::sim
