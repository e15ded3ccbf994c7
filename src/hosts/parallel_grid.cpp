#include "hosts/parallel_grid.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/log.hpp"

namespace lsds::hosts {

SiteId ParallelGrid::add_site(const SiteSpec& spec) {
  assert(!finalized() && "cannot add sites after finalize()");
  assert(zone_ == nullptr && "zone-backed grids attach sites with add_site_at");
  const auto id = static_cast<SiteId>(specs_.size());
  nodes_.push_back(topo_.add_node(spec.name, net::NodeKind::kHost));
  specs_.push_back(spec);
  return id;
}

void ParallelGrid::use_zone(const net::Zone& zone) {
  assert(!finalized() && specs_.empty() && "use_zone before adding sites");
  zone_ = &zone;
}

SiteId ParallelGrid::add_site_at(const SiteSpec& spec, net::NodeId node) {
  assert(!finalized() && "cannot add sites after finalize()");
  assert((zone_ ? node < zone_->node_count() : node < topo_.node_count()));
  const auto id = static_cast<SiteId>(specs_.size());
  nodes_.push_back(node);
  specs_.push_back(spec);
  return id;
}

void ParallelGrid::finalize() {
  assert(!finalized());
  if (zone_) {
    zone_routing_ = std::make_unique<net::ZoneRouting>(*zone_);
    provider_ = zone_routing_.get();
  } else {
    routing_ = std::make_unique<net::Routing>(topo_);
    provider_ = routing_.get();
  }

  unsigned lps = 1;
  unsigned threads = 1;
  net::Partition part;
  if (spec_.parallel) {
    threads = std::max(1u, spec_.threads);
    lps = spec_.lps > 0 ? spec_.lps : threads;
    // A ZoneTree platform carries its partition structure: no all-pairs
    // latency matrix.
    const auto* tree = dynamic_cast<const net::ZoneTree*>(zone_);
    part = tree ? net::partition_zone_tree(*tree, nodes_, lps)
                : net::partition_sites(*provider_, nodes_, lps, spec_.partition);
    lps = part.parts;
    if (lps <= 1) fallback_reason_ = "partitioning yielded a single LP";
  }
  owner_.assign(specs_.size(), 0);
  if (lps > 1) owner_ = std::move(part.owner);

  // Each declared channel that crosses the cut becomes an engine channel
  // whose delay is the pair's path latency, capped by the override.
  struct Crossing {
    unsigned src, dst;
    double delay;
  };
  std::vector<Crossing> crossings;
  lookahead_ = core::kInfTime;
  const std::size_t n = specs_.size();
  for (const auto& [from, to] : channels_) {
    if (owner_[from] == owner_[to]) continue;  // same LP: an ordinary local event
    double delay = part.latency.empty() ? path_latency(from, to) : part.latency[from * n + to];
    if (spec_.lookahead_override > 0) delay = std::min(delay, spec_.lookahead_override);
    if (!(delay > 0)) {
      // No conservative window can separate the two partitions. Run
      // serial: same model, same results.
      fallback_reason_ = "channel " + specs_[from].name + " -> " + specs_[to].name +
                         " crosses the partition cut with zero latency";
      break;
    }
    crossings.push_back({owner_[from], owner_[to], delay});
    lookahead_ = std::min(lookahead_, delay);
  }
  if (!fallback_reason_.empty()) {
    LSDS_LOG_WARN("parallel_grid: falling back to serial execution: %s",
                  fallback_reason_.c_str());
    lps = 1;
    threads = 1;
    owner_.assign(n, 0);
    crossings.clear();
    lookahead_ = core::kInfTime;
  }

  core::ParallelEngine::Config pcfg;
  pcfg.num_lps = lps;
  pcfg.num_threads = threads;
  pcfg.queue = spec_.queue;
  pcfg.seed = spec_.seed;
  pe_ = std::make_unique<core::ParallelEngine>(pcfg);
  for (const Crossing& c : crossings) pe_->connect(c.src, c.dst, c.delay);

  sites_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    sites_.push_back(std::make_unique<Site>(pe_->lp(owner_[i]).engine(),
                                            static_cast<SiteId>(i), nodes_[i], specs_[i]));
  }
  chan_busy_.assign(specs_.size(), {});
  chan_bytes_.assign(specs_.size(), {});

  // Per-LP flow networks for partition-local flow-level transfers. When
  // flat, warm the routing cache from every site first: Routing::route
  // caches lazily, one Dijkstra per source, and is not thread-safe, so all
  // lookups LP threads might trigger must be materialized here,
  // single-threaded. Zone providers compute routes into per-thread scratch
  // and need no warming — which is also what keeps million-host platforms
  // affordable.
  if (!zone_) {
    for (net::NodeId node : nodes_) routing_->route(node, node);
  }
  // Per-LP storage ownership: a site's max-min devices register with its
  // owner LP's flow network ONLY — the resource lives where its events run,
  // so partition-local flows see endpoint disk constraints while cross-LP
  // movement stays on the analytic channels (whose store-and-forward law is
  // already computed at the source). Each LP's endpoint binder therefore
  // covers exactly its own sites, and an LP whose sites are all FIFO gets
  // none; serial (1 LP) is the Grid wiring, keeping serial-vs-parallel
  // traces identical by construction.
  flow_nets_.reserve(lps);
  for (unsigned lp = 0; lp < lps; ++lp) {
    flow_nets_.push_back(std::make_unique<net::FlowNetwork>(pe_->lp(lp).engine(), *provider_));
    std::vector<Site*> own;
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      if (owner_[i] == lp) own.push_back(sites_[i].get());
    }
    wire_storage(*flow_nets_.back(), own);
  }
}

void ParallelGrid::channel(SiteId from, SiteId to) {
  if (from >= specs_.size() || to >= specs_.size()) {
    throw std::out_of_range("ParallelGrid::channel: site " + std::to_string(std::max(from, to)) +
                            " out of range (" + std::to_string(specs_.size()) + " sites)");
  }
  if (finalized()) {
    throw std::logic_error("ParallelGrid::channel: declare channels before finalize()");
  }
  channels_.emplace_back(from, to);
}

void ParallelGrid::at(SiteId at_site, core::SimTime t, core::EventFn fn) {
  assert(finalized());
  pe_->lp(owner_[at_site]).schedule_at(t, std::move(fn));
}

void ParallelGrid::post(SiteId from, SiteId to, core::SimTime t, core::EventFn fn) {
  assert(finalized());
  pe_->lp(owner_[from]).send(owner_[to], t, std::move(fn));
}

double ParallelGrid::path_latency(SiteId from, SiteId to) {
  return provider_->path_latency(nodes_[from], nodes_[to]);
}

core::SimTime ParallelGrid::transfer(SiteId from, SiteId to, double bytes,
                                     core::EventFn on_arrival) {
  assert(finalized());
  const double bw = provider_->bottleneck_bandwidth(nodes_[from], nodes_[to]);
  assert(bw > 0 && "transfer over an unreachable or zero-bandwidth path");
  const core::SimTime now = pe_->lp(owner_[from]).now();
  double& busy = chan_busy_[from].try_emplace(to, 0).first->second;
  const core::SimTime start = std::max(now, busy);
  busy = start + bytes / bw;
  const core::SimTime arrival = busy + path_latency(from, to);
  chan_bytes_[from][to] += bytes;
  post(from, to, arrival, std::move(on_arrival));
  return arrival;
}

std::vector<std::tuple<SiteId, SiteId, double>> ParallelGrid::channel_bytes() const {
  std::vector<std::tuple<SiteId, SiteId, double>> out;
  for (SiteId from = 0; from < static_cast<SiteId>(chan_bytes_.size()); ++from) {
    for (const auto& [to, bytes] : chan_bytes_[from]) {
      out.emplace_back(from, to, bytes);
    }
  }
  return out;
}

ExecutionReport ParallelGrid::run(core::SimTime horizon) {
  assert(finalized());
  ExecutionReport rep;
  rep.parallel = parallel();
  rep.fallback_reason = fallback_reason_;
  rep.lps = pe_->num_lps();
  rep.threads = spec_.parallel && fallback_reason_.empty() ? std::max(1u, spec_.threads) : 1;
  rep.lookahead = lookahead_;
  rep.partition = spec_.partition;
  rep.engine = pe_->run_until(horizon);
  for (std::uint64_t e : rep.engine.per_lp_events) {
    rep.lp_events.add(static_cast<double>(e));
  }
  return rep;
}

}  // namespace lsds::hosts
