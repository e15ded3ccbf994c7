// Parallel Grid execution: Sites partitioned across logical processes.
//
// Grid (hosts/site.hpp) binds every site to ONE sequential engine; at LSDS
// scale that serial execution "can not be a reality" (the paper's execution
// axis). ParallelGrid is the threaded counterpart: sites — each with its
// CPU farm, storage and local model state — are partitioned across the LPs
// of a core::ParallelEngine (one full core::Engine per LP), and every
// cross-site interaction travels through the deterministic cross-LP message
// path.
//
// The lookahead is not a config knob: it comes from the channels the model
// declares, and physics guarantees conservatism — no site can affect
// another sooner than the network can carry the news. Before finalize(), a
// model declares the site pairs it sends on (channel()). finalize()
// partitions the sites, and each declared pair whose sites land on
// different LPs becomes an engine channel between the owners' LPs, whose
// delay is the pair's path latency; every LP runs ahead to its own horizon
// over that channel graph (core/parallel.hpp). The lookahead is the
// smallest of those delays. Pairs that never talk constrain nothing.
// Consequences:
//   * the topology-aware partitioner keeps latency clusters together, so
//     most declared channels stay inside one LP and the ones that cross
//     run over the expensive WAN links (net/partition.hpp);
//   * when a declared channel that crosses the cut has zero latency,
//     conservative parallelism is impossible, and ParallelGrid falls back
//     to serial execution with a logged reason naming both sites. The
//     fallback runs the *same* model code on 1 LP, so results are
//     identical by construction.
//
// Cross-site data movement uses an analytic store-and-forward channel per
// ordered site pair: a transfer occupies the channel for bytes/bottleneck
// bandwidth of the path, queueing FIFO behind earlier transfers on the same
// pair, and arrives one path latency later. The law is computed at the
// source from static routing data, so serial and parallel runs produce
// bit-identical timestamps — the property the differential determinism
// suite (tests/parallel_grid_test.cpp) enforces.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel.hpp"
#include "hosts/site.hpp"
#include "net/partition.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/zone.hpp"
#include "stats/summary.hpp"

namespace lsds::hosts {

/// How to execute a ParallelGrid model.
struct ExecutionSpec {
  bool parallel = false;   // false = serial reference (1 LP, 1 thread)
  unsigned threads = 4;
  unsigned lps = 0;        // 0 = one LP per thread
  net::PartitionScheme partition = net::PartitionScheme::kTopology;
  /// Optional lookahead override (seconds). When > 0 it caps every channel
  /// delay — it can narrow the LPs' horizons for experiments, never widen
  /// them past what the topology allows.
  double lookahead_override = 0;
  core::QueueKind queue = core::QueueKind::kBinaryHeap;
  std::uint64_t seed = 42;
};

/// Outcome of a ParallelGrid run: the engine's round/message counters plus
/// the per-LP load rollup (stats/summary) the execution report prints.
struct ExecutionReport {
  bool parallel = false;            // false when fell back (or asked serial)
  std::string fallback_reason;      // empty unless a parallel request fell back
  unsigned lps = 1;
  unsigned threads = 1;
  double lookahead = 0;             // smallest cross-LP channel delay (+inf serial)
  net::PartitionScheme partition = net::PartitionScheme::kTopology;
  core::ParallelEngine::Stats engine;
  /// Events executed per LP — balance profile (mean/min/max/stddev).
  stats::Accumulator lp_events;
  /// max/mean of per-LP events — 1.0 is perfect balance.
  double imbalance() const {
    return lp_events.mean() > 0 ? lp_events.max() / lp_events.mean() : 1.0;
  }
};

class ParallelGrid {
 public:
  explicit ParallelGrid(ExecutionSpec spec) : spec_(spec) {}

  net::Topology& topology() { return topo_; }
  const net::Topology& topology() const { return topo_; }
  std::uint64_t master_seed() const { return spec_.seed; }

  /// Create a topology node and record a site spec for it. Sites are
  /// instantiated (bound to their partition's engine) by finalize().
  SiteId add_site(const SiteSpec& spec);

  /// Zone-backed platform: routes come from `zone`'s algorithmic provider
  /// instead of a flat graph. Call before any add_site_at; sites then
  /// attach to zone node ids (typically zone.host(i)) and the local
  /// topology stays unused. The zone must outlive the grid.
  void use_zone(const net::Zone& zone);
  /// Record a site attached to an existing platform node (zone mode, or a
  /// hand-built topology node).
  SiteId add_site_at(const SiteSpec& spec, net::NodeId node);

  /// Declare that the model sends from site `from` to site `to` (post() or
  /// transfer()). Call before finalize(). When finalize() puts the two
  /// sites on different LPs, the pair becomes the engine channel between
  /// those LPs, with the pair's path latency as its minimum delay, capped
  /// at ExecutionSpec::lookahead_override when that is set; a pair on one
  /// LP declares nothing. A post between LPs that no declared pair connects
  /// throws std::logic_error when it runs, so a model declares every pair
  /// it sends on. Throws std::out_of_range for a site id >= site_count(),
  /// and std::logic_error after finalize().
  void channel(SiteId from, SiteId to);

  /// Partition sites, give every declared channel that crosses the cut its
  /// delay, build per-LP engines and instantiate every Site on its owner
  /// LP. Topology must not change afterwards.
  void finalize();
  bool finalized() const { return pe_ != nullptr; }

  // --- post-finalize introspection -----------------------------------------

  std::size_t site_count() const { return specs_.size(); }
  Site& site(SiteId id) { return *sites_[id]; }
  unsigned lp_of(SiteId id) const { return owner_[id]; }
  unsigned num_lps() const { return pe_->num_lps(); }
  core::Engine& engine_of(SiteId id) { return pe_->lp(owner_[id]).engine(); }
  net::RouteProvider& routing() { return *provider_; }
  /// Flow network of the LP owning `id` — flow-level (max-min shared)
  /// transfers between sites of the SAME partition, driven from events on
  /// that LP. Sharing is partition-local by design; cross-partition data
  /// movement goes through transfer()'s analytic channels. Routes are
  /// pre-warmed at finalize() when flat (Routing's lazy cache is not
  /// thread-safe); zone providers answer from per-thread scratch and need
  /// no warming.
  net::FlowNetwork& flows_of(SiteId id) { return *flow_nets_[owner_[id]]; }
  /// The smallest delay of a declared channel that crosses the cut; +inf
  /// when none crosses, and when serial (single LP).
  double lookahead() const { return lookahead_; }
  /// True when the run will actually be multi-LP.
  bool parallel() const { return pe_->num_lps() > 1; }
  const std::string& fallback_reason() const { return fallback_reason_; }

  /// Clock of the LP owning `id` (valid inside events on that LP).
  core::SimTime now_of(SiteId id) { return engine_of(id).now(); }

  // --- event API -----------------------------------------------------------
  //
  // `at` is the setup entry point (call before run()); `post` is the
  // cross-site path (call from an event running on `from`'s LP). A post
  // must respect the network: t >= now + path latency(from, to) — which
  // transfer() guarantees by construction. Violations would be clamped and
  // counted by the engine (Stats::lookahead_violations); the differential
  // suite asserts the count stays 0.

  /// Schedule `fn` on the LP owning `at_site` at absolute time `t`.
  void at(SiteId at_site, core::SimTime t, core::EventFn fn);

  /// Send an event from `from`'s LP to `to`'s LP, arriving at time `t`.
  void post(SiteId from, SiteId to, core::SimTime t, core::EventFn fn);

  /// Queue `bytes` on the (from, to) store-and-forward channel and deliver
  /// `fn` on `to`'s LP at the arrival time, which is returned:
  ///   start   = max(now, channel busy-until)
  ///   arrival = start + bytes / bottleneck_bw(path) + latency(path)
  /// Call from an event on `from`'s LP (or at setup time for t=0 sends).
  core::SimTime transfer(SiteId from, SiteId to, double bytes, core::EventFn on_arrival);

  /// Path latency (static routing data; identical in serial and parallel).
  double path_latency(SiteId from, SiteId to);

  /// Bytes ever queued on each non-empty channel, in (from, to) order —
  /// deterministic; the differential suite compares this across LP counts.
  std::vector<std::tuple<SiteId, SiteId, double>> channel_bytes() const;

  // --- execution -----------------------------------------------------------

  /// Run to the horizon (or until drained) and return the report.
  ExecutionReport run(core::SimTime horizon = core::kInfTime);

 private:
  ExecutionSpec spec_;
  net::Topology topo_;
  std::vector<SiteSpec> specs_;
  std::vector<net::NodeId> nodes_;        // per site
  std::vector<unsigned> owner_;           // per site: LP index
  std::vector<std::unique_ptr<Site>> sites_;
  std::unique_ptr<net::Routing> routing_;
  const net::Zone* zone_ = nullptr;
  std::unique_ptr<net::ZoneRouting> zone_routing_;
  net::RouteProvider* provider_ = nullptr;
  std::unique_ptr<core::ParallelEngine> pe_;
  std::vector<std::unique_ptr<net::FlowNetwork>> flow_nets_;  // one per LP
  double lookahead_ = 0;
  std::vector<std::pair<SiteId, SiteId>> channels_;  // declared (from, to)
  std::string fallback_reason_;
  // Per ordered (from, to) pair: when the channel frees up, and bytes ever
  // sent. Indexed by `from`; mutated only from `from`'s LP.
  std::vector<std::map<SiteId, double>> chan_busy_;
  std::vector<std::map<SiteId, double>> chan_bytes_;
};

}  // namespace lsds::hosts
