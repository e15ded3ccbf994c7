// Hierarchical routing zones: million-host platforms without a flat graph.
//
// The paper's scalability complaint is that grid/P2P simulators top out
// orders of magnitude below real platform sizes. The flat
// Topology + Routing pair is one reason why: per-source Dijkstra caches are
// O(N^2) memory and O(N * E log N) time. A Zone stores no per-pair state at
// all — hosts and links live in a compact struct-of-arrays/closed-form
// store, and route(src, dst) is computed *algorithmically* from coordinates
// (SimGrid's hierarchical-zone trick, the one its longevity paper credits
// for reaching millions of hosts).
//
// Zone kinds:
//   * StarZone     — n hosts around one hub; route = host link(s).
//   * ClusterZone  — n hosts on an access switch with a backbone uplink to
//                    the zone gateway (a site farm / cabinet).
//   * FatTreeZone  — an extended generalized fat tree XGFT(h; m1..mh;
//                    w1..wh): level-0 hosts, h switch levels, every level-
//                    (l-1) node wired to w_l parents. Routes are derived
//                    purely from the mixed-radix digits of the endpoint
//                    indices.
//   * ZoneTree     — recursive composition: child zones joined by backbone
//                    links to a root router; cross-child routes are
//                    child-segment + backbone + child-segment.
//
// Canonical numbering (the differential contract): every zone numbers its
// hosts first, switches after, and composition places the backbone router
// last. Zone::to_topology() materializes the equivalent flat graph with
// *identical* node and link ids, and the canonical route policy is chosen
// so that ZoneRouting's answers are byte-identical — same Route.links, same
// total_latency and path_latency bit patterns — to net::Routing's Dijkstra
// over that graph. tests/zone_routing_test.cpp locks this in for every zone
// kind.
//
// For the fat tree the canonical up-path policy (UpPolicy::kLowestIndex,
// all parent digits 0) mirrors Dijkstra's deterministic tie-break (first
// relaxation wins; the pop order is (dist, NodeId) ascending and the id
// layout makes "parent digit 0" the smallest id among equal-cost parents).
// UpPolicy::kDmodK spreads up-links by destination digits instead
// (D-mod-k style): same latency and bottleneck, different equal-cost link
// choice — useful for contention studies, verified by the weaker
// latency/validity differential.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"

namespace lsds::net {

/// The part of a route a caller usually needs, accumulated link by link.
struct RouteCost {
  double latency = 0;  // summed in the order the links are crossed
  double bandwidth = std::numeric_limits<double>::infinity();  // minimum over the links

  void cross(double link_latency, double link_bandwidth) {
    latency += link_latency;
    if (link_bandwidth < bandwidth) bandwidth = link_bandwidth;
  }
};

/// A routing zone: a platform fragment whose routes are computed from node
/// coordinates instead of stored per pair. Node ids are zone-local and
/// dense in [0, node_count()); link ids dense in [0, link_count()).
/// Addressable route endpoints are hosts and the gateway (tree-shaped zones
/// accept any node).
class Zone {
 public:
  virtual ~Zone() = default;

  virtual std::size_t node_count() const = 0;
  virtual std::size_t link_count() const = 0;
  /// Number of hosts (compute endpoints) in the zone.
  virtual std::size_t host_count() const = 0;
  /// Node id of the i-th host, i in [0, host_count()).
  virtual NodeId host(std::size_t i) const = 0;
  virtual bool is_host(NodeId n) const = 0;
  /// The node through which traffic enters/leaves when this zone is
  /// composed into a ZoneTree.
  virtual NodeId gateway() const = 0;

  virtual double link_bandwidth(LinkId id) const = 0;
  virtual double link_latency(LinkId id) const = 0;
  /// Endpoints of a link, in canonical (lower-level, upper-level) order.
  virtual std::pair<NodeId, NodeId> link_ends(LinkId id) const = 0;

  /// Append the link ids of the canonical route src -> dst (in path order)
  /// to `out`. src == dst appends nothing.
  virtual void append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const = 0;

  /// Cross every link of the canonical route src -> dst into `cost`, one
  /// link at a time in *reverse* path order (dst end first) — the order
  /// Routing's Dijkstra reconstruction sums in, so the latency comes out
  /// bit-identical to route(src, dst).total_latency. Computed from the
  /// coordinates like append_route, but no link id is materialized.
  virtual void add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const = 0;

  /// Materialize the equivalent flat graph with identical node/link
  /// numbering — the reference the differential suite Dijkstras over.
  /// O(nodes + links) memory; intended for small zones and tests.
  Topology to_topology() const;
};

// --- star ------------------------------------------------------------------

struct StarSpec {
  std::size_t hosts = 0;
  double bandwidth = 1e9;  // per host link, bytes/s
  double latency = 1e-4;   // per host link, seconds
};

/// n hosts (ids [0, n)) around a hub router (id n, the gateway); link i
/// connects host i to the hub.
class StarZone final : public Zone {
 public:
  /// Throws std::invalid_argument on hosts == 0, bandwidth <= 0, or a
  /// negative or non-finite latency.
  explicit StarZone(const StarSpec& spec);

  std::size_t node_count() const override { return spec_.hosts + 1; }
  std::size_t link_count() const override { return spec_.hosts; }
  std::size_t host_count() const override { return spec_.hosts; }
  NodeId host(std::size_t i) const override { return static_cast<NodeId>(i); }
  bool is_host(NodeId n) const override { return n < spec_.hosts; }
  NodeId gateway() const override { return static_cast<NodeId>(spec_.hosts); }

  double link_bandwidth(LinkId) const override { return spec_.bandwidth; }
  double link_latency(LinkId) const override { return spec_.latency; }
  std::pair<NodeId, NodeId> link_ends(LinkId id) const override;
  void append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const override;
  void add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const override;

 private:
  StarSpec spec_;
};

// --- cluster ---------------------------------------------------------------

struct ClusterSpec {
  std::size_t hosts = 0;
  double host_bandwidth = 1e9;      // host <-> access switch
  double host_latency = 1e-4;
  double backbone_bandwidth = 10e9; // access switch <-> gateway
  double backbone_latency = 1e-3;
};

/// n hosts (ids [0, n)) on an access switch (id n) with one backbone uplink
/// to the gateway (id n + 1). Link i < n connects host i to the switch;
/// link n is the backbone.
class ClusterZone final : public Zone {
 public:
  /// Throws std::invalid_argument on hosts == 0, non-positive bandwidth,
  /// or a negative or non-finite latency.
  explicit ClusterZone(const ClusterSpec& spec);

  std::size_t node_count() const override { return spec_.hosts + 2; }
  std::size_t link_count() const override { return spec_.hosts + 1; }
  std::size_t host_count() const override { return spec_.hosts; }
  NodeId host(std::size_t i) const override { return static_cast<NodeId>(i); }
  bool is_host(NodeId n) const override { return n < spec_.hosts; }
  NodeId gateway() const override { return static_cast<NodeId>(spec_.hosts + 1); }

  double link_bandwidth(LinkId id) const override {
    return id < spec_.hosts ? spec_.host_bandwidth : spec_.backbone_bandwidth;
  }
  double link_latency(LinkId id) const override {
    return id < spec_.hosts ? spec_.host_latency : spec_.backbone_latency;
  }
  std::pair<NodeId, NodeId> link_ends(LinkId id) const override;
  void append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const override;
  void add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const override;

 private:
  ClusterSpec spec_;
};

// --- fat tree --------------------------------------------------------------

/// XGFT(h; m1..mh; w1..wh): children[l-1] = m_l is the down-fanout at level
/// l, parents[l-1] = w_l the number of parallel parents every level-(l-1)
/// node has at level l. Hosts = m1 * ... * mh. bandwidth/latency[l-1]
/// describe the level-l links (between levels l-1 and l).
struct FatTreeSpec {
  std::vector<std::uint32_t> children;
  std::vector<std::uint32_t> parents;
  std::vector<double> bandwidth;
  std::vector<double> latency;

  enum class UpPolicy {
    /// Always take parent digit 0 — the canonical policy, byte-identical to
    /// flat Dijkstra (its (dist, id)-ordered tie-break lands on the same
    /// links by construction of the id layout).
    kLowestIndex,
    /// Spread up-links by the destination's index digits (D-mod-k style):
    /// same latency/bottleneck, load spread across equal-cost parents.
    kDmodK,
  };
  UpPolicy up = UpPolicy::kLowestIndex;
};

/// Nodes: hosts first ([0, P)), then switch levels 1..h bottom-up. A
/// level-l node's id encodes its coordinates: within the level the index is
/// x * W_l + y where x numbers the subtree position (digits x_{l+1}..x_h)
/// and y the parent choices made on the way up (digits y_l..y_1, y_l most
/// significant — this digit order is what makes kLowestIndex match
/// Dijkstra's smallest-id tie-break). The gateway is the all-zero top
/// switch. Level-l links are numbered child-major: child_index * w_l +
/// parent_digit, levels concatenated.
class FatTreeZone final : public Zone {
 public:
  /// Throws std::invalid_argument on empty/mismatched level vectors,
  /// zero fan-outs, non-positive bandwidth, or non-positive or non-finite
  /// latency (equal-cost tie-breaks are only well-defined with real link
  /// costs).
  explicit FatTreeZone(const FatTreeSpec& spec);

  std::size_t node_count() const override { return total_nodes_; }
  std::size_t link_count() const override { return total_links_; }
  std::size_t host_count() const override { return hosts_; }
  NodeId host(std::size_t i) const override { return static_cast<NodeId>(i); }
  bool is_host(NodeId n) const override { return n < hosts_; }
  NodeId gateway() const override {
    // First (all-zero) switch of the top level; node_off_.back() is the
    // one-past-the-end sentinel.
    return static_cast<NodeId>(node_off_[node_off_.size() - 2]);
  }

  double link_bandwidth(LinkId id) const override;
  double link_latency(LinkId id) const override;
  std::pair<NodeId, NodeId> link_ends(LinkId id) const override;
  void append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const override;
  void add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const override;

  std::size_t levels() const { return spec_.children.size(); }
  const FatTreeSpec& spec() const { return spec_; }

 private:
  std::size_t level_of_link(LinkId id) const;
  /// Levels the route src -> dst climbs (src != dst).
  std::size_t levels_up(NodeId src, NodeId dst) const;
  /// Local index of the level-l parent of level-(l-1) local `c` reached via
  /// parent digit `y_l`.
  std::size_t parent_local(std::size_t l, std::size_t c, std::size_t y_l) const;

  FatTreeSpec spec_;
  std::size_t hosts_ = 0;
  std::size_t total_nodes_ = 0;
  std::size_t total_links_ = 0;
  // Per level l in [0, h]: W_[l] = w1*..*wl, M_[l] = m1*..*ml,
  // node_off_[l] = first node id of level l (node_off_[h+1] = total).
  std::vector<std::size_t> W_, M_, node_off_;
  // Per level l in [1, h]: first link id of the level-l link block.
  std::vector<std::size_t> link_off_;
};

// --- recursive composition -------------------------------------------------

/// Child zones joined over a backbone: every child's gateway gets one
/// backbone link to a root router. Child c's nodes occupy
/// [child_offset(c), child_offset(c) + child.node_count()); the root router
/// is the last node (and this zone's gateway, so ZoneTrees nest). Child
/// link blocks come first (in child order), then one backbone link per
/// child. Cross-child routes are src-child segment to its gateway, two
/// backbone hops, then gateway-to-dst segment — the composition the
/// invariance tests assert. A per-node and a per-link child index (4 bytes
/// each, filled by add_child) make child_of and the link lookups O(1).
class ZoneTree final : public Zone {
 public:
  ZoneTree() = default;

  /// Attach a child reached over a backbone link with the given bandwidth/
  /// latency. Returns the child index. Add all children before routing.
  /// Throws std::invalid_argument on bandwidth <= 0 or a negative or
  /// non-finite latency.
  std::size_t add_child(std::unique_ptr<Zone> child, double backbone_bandwidth,
                        double backbone_latency);

  std::size_t child_count() const { return children_.size(); }
  const Zone& child(std::size_t c) const { return *children_[c]; }
  NodeId child_offset(std::size_t c) const { return static_cast<NodeId>(node_off_[c]); }
  /// Child index owning node `n`; child_count() for the root router.
  std::size_t child_of(NodeId n) const;
  double backbone_latency(std::size_t c) const { return bb_latency_[c]; }
  double backbone_bandwidth(std::size_t c) const { return bb_bandwidth_[c]; }

  std::size_t node_count() const override { return total_nodes_ + 1; }
  std::size_t link_count() const override { return total_links_ + children_.size(); }
  std::size_t host_count() const override { return total_hosts_; }
  NodeId host(std::size_t i) const override;
  bool is_host(NodeId n) const override;
  NodeId gateway() const override { return static_cast<NodeId>(total_nodes_); }

  double link_bandwidth(LinkId id) const override;
  double link_latency(LinkId id) const override;
  std::pair<NodeId, NodeId> link_ends(LinkId id) const override;
  void append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const override;
  void add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const override;

 private:
  std::vector<std::unique_ptr<Zone>> children_;
  std::vector<double> bb_bandwidth_, bb_latency_;
  std::vector<std::size_t> node_off_, link_off_, host_off_;  // per child
  std::vector<std::uint32_t> node_child_, link_child_;  // owning child per node / link
  std::size_t total_nodes_ = 0, total_links_ = 0, total_hosts_ = 0;
};

// --- provider --------------------------------------------------------------

/// RouteProvider over a Zone: keeps no cache and no per-pair state, so
/// unlike Routing it is safe to query concurrently from LP threads. route()
/// fills per-thread scratch; total_latency accumulates in reverse path order
/// to mirror Routing's Dijkstra reconstruction bit for bit.
/// path_latency() and bottleneck_bandwidth() build no route: they take the
/// zone's add_route_cost() walk, which crosses the same links in the same
/// reverse order (closed forms for star, cluster, fat tree and tree), so
/// path_latency has route().total_latency's exact bits. Callers that need
/// one number (Chord and Gnutella message latency) use them.
class ZoneRouting final : public RouteProvider {
 public:
  explicit ZoneRouting(const Zone& zone) : zone_(zone) {}

  const Route& route(NodeId src, NodeId dst) override;
  double path_latency(NodeId src, NodeId dst) override;
  double bottleneck_bandwidth(NodeId src, NodeId dst) override;

  std::size_t node_count() const override { return zone_.node_count(); }
  std::size_t link_count() const override { return zone_.link_count(); }
  double link_bandwidth(LinkId id) const override { return zone_.link_bandwidth(id); }
  double link_latency(LinkId id) const override { return zone_.link_latency(id); }

  const Zone& zone() const { return zone_; }

 private:
  const Zone& zone_;
};

}  // namespace lsds::net
