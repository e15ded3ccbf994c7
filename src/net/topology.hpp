// Network topology: nodes (hosts, routers) and links.
//
// The taxonomy's network axis covers "routers, switches and other devices"
// plus the granularity of simulation. The topology is shared by both
// granularities (flow-level net/flow.hpp, packet-level net/packet.hpp).
//
// Links are undirected with a single shared capacity (a full-duplex pair can
// be modeled as two links). Builders construct the standard experiment
// shapes: star, dumbbell, tier tree (MONARC's hierarchy), ring, full mesh
// and connected random graphs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/rng.hpp"

namespace lsds::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr LinkId kInvalidLink = static_cast<LinkId>(-1);

enum class NodeKind { kHost, kRouter };

struct NodeInfo {
  std::string name;
  NodeKind kind = NodeKind::kHost;
};

struct LinkInfo {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double bandwidth = 0;  // bytes/second, shared by all traffic on the link
  double latency = 0;    // propagation delay, seconds
  std::string name;
};

class Topology {
 public:
  NodeId add_node(std::string name, NodeKind kind = NodeKind::kHost);
  LinkId add_link(NodeId a, NodeId b, double bandwidth, double latency, std::string name = "");

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  /// Mutation counter: bumped by every add_node/add_link. Consumers that
  /// cache derived data (net::Routing's per-source path caches) capture the
  /// epoch at first query and assert it never moves afterwards — mutating a
  /// topology under a live Routing would silently dangle cached routes.
  std::uint64_t epoch() const { return epoch_; }
  const NodeInfo& node(NodeId id) const { return nodes_[id]; }
  const LinkInfo& link(LinkId id) const { return links_[id]; }

  /// Links incident to `n`.
  const std::vector<LinkId>& links_of(NodeId n) const { return adjacency_[n]; }
  /// The endpoint of `l` that is not `n`.
  NodeId other_end(LinkId l, NodeId n) const;
  /// Node lookup by name; kInvalidNode if absent.
  NodeId find_node(const std::string& name) const;

  /// True when every node can reach every other node.
  bool connected() const;

  // --- builders -----------------------------------------------------------

  /// `n_leaves` hosts around one central router.
  static Topology star(std::size_t n_leaves, double bw, double lat);

  /// Classic congestion-study shape: left hosts - L - R - right hosts with a
  /// shared bottleneck link L-R.
  static Topology dumbbell(std::size_t n_left, std::size_t n_right, double access_bw,
                           double access_lat, double bottleneck_bw, double bottleneck_lat);

  static Topology ring(std::size_t n, double bw, double lat);
  static Topology full_mesh(std::size_t n, double bw, double lat);

  /// Connected random graph: a random spanning tree plus `extra_links`
  /// random chords. Deterministic for a given stream.
  static Topology random_connected(std::size_t n, std::size_t extra_links, double bw, double lat,
                                   core::RngStream& rng);

  // --- text serialization --------------------------------------------------
  //
  // Line format ('#' comments allowed):
  //   node <name> [router]
  //   link <a> <b> <bandwidth> <latency> [link-name]
  // Bandwidth and latency accept units ("1Gbps", "15ms"); see util/units.

  std::string to_text() const;
  /// Throws std::runtime_error on malformed input or unknown node names.
  static Topology from_text(std::string_view text);
  static Topology load(const std::string& path);
  bool save(const std::string& path) const;

 private:
  std::vector<NodeInfo> nodes_;
  std::vector<LinkInfo> links_;
  std::vector<std::vector<LinkId>> adjacency_;
  std::uint64_t epoch_ = 0;
};

}  // namespace lsds::net
