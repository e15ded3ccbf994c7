#include "net/zone.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lsds::net {

namespace {
// An infinite latency would not make a link unreachable: every path over it
// would cost inf, and routing would fall back to other models or print NaN.
bool finite_nonnegative(double latency) { return latency >= 0 && std::isfinite(latency); }
}  // namespace

// --- Zone ------------------------------------------------------------------

Topology Zone::to_topology() const {
  Topology topo;
  const std::size_t n = node_count();
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<NodeId>(i);
    topo.add_node((is_host(id) ? "h" : "n") + std::to_string(i),
                  is_host(id) ? NodeKind::kHost : NodeKind::kRouter);
  }
  const std::size_t m = link_count();
  for (std::size_t i = 0; i < m; ++i) {
    const auto id = static_cast<LinkId>(i);
    const auto [a, b] = link_ends(id);
    topo.add_link(a, b, link_bandwidth(id), link_latency(id));
  }
  return topo;
}

// --- StarZone --------------------------------------------------------------

StarZone::StarZone(const StarSpec& spec) : spec_(spec) {
  if (spec.hosts == 0) throw std::invalid_argument("StarZone: hosts must be > 0");
  if (!(spec.bandwidth > 0)) throw std::invalid_argument("StarZone: bandwidth must be > 0");
  if (!finite_nonnegative(spec.latency)) {
    throw std::invalid_argument("StarZone: latency must be finite and >= 0");
  }
}

std::pair<NodeId, NodeId> StarZone::link_ends(LinkId id) const {
  assert(id < link_count());
  return {static_cast<NodeId>(id), gateway()};
}

void StarZone::append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const {
  assert(src < node_count() && dst < node_count());
  if (src == dst) return;
  if (src != gateway()) out.push_back(static_cast<LinkId>(src));
  if (dst != gateway()) out.push_back(static_cast<LinkId>(dst));
}

void StarZone::add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const {
  assert(src < node_count() && dst < node_count());
  if (src == dst) return;
  if (dst != gateway()) cost.cross(spec_.latency, spec_.bandwidth);
  if (src != gateway()) cost.cross(spec_.latency, spec_.bandwidth);
}

// --- ClusterZone -----------------------------------------------------------

ClusterZone::ClusterZone(const ClusterSpec& spec) : spec_(spec) {
  if (spec.hosts == 0) throw std::invalid_argument("ClusterZone: hosts must be > 0");
  if (!(spec.host_bandwidth > 0) || !(spec.backbone_bandwidth > 0)) {
    throw std::invalid_argument("ClusterZone: bandwidth must be > 0");
  }
  if (!finite_nonnegative(spec.host_latency) || !finite_nonnegative(spec.backbone_latency)) {
    throw std::invalid_argument("ClusterZone: latency must be finite and >= 0");
  }
}

std::pair<NodeId, NodeId> ClusterZone::link_ends(LinkId id) const {
  assert(id < link_count());
  const auto sw = static_cast<NodeId>(spec_.hosts);
  if (id < spec_.hosts) return {static_cast<NodeId>(id), sw};
  return {sw, gateway()};
}

void ClusterZone::append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const {
  assert(src < node_count() && dst < node_count());
  if (src == dst) return;
  // Path graph host -- switch -- gateway, centered on the switch: climb
  // from src, descend to dst.
  const auto backbone = static_cast<LinkId>(spec_.hosts);
  if (is_host(src)) out.push_back(static_cast<LinkId>(src));
  if (src == gateway()) out.push_back(backbone);
  if (dst == gateway()) out.push_back(backbone);
  if (is_host(dst)) out.push_back(static_cast<LinkId>(dst));
}

void ClusterZone::add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const {
  assert(src < node_count() && dst < node_count());
  if (src == dst) return;
  // append_route's four cases, last first.
  if (is_host(dst)) cost.cross(spec_.host_latency, spec_.host_bandwidth);
  if (dst == gateway()) cost.cross(spec_.backbone_latency, spec_.backbone_bandwidth);
  if (src == gateway()) cost.cross(spec_.backbone_latency, spec_.backbone_bandwidth);
  if (is_host(src)) cost.cross(spec_.host_latency, spec_.host_bandwidth);
}

// --- FatTreeZone -----------------------------------------------------------

FatTreeZone::FatTreeZone(const FatTreeSpec& spec) : spec_(spec) {
  const std::size_t h = spec.children.size();
  if (h == 0) throw std::invalid_argument("FatTreeZone: at least one level required");
  if (spec.parents.size() != h || spec.bandwidth.size() != h || spec.latency.size() != h) {
    throw std::invalid_argument("FatTreeZone: children/parents/bandwidth/latency sizes differ");
  }
  for (std::size_t l = 0; l < h; ++l) {
    if (spec.children[l] == 0 || spec.parents[l] == 0) {
      throw std::invalid_argument("FatTreeZone: fan-outs must be > 0");
    }
    if (!(spec.bandwidth[l] > 0)) throw std::invalid_argument("FatTreeZone: bandwidth must be > 0");
    // Strictly positive: with zero-cost links every path ties and "the"
    // shortest route is no longer well-defined against a flat reference.
    if (!(spec.latency[l] > 0) || !std::isfinite(spec.latency[l])) {
      throw std::invalid_argument("FatTreeZone: latency must be finite and > 0");
    }
  }

  W_.assign(h + 1, 1);
  M_.assign(h + 1, 1);
  for (std::size_t l = 1; l <= h; ++l) {
    W_[l] = W_[l - 1] * spec.parents[l - 1];
    M_[l] = M_[l - 1] * spec.children[l - 1];
    if (M_[l] > (std::size_t{1} << 30) || W_[l] > (std::size_t{1} << 30)) {
      throw std::invalid_argument("FatTreeZone: platform too large (> 2^30 per dimension)");
    }
  }
  hosts_ = M_[h];

  node_off_.assign(h + 2, 0);
  link_off_.assign(h + 1, 0);
  std::size_t nodes = 0, links = 0;
  for (std::size_t l = 0; l <= h; ++l) {
    node_off_[l] = nodes;
    const std::size_t level_nodes = (hosts_ / M_[l]) * W_[l];
    if (l >= 1) {
      link_off_[l] = links;
      links += (hosts_ / M_[l - 1]) * W_[l - 1] * spec.parents[l - 1];
    }
    nodes += level_nodes;
  }
  node_off_[h + 1] = nodes;
  total_nodes_ = nodes;
  total_links_ = links;
  if (total_nodes_ > static_cast<std::size_t>(kInvalidNode) - 2) {
    throw std::invalid_argument("FatTreeZone: node count overflows NodeId");
  }
}

std::size_t FatTreeZone::level_of_link(LinkId id) const {
  assert(id < total_links_);
  std::size_t l = spec_.children.size();
  while (l > 1 && link_off_[l] > id) --l;
  return l;
}

std::size_t FatTreeZone::parent_local(std::size_t l, std::size_t c, std::size_t y_l) const {
  const std::size_t x = c / W_[l - 1];
  const std::size_t y = c % W_[l - 1];
  return (x / spec_.children[l - 1]) * W_[l] + (y_l * W_[l - 1] + y);
}

double FatTreeZone::link_bandwidth(LinkId id) const {
  return spec_.bandwidth[level_of_link(id) - 1];
}

double FatTreeZone::link_latency(LinkId id) const {
  return spec_.latency[level_of_link(id) - 1];
}

std::pair<NodeId, NodeId> FatTreeZone::link_ends(LinkId id) const {
  const std::size_t l = level_of_link(id);
  const std::size_t rem = id - link_off_[l];
  const std::size_t w = spec_.parents[l - 1];
  const std::size_t c = rem / w;
  const std::size_t y_l = rem % w;
  return {static_cast<NodeId>(node_off_[l - 1] + c),
          static_cast<NodeId>(node_off_[l] + parent_local(l, c, y_l))};
}

std::size_t FatTreeZone::levels_up(NodeId src, NodeId dst) const {
  const NodeId gw = gateway();
  assert(src != dst && (is_host(src) || src == gw) && (is_host(dst) || dst == gw) &&
         "FatTreeZone routes between hosts and the gateway");
  // The lowest level whose subtree contains both endpoints (all h levels
  // when one endpoint is the gateway).
  if (src == gw || dst == gw) return spec_.children.size();
  std::size_t l = 1;
  while (src / M_[l] != dst / M_[l]) ++l;
  return l;
}

void FatTreeZone::append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const {
  if (src == dst) return;
  const NodeId gw = gateway();
  const std::size_t levels_up = this->levels_up(src, dst);

  // Parent digit per climbed level. Routes that start or end at the
  // gateway are pinned to the all-zero switches; otherwise the policy
  // picks among the w_l equal-cost parents.
  auto y_digit = [&](std::size_t l) -> std::size_t {
    if (src == gw || dst == gw) return 0;
    if (spec_.up == FatTreeSpec::UpPolicy::kLowestIndex) return 0;
    return (dst / W_[l - 1]) % spec_.parents[l - 1];  // kDmodK
  };

  // Up phase: src's local index at level 0 is src itself (the gateway's
  // local index at the top level is 0).
  std::size_t cur = src == gw ? 0 : src;
  if (src != gw) {
    for (std::size_t l = 1; l <= levels_up; ++l) {
      const std::size_t y_l = y_digit(l);
      out.push_back(static_cast<LinkId>(link_off_[l] + cur * spec_.parents[l - 1] + y_l));
      cur = parent_local(l, cur, y_l);
    }
  }
  if (dst == gw) {
    assert(node_off_[levels_up] + cur == gw);
    return;
  }

  // Down phase: peel the stored parent digits back off, steering by dst's
  // subtree digits.
  for (std::size_t l = levels_up; l >= 1; --l) {
    const std::size_t px = cur / W_[l];
    const std::size_t py = cur % W_[l];
    const std::size_t y_l = py / W_[l - 1];
    const std::size_t cy = py % W_[l - 1];
    const std::size_t x_l = (dst / M_[l - 1]) % spec_.children[l - 1];
    const std::size_t child = (px * spec_.children[l - 1] + x_l) * W_[l - 1] + cy;
    out.push_back(static_cast<LinkId>(link_off_[l] + child * spec_.parents[l - 1] + y_l));
    cur = child;
  }
  assert(cur == dst);
}

void FatTreeZone::add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const {
  if (src == dst) return;
  // A link's latency and bandwidth depend on its level alone, so the up
  // policy does not matter: the route climbs levels 1..L and descends
  // L..1, and the reverse walk crosses the descent first.
  const NodeId gw = gateway();
  const std::size_t top = levels_up(src, dst);
  if (dst != gw) {
    for (std::size_t l = 1; l <= top; ++l) cost.cross(spec_.latency[l - 1], spec_.bandwidth[l - 1]);
  }
  if (src != gw) {
    for (std::size_t l = top; l >= 1; --l) cost.cross(spec_.latency[l - 1], spec_.bandwidth[l - 1]);
  }
}

// --- ZoneTree --------------------------------------------------------------

std::size_t ZoneTree::add_child(std::unique_ptr<Zone> child, double backbone_bandwidth,
                                double backbone_latency) {
  if (!(backbone_bandwidth > 0)) throw std::invalid_argument("ZoneTree: bandwidth must be > 0");
  if (!finite_nonnegative(backbone_latency)) {
    throw std::invalid_argument("ZoneTree: latency must be finite and >= 0");
  }
  const auto c = static_cast<std::uint32_t>(children_.size());
  node_off_.push_back(total_nodes_);
  link_off_.push_back(total_links_);
  host_off_.push_back(total_hosts_);
  node_child_.insert(node_child_.end(), child->node_count(), c);
  link_child_.insert(link_child_.end(), child->link_count(), c);
  total_nodes_ += child->node_count();
  total_links_ += child->link_count();
  total_hosts_ += child->host_count();
  bb_bandwidth_.push_back(backbone_bandwidth);
  bb_latency_.push_back(backbone_latency);
  children_.push_back(std::move(child));
  return children_.size() - 1;
}

std::size_t ZoneTree::child_of(NodeId n) const {
  assert(n < node_count());
  if (n >= total_nodes_) return children_.size();  // root router
  return node_child_[n];
}

NodeId ZoneTree::host(std::size_t i) const {
  assert(i < total_hosts_);
  const auto it = std::upper_bound(host_off_.begin(), host_off_.end(), i);
  const std::size_t c = static_cast<std::size_t>(it - host_off_.begin()) - 1;
  return static_cast<NodeId>(node_off_[c] + children_[c]->host(i - host_off_[c]));
}

bool ZoneTree::is_host(NodeId n) const {
  const std::size_t c = child_of(n);
  if (c == children_.size()) return false;
  return children_[c]->is_host(n - static_cast<NodeId>(node_off_[c]));
}

double ZoneTree::link_bandwidth(LinkId id) const {
  if (id >= total_links_) return bb_bandwidth_[id - total_links_];
  const std::size_t c = link_child_[id];
  return children_[c]->link_bandwidth(id - static_cast<LinkId>(link_off_[c]));
}

double ZoneTree::link_latency(LinkId id) const {
  if (id >= total_links_) return bb_latency_[id - total_links_];
  const std::size_t c = link_child_[id];
  return children_[c]->link_latency(id - static_cast<LinkId>(link_off_[c]));
}

std::pair<NodeId, NodeId> ZoneTree::link_ends(LinkId id) const {
  assert(id < link_count());
  if (id >= total_links_) {
    const std::size_t c = id - total_links_;
    return {static_cast<NodeId>(node_off_[c] + children_[c]->gateway()), gateway()};
  }
  const std::size_t c = link_child_[id];
  const auto [a, b] = children_[c]->link_ends(id - static_cast<LinkId>(link_off_[c]));
  return {static_cast<NodeId>(node_off_[c] + a), static_cast<NodeId>(node_off_[c] + b)};
}

void ZoneTree::append_route(NodeId src, NodeId dst, std::vector<LinkId>& out) const {
  assert(src < node_count() && dst < node_count());
  if (src == dst) return;
  const std::size_t cs = child_of(src);
  const std::size_t cd = child_of(dst);

  // Offsets child link ids appended by a nested call into this zone's space.
  auto climb = [&](std::size_t c, NodeId from, NodeId to) {
    const std::size_t before = out.size();
    children_[c]->append_route(from, to, out);
    for (std::size_t i = before; i < out.size(); ++i) {
      out[i] = static_cast<LinkId>(out[i] + link_off_[c]);
    }
  };
  const auto bb_link = [&](std::size_t c) { return static_cast<LinkId>(total_links_ + c); };

  if (cs == cd) {  // both inside one child (neither is the root)
    climb(cs, src - static_cast<NodeId>(node_off_[cs]), dst - static_cast<NodeId>(node_off_[cs]));
    return;
  }
  if (cs != children_.size()) {  // src side: up to its gateway, onto the backbone
    climb(cs, src - static_cast<NodeId>(node_off_[cs]), children_[cs]->gateway());
    out.push_back(bb_link(cs));
  }
  if (cd != children_.size()) {  // dst side: off the backbone, down from its gateway
    out.push_back(bb_link(cd));
    climb(cd, children_[cd]->gateway(), dst - static_cast<NodeId>(node_off_[cd]));
  }
}

void ZoneTree::add_route_cost(NodeId src, NodeId dst, RouteCost& cost) const {
  assert(src < node_count() && dst < node_count());
  if (src == dst) return;
  const std::size_t cs = child_of(src);
  const std::size_t cd = child_of(dst);
  const auto local = [&](std::size_t c, NodeId n) { return n - static_cast<NodeId>(node_off_[c]); };
  if (cs == cd) {
    children_[cs]->add_route_cost(local(cs, src), local(cs, dst), cost);
    return;
  }
  // append_route's segments in reverse: the dst child's segment, the two
  // backbone links, then the src child's segment.
  if (cd != children_.size()) {
    children_[cd]->add_route_cost(children_[cd]->gateway(), local(cd, dst), cost);
    cost.cross(bb_latency_[cd], bb_bandwidth_[cd]);
  }
  if (cs != children_.size()) {
    cost.cross(bb_latency_[cs], bb_bandwidth_[cs]);
    children_[cs]->add_route_cost(local(cs, src), children_[cs]->gateway(), cost);
  }
}

// --- ZoneRouting -----------------------------------------------------------

const Route& ZoneRouting::route(NodeId src, NodeId dst) {
  assert(src < zone_.node_count() && dst < zone_.node_count());
  // Per-thread scratch: ZoneRouting keeps no per-pair state, so concurrent
  // LP threads each fill their own Route (unlike Routing's shared cache).
  static thread_local Route scratch;
  scratch.links.clear();
  scratch.total_latency = 0;
  scratch.valid = true;
  zone_.append_route(src, dst, scratch.links);
  // Reverse path order: Routing's Dijkstra reconstructs dst -> src, so its
  // total_latency sums in that order — match it bit for bit.
  for (auto it = scratch.links.rbegin(); it != scratch.links.rend(); ++it) {
    scratch.total_latency += zone_.link_latency(*it);
  }
  return scratch;
}

double ZoneRouting::path_latency(NodeId src, NodeId dst) {
  assert(src < zone_.node_count() && dst < zone_.node_count());
  RouteCost cost;
  zone_.add_route_cost(src, dst, cost);
  return cost.latency;
}

double ZoneRouting::bottleneck_bandwidth(NodeId src, NodeId dst) {
  assert(src < zone_.node_count() && dst < zone_.node_count());
  if (src == dst) return 0;  // the only empty route: every zone is connected
  RouteCost cost;
  zone_.add_route_cost(src, dst, cost);
  return cost.bandwidth;
}

}  // namespace lsds::net
