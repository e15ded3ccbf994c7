#include "net/topology.hpp"

#include <cassert>
#include <deque>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace lsds::net {

NodeId Topology::add_node(std::string name, NodeKind kind) {
  nodes_.push_back({std::move(name), kind});
  adjacency_.emplace_back();
  ++epoch_;
  return static_cast<NodeId>(nodes_.size() - 1);
}

LinkId Topology::add_link(NodeId a, NodeId b, double bandwidth, double latency,
                          std::string name) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  assert(bandwidth > 0 && latency >= 0);
  if (name.empty()) name = nodes_[a].name + "--" + nodes_[b].name;
  links_.push_back({a, b, bandwidth, latency, std::move(name)});
  const auto id = static_cast<LinkId>(links_.size() - 1);
  adjacency_[a].push_back(id);
  adjacency_[b].push_back(id);
  ++epoch_;
  return id;
}

NodeId Topology::other_end(LinkId l, NodeId n) const {
  const LinkInfo& li = links_[l];
  return li.a == n ? li.b : li.a;
}

NodeId Topology::find_node(const std::string& name) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].name == name) return static_cast<NodeId>(i);
  }
  return kInvalidNode;
}

bool Topology::connected() const {
  if (nodes_.empty()) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::deque<NodeId> frontier{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const NodeId n = frontier.front();
    frontier.pop_front();
    for (LinkId l : adjacency_[n]) {
      const NodeId m = other_end(l, n);
      if (!seen[m]) {
        seen[m] = true;
        ++visited;
        frontier.push_back(m);
      }
    }
  }
  return visited == nodes_.size();
}

Topology Topology::star(std::size_t n_leaves, double bw, double lat) {
  Topology t;
  const NodeId hub = t.add_node("hub", NodeKind::kRouter);
  for (std::size_t i = 0; i < n_leaves; ++i) {
    const NodeId leaf = t.add_node(util::strformat("host%zu", i));
    t.add_link(hub, leaf, bw, lat);
  }
  return t;
}

Topology Topology::dumbbell(std::size_t n_left, std::size_t n_right, double access_bw,
                            double access_lat, double bottleneck_bw, double bottleneck_lat) {
  Topology t;
  const NodeId l = t.add_node("L", NodeKind::kRouter);
  const NodeId r = t.add_node("R", NodeKind::kRouter);
  t.add_link(l, r, bottleneck_bw, bottleneck_lat, "bottleneck");
  for (std::size_t i = 0; i < n_left; ++i) {
    const NodeId h = t.add_node(util::strformat("left%zu", i));
    t.add_link(h, l, access_bw, access_lat);
  }
  for (std::size_t i = 0; i < n_right; ++i) {
    const NodeId h = t.add_node(util::strformat("right%zu", i));
    t.add_link(h, r, access_bw, access_lat);
  }
  return t;
}

Topology Topology::ring(std::size_t n, double bw, double lat) {
  assert(n >= 3);
  Topology t;
  for (std::size_t i = 0; i < n; ++i) t.add_node(util::strformat("node%zu", i));
  for (std::size_t i = 0; i < n; ++i) {
    t.add_link(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n), bw, lat);
  }
  return t;
}

Topology Topology::full_mesh(std::size_t n, double bw, double lat) {
  Topology t;
  for (std::size_t i = 0; i < n; ++i) t.add_node(util::strformat("node%zu", i));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      t.add_link(static_cast<NodeId>(i), static_cast<NodeId>(j), bw, lat);
    }
  }
  return t;
}

std::string Topology::to_text() const {
  std::string out = "# lsds topology\n";
  for (const NodeInfo& n : nodes_) {
    out += "node " + n.name;
    if (n.kind == NodeKind::kRouter) out += " router";
    out += "\n";
  }
  for (const LinkInfo& l : links_) {
    out += util::strformat("link %s %s %.9gbps %.9gs %s\n", nodes_[l.a].name.c_str(),
                           nodes_[l.b].name.c_str(), l.bandwidth * 8.0, l.latency,
                           l.name.c_str());
  }
  return out;
}

Topology Topology::from_text(std::string_view text) {
  Topology t;
  std::istringstream in{std::string(text)};
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const auto fields = util::split_ws(line);
    auto fail = [&](const char* why) {
      throw std::runtime_error(util::strformat("topology: line %zu: %s", lineno, why));
    };
    if (fields[0] == "node") {
      if (fields.size() < 2) fail("node needs a name");
      if (t.find_node(fields[1]) != kInvalidNode) fail("duplicate node name");
      const NodeKind kind =
          (fields.size() >= 3 && fields[2] == "router") ? NodeKind::kRouter : NodeKind::kHost;
      t.add_node(fields[1], kind);
    } else if (fields[0] == "link") {
      if (fields.size() < 5) fail("link needs: <a> <b> <bandwidth> <latency>");
      const NodeId a = t.find_node(fields[1]);
      const NodeId b = t.find_node(fields[2]);
      if (a == kInvalidNode || b == kInvalidNode) fail("link references unknown node");
      double bw = 0, lat = 0;
      if (!util::parse_rate(fields[3], bw)) {
        fail("bad bandwidth (need a positive rate with a unit, e.g. 1Gbps)");
      }
      if (!util::parse_duration(fields[4], lat)) fail("bad latency (need >= 0, e.g. 15ms)");
      t.add_link(a, b, bw, lat, fields.size() >= 6 ? fields[5] : "");
    } else {
      fail("expected 'node' or 'link'");
    }
  }
  return t;
}

Topology Topology::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("topology: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return from_text(ss.str());
}

bool Topology::save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << to_text();
  return static_cast<bool>(f);
}

Topology Topology::random_connected(std::size_t n, std::size_t extra_links, double bw, double lat,
                                    core::RngStream& rng) {
  assert(n >= 2);
  Topology t;
  for (std::size_t i = 0; i < n; ++i) t.add_node(util::strformat("node%zu", i));
  // Random spanning tree: attach node i to a uniformly random earlier node.
  for (std::size_t i = 1; i < n; ++i) {
    const auto parent = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    t.add_link(static_cast<NodeId>(i), parent, bw, lat);
  }
  // Random chords, avoiding self-loops (duplicates allowed: parallel paths).
  for (std::size_t k = 0; k < extra_links; ++k) {
    const auto a = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto b = static_cast<NodeId>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (b >= a) ++b;
    t.add_link(a, b, bw, lat);
  }
  return t;
}

}  // namespace lsds::net
