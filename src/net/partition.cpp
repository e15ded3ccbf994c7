#include "net/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

#include "net/zone.hpp"

namespace lsds::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// All-pairs site latency matrix, row-major (n Dijkstras over the cached
/// Routing).
std::vector<double> latency_matrix(RouteProvider& routing, const std::vector<NodeId>& sites) {
  const std::size_t n = sites.size();
  std::vector<double> lat(n * n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) lat[i * n + j] = routing.path_latency(sites[i], sites[j]);
    }
  }
  return lat;
}

/// Union-find over sites, with the size of each cluster at its root and the
/// number of clusters of each size up to the cap. A merge keeps the lower
/// root, so each root is its cluster's lowest site.
struct Clusters {
  std::vector<std::uint32_t> parent;
  std::vector<std::uint32_t> size;
  std::vector<std::size_t> of_size;  // [s]: clusters of s sites, s <= cap

  Clusters(std::size_t n, std::size_t cap) : parent(n), size(n, 1), of_size(cap + 1, 0) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = static_cast<std::uint32_t>(i);
    of_size[1] = n;
  }
  std::uint32_t find(std::uint32_t i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  }
  void merge(std::uint32_t ra, std::uint32_t rb) {
    const std::uint32_t lo = std::min(ra, rb), hi = std::max(ra, rb);
    --of_size[size[lo]];
    --of_size[size[hi]];
    parent[hi] = lo;
    size[lo] += size[hi];
    ++of_size[size[lo]];
  }
  /// Whether the two smallest clusters still fit the cap together.
  bool can_merge() const {
    const std::size_t cap = of_size.size() - 1;
    std::size_t smallest = 0;
    for (std::size_t s = 1; s <= cap; ++s) {
      if (of_size[s] == 0) continue;
      if (smallest == 0 && of_size[s] == 1) {
        smallest = s;
        continue;
      }
      return (smallest == 0 ? 2 * s : smallest + s) <= cap;
    }
    return false;
  }
};

}  // namespace

const char* to_string(PartitionScheme s) {
  switch (s) {
    case PartitionScheme::kRoundRobin: return "round-robin";
    case PartitionScheme::kTopology: return "metis-ish";
  }
  return "?";
}

double derive_lookahead(RouteProvider& routing, const std::vector<NodeId>& sites,
                        const std::vector<unsigned>& owner) {
  assert(owner.size() == sites.size());
  double la = kInf;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i + 1; j < sites.size(); ++j) {
      if (owner[i] == owner[j]) continue;
      la = std::min(la, routing.path_latency(sites[i], sites[j]));
    }
  }
  return la;
}

Partition partition_sites(RouteProvider& routing, const std::vector<NodeId>& sites, unsigned parts,
                          PartitionScheme scheme) {
  const std::size_t n = sites.size();
  Partition p;
  p.parts = std::max(1u, std::min<unsigned>(parts, static_cast<unsigned>(std::max<std::size_t>(n, 1))));
  p.owner.assign(n, 0);
  if (p.parts == 1 || n <= 1) {
    p.lookahead = kInf;
    return p;
  }

  if (scheme == PartitionScheme::kRoundRobin) {
    for (std::size_t i = 0; i < n; ++i) {
      p.owner[i] = static_cast<unsigned>(i % p.parts);
    }
    p.lookahead = derive_lookahead(routing, sites, p.owner);
    return p;
  }

  // kTopology. Single-linkage clustering under a size cap: site pairs are
  // merged in ascending latency (ties in index order) while the merged
  // cluster holds at most ceil(n / parts) sites. A cluster that fits is
  // never split, so the cut runs along the slowest links the balance allows.
  p.latency = latency_matrix(routing, sites);
  const auto& lat = p.latency;
  struct Pair {
    double latency;
    std::uint32_t a, b;
  };
  std::vector<Pair> pairs;
  pairs.reserve(n * (n - 1) / 2);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      pairs.push_back({std::min(lat[a * n + b], lat[b * n + a]), static_cast<std::uint32_t>(a),
                       static_cast<std::uint32_t>(b)});
    }
  }
  // Generated in (a, b) order, which a stable sort keeps among equal
  // latencies: a platform has few distinct ones, so ties are the rule.
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const Pair& x, const Pair& y) { return x.latency < y.latency; });
  const std::size_t cap = (n + p.parts - 1) / p.parts;
  Clusters c(n, cap);
  // Once no two clusters fit together, the slower pairs change nothing.
  bool open = c.can_merge();
  for (std::size_t k = 0; open && k < pairs.size(); ++k) {
    const std::uint32_t ra = c.find(pairs[k].a), rb = c.find(pairs[k].b);
    if (ra == rb || c.size[ra] + c.size[rb] > cap) continue;
    c.merge(ra, rb);
    open = c.can_merge();
  }

  // Pack clusters largest first (ties: lowest site) onto the least-loaded
  // part (ties: lowest part). Fewer clusters than parts leave the trailing
  // parts empty; they are dropped.
  std::vector<std::uint32_t> roots;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (c.find(i) == i) roots.push_back(i);
  }
  std::stable_sort(roots.begin(), roots.end(),
                   [&](std::uint32_t x, std::uint32_t y) { return c.size[x] > c.size[y]; });
  p.parts = static_cast<unsigned>(std::min<std::size_t>(p.parts, roots.size()));
  std::vector<std::size_t> load(p.parts, 0);
  std::vector<unsigned> part_of(n, 0);  // by root
  for (std::uint32_t r : roots) {
    const auto least =
        static_cast<unsigned>(std::min_element(load.begin(), load.end()) - load.begin());
    part_of[r] = least;
    load[least] += c.size[r];
  }
  for (std::uint32_t i = 0; i < n; ++i) p.owner[i] = part_of[c.find(i)];

  // The lookahead, off the matrix: the fastest path across the cut.
  p.lookahead = kInf;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (p.owner[i] != p.owner[j]) p.lookahead = std::min(p.lookahead, lat[i * n + j]);
    }
  }
  return p;
}

Partition partition_zone_tree(const ZoneTree& tree, RouteProvider& routing,
                              const std::vector<NodeId>& sites, unsigned parts) {
  const std::size_t n = sites.size();
  const std::size_t kids = tree.child_count();
  Partition p;
  p.parts = static_cast<unsigned>(
      std::max<std::size_t>(1, std::min<std::size_t>({parts, n > 0 ? n : 1, kids > 0 ? kids : 1})));
  p.owner.assign(n, 0);
  if (p.parts == 1 || n <= 1) {
    p.lookahead = kInf;
    return p;
  }

  // Children stay whole: contiguous child ranges map onto partitions. Sites
  // on the root router (rare) join partition 0.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = tree.child_of(sites[i]);
    p.owner[i] = c >= kids ? 0 : static_cast<unsigned>(c * p.parts / kids);
  }

  // Lookahead from the star structure: the latency between sites in
  // different children is root_lat(s) + root_lat(t) exactly, so the min cut
  // latency is the smallest such pair sum across two partitions — found
  // from each partition's min root latency, no all-pairs sweep.
  std::vector<double> part_min(p.parts, kInf);
  const NodeId root = tree.gateway();
  for (std::size_t i = 0; i < n; ++i) {
    part_min[p.owner[i]] = std::min(part_min[p.owner[i]], routing.path_latency(sites[i], root));
  }
  double lo1 = kInf, lo2 = kInf;  // two smallest partition minima
  for (double v : part_min) {
    if (v < lo1) {
      lo2 = lo1;
      lo1 = v;
    } else {
      lo2 = std::min(lo2, v);
    }
  }
  double la = lo1 + lo2;
  // Shave a hair off to stay conservative against floating-point
  // reassociation: the closed form sums the same latencies as the actual
  // route but in a different order.
  if (std::isfinite(la)) la *= 1.0 - 1e-9;
  p.lookahead = la;
  return p;
}

}  // namespace lsds::net
