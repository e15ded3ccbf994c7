// Topology partitioning for parallel execution.
//
// A conservative parallel simulation is only as good as its lookahead, and
// the lookahead of a partitioned network model is the minimum communication
// latency between any two sites placed in *different* partitions: an event
// at one site cannot affect another site sooner than the propagation delay
// of the path between them. Partitioning therefore decides performance
// twice — balance (equal work per LP) and lookahead (keep low-latency pairs
// together, so the channels that cross LPs are slow ones and each LP's
// horizon runs far ahead; see core/parallel.hpp).
//
// Two schemes:
//   * kRoundRobin — site i goes to partition i % parts. The baseline: fair
//     by count, oblivious to the topology, and it happily cuts LAN-latency
//     edges (small or zero lookahead).
//   * kTopology ("metis-ish") — single-linkage clustering under a size cap:
//     site pairs merge in ascending path latency while the merged cluster
//     holds at most ceil(sites / parts) sites, then clusters are packed
//     largest first onto the least-loaded part. A latency cluster that fits
//     the cap (a site farm, a campus, a MONARC regional centre with its
//     T2s) is never split, and a zero-latency pair is never cut while the
//     cap allows, so the cut — and hence the lookahead — runs along the
//     expensive WAN links. On the 64-site tier (1 T0, 9 T1 x 6 T2) on 4
//     parts each T1 shares a part with its T2s and the cut crosses only
//     T0--T1 links (0.05 s).
#pragma once

#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"

namespace lsds::net {

enum class PartitionScheme { kRoundRobin, kTopology };

const char* to_string(PartitionScheme s);

struct Partition {
  /// owner[i] = partition of the i-th site (index into the `sites` argument,
  /// not NodeId). All values < parts.
  std::vector<unsigned> owner;
  /// Parts actually used: kTopology returns fewer than requested when the
  /// capped clusters are fewer.
  unsigned parts = 1;
  /// Minimum path latency between sites in different partitions — the
  /// topology-derived lookahead. +inf when parts == 1 or nothing is cut;
  /// <= 0 means the cut crosses a zero-latency path and conservative
  /// parallel execution is impossible (callers fall back to serial).
  double lookahead = 0;
  /// kTopology only: path latency from site i to site j at [i * n + j],
  /// the matrix the clusters and the lookahead were read off (n = sites).
  /// Empty for the other schemes.
  std::vector<double> latency;
};

/// Partition `sites` (topology nodes hosting model state) into `parts`
/// blocks. `routing` supplies path latencies; it is also used to derive the
/// resulting lookahead. parts is clamped to [1, sites.size()].
Partition partition_sites(RouteProvider& routing, const std::vector<NodeId>& sites, unsigned parts,
                          PartitionScheme scheme);

/// The lookahead of an externally supplied assignment (e.g. a hand-written
/// placement): min cross-partition path latency, +inf when nothing is cut.
double derive_lookahead(RouteProvider& routing, const std::vector<NodeId>& sites,
                        const std::vector<unsigned>& owner);

class ZoneTree;

/// Zone-structure partitioner for a ZoneTree platform: children map to
/// partitions whole (a child zone is a latency cluster by construction, so
/// the cut always runs along backbone links), and the lookahead comes from
/// the star shape in O(sites) route evaluations instead of an O(sites^2)
/// latency matrix — every cross-child path goes through the root, so the
/// min cross-partition latency is the smallest pair sum of per-site
/// root latencies over two different partitions.
Partition partition_zone_tree(const ZoneTree& tree, RouteProvider& routing,
                              const std::vector<NodeId>& sites, unsigned parts);

}  // namespace lsds::net
