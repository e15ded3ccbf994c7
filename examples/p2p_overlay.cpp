// P2P overlay example: structured (Chord DHT) vs unstructured (Gnutella
// flooding) search across network sizes.
//
//   ./p2p_overlay --peers=256 --lookups=200 [--plot=overlay]
//
// Reproduces the classic structured-overlay result: Chord resolves lookups
// in O(log n) hops with one message per hop, while flooding needs O(n)
// messages to reach rare objects. --plot=<basename> writes gnuplot-ready
// <basename>.dat/.gp files.
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/engine.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "p2p/chord.hpp"
#include "p2p/gnutella.hpp"
#include "stats/gnuplot.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace lsds;

namespace {

struct Row {
  std::size_t peers;
  double chord_hops;
  double chord_latency;
  double flood_messages;
  double flood_success;
};

Row run_size(std::size_t n_peers, int n_lookups, std::uint64_t seed) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = seed});
  core::RngStream topo_rng(seed * 31 + 1);
  auto topo = net::Topology::random_connected(n_peers, n_peers / 2, 1e8, 0.01, topo_rng);
  net::Routing routing(topo);

  // Chord: every node hosts a peer.
  p2p::ChordNetwork chord(eng, routing);
  for (std::size_t i = 0; i < n_peers; ++i) chord.add_peer(static_cast<net::NodeId>(i));
  chord.build();

  // Gnutella: same nodes, random overlay of degree 4, one object placed at
  // a random peer per lookup.
  p2p::GnutellaNetwork flood(eng, routing);
  for (std::size_t i = 0; i < n_peers; ++i) flood.add_peer(static_cast<net::NodeId>(i));
  auto& rng = eng.rng("p2p.example");
  flood.build_random_overlay(4, rng);

  stats::Accumulator hops, latency, messages;
  int found = 0;
  for (int q = 0; q < n_lookups; ++q) {
    const auto origin = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_peers) - 1));
    const auto target = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n_peers) - 1));
    const std::string obj = "object-" + std::to_string(q);
    flood.place_object(target, obj);
    chord.lookup(origin, chord.hash_key(obj), [&](const p2p::ChordNetwork::LookupResult& r) {
      if (r.ok) {
        hops.add(static_cast<double>(r.hops));
        latency.add(r.latency);
      }
    });
    flood.search(origin, obj, /*ttl=*/6, [&](const p2p::GnutellaNetwork::SearchResult& r) {
      messages.add(static_cast<double>(r.messages));
      if (r.found) ++found;
    });
  }
  eng.run();
  return Row{n_peers, hops.mean(), latency.mean(), messages.mean(),
             static_cast<double>(found) / n_lookups};
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int lookups = static_cast<int>(flags.get_int("lookups", 200));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 3));

  std::vector<std::size_t> sizes{32, 64, 128, 256, 512};
  if (flags.has("peers")) sizes = {static_cast<std::size_t>(flags.get_int("peers", 256))};
  const std::string plot = flags.get_string("plot", "");
  flags.reject_unread();

  stats::AsciiTable t({"peers", "chord hops (log2 n)", "chord latency [s]", "flood msgs (ttl 6)",
                       "flood success"});
  std::vector<Row> rows;
  for (std::size_t n : sizes) {
    const Row r = run_size(n, lookups, seed);
    rows.push_back(r);
    t.row()
        .cell(std::uint64_t{r.peers})
        .cell(util::strformat("%.2f (%.1f)", r.chord_hops, std::log2(double(r.peers))))
        .cell(r.chord_latency)
        .cell(r.flood_messages)
        .cell(r.flood_success);
  }
  std::printf("%s", t.render().c_str());
  std::printf("shape: chord hops track ~log2(n)/2; flooding messages scale with the\n"
              "covered frontier and its success degrades once ttl stops covering n.\n");

  if (!plot.empty() && rows.size() > 1) {
    stats::PlotWriter pw(plot, "Chord vs flooding search cost");
    pw.set_axis_labels("peers", "cost");
    pw.set_logscale(true, true);
    stats::PlotWriter::Series chord_s{"chord hops", {}, {}}, flood_s{"flood messages", {}, {}};
    for (const auto& r : rows) {
      chord_s.x.push_back(static_cast<double>(r.peers));
      chord_s.y.push_back(r.chord_hops);
      flood_s.x.push_back(static_cast<double>(r.peers));
      flood_s.y.push_back(r.flood_messages);
    }
    pw.add_series(chord_s);
    pw.add_series(flood_s);
    if (pw.write()) std::printf("wrote %s.dat / %s.gp\n", plot.c_str(), plot.c_str());
  }
  return 0;
}
