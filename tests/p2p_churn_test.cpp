// Million-peer-scale P2P machinery at unit-test scale: the RingIndex
// ordered-ring structure against a std::map reference, slot reuse and
// generation counters under churn, lookup failure when peers die with
// lookups in flight, the lifetime churn drivers, the bounded Gnutella
// query table, and cross-queue-kind determinism (trace + state digest) of
// the whole protocol+churn+traffic stack.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/hash.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/zone.hpp"
#include "p2p/chord.hpp"
#include "p2p/churn.hpp"
#include "p2p/gnutella.hpp"
#include "p2p/ring_index.hpp"
#include "event_probe.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace p2p = lsds::p2p;

namespace {

struct P2pWorld {
  core::Engine eng;
  net::Topology topo;
  std::unique_ptr<net::Routing> routing;

  explicit P2pWorld(std::size_t n, core::QueueKind q = core::QueueKind::kBinaryHeap) : eng({.queue = q, .seed = 5}) {
    core::RngStream rng(17);
    topo = net::Topology::random_connected(n, n / 2, 1e8, 0.005, rng);
    routing = std::make_unique<net::Routing>(topo);
  }
};

}  // namespace

// --- RingIndex ------------------------------------------------------------

TEST(RingIndex, MatchesMapReferenceUnderChurn) {
  const std::uint32_t m = 16;  // small id space: plenty of wrap cases
  const std::uint64_t mask = (1ull << m) - 1;
  p2p::RingIndex ring(m);
  std::map<std::uint64_t, std::uint32_t> ref;
  core::RngStream rng(123);

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = rng.next_u64() & mask;
    if (rng.uniform() < 0.6) {
      if (!ref.count(id)) {
        const auto slot = static_cast<std::uint32_t>(step);
        ring.insert(id, slot);
        ref[id] = slot;
      }
      EXPECT_TRUE(ring.contains(id));
    } else {
      EXPECT_EQ(ring.erase(id), ref.erase(id) > 0);
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (ref.empty()) continue;

    // successor(key) == lower_bound with wrap, on a random probe.
    const std::uint64_t key = rng.next_u64() & mask;
    auto it = ref.lower_bound(key);
    if (it == ref.end()) it = ref.begin();
    const auto got = ring.successor(key);
    EXPECT_EQ(got.id, it->first);
    EXPECT_EQ(got.slot, it->second);
  }

  // Iteration order must equal std::map's (ascending id) — protocol-mode
  // rng draw order rides on this.
  std::vector<std::uint64_t> order;
  ring.for_each([&](std::uint64_t id, std::uint32_t) { order.push_back(id); });
  std::vector<std::uint64_t> expect;
  for (const auto& [id, slot] : ref) expect.push_back(id);
  EXPECT_EQ(order, expect);
}

// --- slot reuse & generations ----------------------------------------------

TEST(ChordChurnState, SlotsAreRecycledAndIdsStayUnique) {
  P2pWorld w(64);
  p2p::ChordNetwork chord(w.eng, *w.routing);
  std::vector<p2p::PeerIndex> peers;
  for (std::size_t i = 0; i < 64; ++i) peers.push_back(chord.add_peer(static_cast<net::NodeId>(i)));

  // Kill every odd peer, then add the same number back: the table must not
  // grow — all newcomers land in recycled slots with fresh generations.
  std::vector<std::uint32_t> old_gen;
  for (std::size_t i = 1; i < 64; i += 2) {
    old_gen.push_back(chord.generation(peers[i]));
    chord.remove_peer(peers[i]);
  }
  EXPECT_EQ(chord.size(), 32u);
  const std::size_t slots_before = chord.slot_count();
  for (std::size_t i = 0; i < 32; ++i) chord.add_peer(static_cast<net::NodeId>(i));
  EXPECT_EQ(chord.slot_count(), slots_before);  // pure reuse, no growth
  EXPECT_EQ(chord.size(), 64u);

  // Ids unique across the live ring; generations bumped on the dead slots.
  std::set<p2p::ChordId> ids;
  chord.for_each_live([&](p2p::PeerIndex p) { ids.insert(chord.id_of(p)); });
  EXPECT_EQ(ids.size(), 64u);

  chord.build();
  bool done = false;
  chord.lookup(0, chord.hash_key("after-reuse"), [&](const auto& r) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.home, chord.responsible_peer(chord.hash_key("after-reuse")));
    done = true;
  });
  w.eng.run();
  EXPECT_TRUE(done);
}

TEST(ChordChurnState, RemoveDeadPeerThrows) {
  P2pWorld w(4);
  p2p::ChordNetwork chord(w.eng, *w.routing);
  const auto p0 = chord.add_peer(0);
  chord.add_peer(1);
  chord.remove_peer(p0);
  EXPECT_THROW(chord.remove_peer(p0), std::invalid_argument);
  EXPECT_THROW(chord.fail_peer(p0), std::invalid_argument);
  EXPECT_THROW(chord.remove_peer(999), std::invalid_argument);
}

TEST(ChordChurnState, JoinViaBadBootstrapThrowsBeforeMutating) {
  P2pWorld w(4);
  p2p::ChordNetwork chord(w.eng, *w.routing);
  const auto p0 = chord.add_peer(0);
  chord.add_peer(1);
  chord.build();
  EXPECT_THROW(chord.join_via(2, 999), std::invalid_argument);
  EXPECT_EQ(chord.size(), 2u);
  // A dead bootstrap's slot is the next add_peer's: the join must not get
  // as far as recycling it for the newcomer.
  chord.remove_peer(p0);
  const std::size_t slots = chord.slot_count();
  const std::uint64_t digest = chord.state_digest();
  EXPECT_THROW(chord.join_via(2, p0), std::invalid_argument);
  EXPECT_FALSE(chord.is_live(p0));
  EXPECT_EQ(chord.size(), 1u);
  EXPECT_EQ(chord.slot_count(), slots);
  EXPECT_EQ(chord.state_digest(), digest);
  EXPECT_EQ(chord.lookups_in_flight(), 0u);
}

TEST(ChordChurnState, LookupFromOutOfRangeOriginThrows) {
  P2pWorld w(4);
  p2p::ChordNetwork chord(w.eng, *w.routing);
  chord.add_peer(0);
  chord.add_peer(1);
  chord.build();
  EXPECT_THROW(chord.lookup(2, 42, [](const auto&) {}), std::invalid_argument);
  EXPECT_THROW(chord.lookup_tagged(999, 42, 7), std::invalid_argument);
  EXPECT_EQ(chord.lookups_in_flight(), 0u);
  EXPECT_EQ(chord.lookup_pool_size(), 0u);
}

// Finger tables right after build(), pinned to the values the per-finger
// successor-query build produced. The m = 6 ring is dense (40 of 64 ids),
// so most fingers of the high ids wrap past 2^m.
TEST(ChordBuild, DigestsMatchGoldenValues) {
  const auto build_digest = [](std::uint32_t m, std::size_t peers) {
    P2pWorld w(8);
    p2p::ChordNetwork chord(w.eng, *w.routing, m);
    for (std::size_t i = 0; i < peers; ++i) chord.add_peer(static_cast<net::NodeId>(i % 8));
    chord.build();
    return chord.state_digest();
  };
  EXPECT_EQ(build_digest(6, 40), 0x91ffabfbe8956656ull);
  EXPECT_EQ(build_digest(32, 1000), 0xc512d1fd19cd958eull);
  EXPECT_EQ(build_digest(4, 16), 0xedc6533a75c20955ull);  // every id taken
  EXPECT_EQ(build_digest(3, 1), 0x67c28c2fb24be05dull);   // a lone peer
}

TEST(ChordChurnState, ConstructorRejectsBadWidth) {
  P2pWorld w(2);
  EXPECT_THROW(p2p::ChordNetwork(w.eng, *w.routing, 0), std::invalid_argument);
  EXPECT_THROW(p2p::ChordNetwork(w.eng, *w.routing, 64), std::invalid_argument);
}

// --- satellite: protocol-mode argument validation ---------------------------

TEST(ChordProtocolValidation, RejectsBadStabilizePeriodAndHorizon) {
  P2pWorld w(8);
  p2p::ChordNetwork chord(w.eng, *w.routing);
  for (std::size_t i = 0; i < 8; ++i) chord.add_peer(static_cast<net::NodeId>(i));
  chord.build();
  EXPECT_THROW(chord.enable_protocol_mode(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(chord.enable_protocol_mode(-1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(chord.enable_protocol_mode(std::nan(""), 10.0), std::invalid_argument);
  EXPECT_THROW(chord.enable_protocol_mode(std::numeric_limits<double>::infinity(), 10.0),
               std::invalid_argument);
  EXPECT_THROW(chord.enable_protocol_mode(1.0, std::nan("")), std::invalid_argument);
  EXPECT_THROW(chord.enable_protocol_mode(1.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // Valid arguments still work afterwards.
  chord.enable_protocol_mode(1.0, 5.0);
  // A second call would start a second maintenance chain on every peer.
  EXPECT_THROW(chord.enable_protocol_mode(1.0, 5.0), std::logic_error);
  w.eng.run();
  EXPECT_GT(chord.stabilize_rounds(), 0u);

  // The rounds are those of one call.
  P2pWorld w1(8);
  p2p::ChordNetwork once(w1.eng, *w1.routing);
  for (std::size_t i = 0; i < 8; ++i) once.add_peer(static_cast<net::NodeId>(i));
  once.build();
  once.enable_protocol_mode(1.0, 5.0);
  w1.eng.run();
  EXPECT_EQ(chord.stabilize_rounds(), once.stabilize_rounds());
  EXPECT_EQ(chord.state_digest(), once.state_digest());
}

TEST(ChordProtocolValidation, RejectsHorizonBeforeNow) {
  P2pWorld w(8);
  p2p::ChordNetwork chord(w.eng, *w.routing);
  for (std::size_t i = 0; i < 8; ++i) chord.add_peer(static_cast<net::NodeId>(i));
  chord.build();
  w.eng.schedule_at(2.0, [] {});
  w.eng.run();
  try {
    chord.enable_protocol_mode(1.0, 1.5);
    ADD_FAILURE() << "a horizon before now did not throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("horizon 1.5 s"), std::string::npos) << e.what();
  }
  chord.enable_protocol_mode(1.0, 2.0);  // now itself is not in the past
  w.eng.run();
  EXPECT_EQ(chord.stabilize_rounds(), 0u);
}

TEST(ChurnSpecValidation, RejectsBadParameters) {
  p2p::ChurnSpec s;
  s.horizon = 10;
  s.validate();  // baseline OK
  p2p::ChurnSpec bad = s;
  bad.mean_lifetime = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = s;
  bad.mean_downtime = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = s;
  bad.lifetime_model = p2p::ChurnSpec::Lifetime::kWeibull;
  bad.weibull_shape = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = s;
  bad.horizon = std::numeric_limits<double>::infinity();
  EXPECT_THROW(bad.validate(), std::invalid_argument);

  p2p::TrafficSpec t;
  t.horizon = 10;
  t.validate();
  t.rate = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
}

TEST(ChurnSpecValidation, WeibullScaleMatchesMean) {
  p2p::ChurnSpec s;
  s.lifetime_model = p2p::ChurnSpec::Lifetime::kWeibull;
  s.mean_lifetime = 120;
  s.weibull_shape = 1.5;
  // scale * Gamma(1 + 1/shape) == mean.
  EXPECT_NEAR(s.weibull_scale() * std::tgamma(1.0 + 1.0 / 1.5), 120.0, 1e-9);
}

// --- satellite: churn during in-flight lookups ------------------------------

// A peer on the forwarding path dies while lookups are in flight: the
// documented behavior is no crash and ok=false for affected lookups — and
// the outcome must be identical under every queue kind.
TEST(ChordInFlightChurn, LookupsFailCleanlyAndDeterministically) {
  std::vector<std::uint64_t> outcomes;
  for (core::QueueKind q : core::kAllQueueKinds) {
    P2pWorld w(64, q);
    p2p::ChordNetwork chord(w.eng, *w.routing);
    std::vector<p2p::PeerIndex> peers;
    for (std::size_t i = 0; i < 64; ++i)
      peers.push_back(chord.add_peer(static_cast<net::NodeId>(i)));
    chord.build();

    // Issue lookups from a spread of surviving origins, then kill a swath
    // of the ring at a time when all of them are still being forwarded
    // (every route latency exceeds 0.004).
    int ok = 0, fail = 0, total = 0;
    auto& rng = w.eng.rng("keys");
    for (int i = 0; i < 200; ++i) {
      const p2p::ChordId key = rng.next_u64() & chord.id_mask();
      ++total;
      chord.lookup(static_cast<std::size_t>(i) % 8, key,
                   [&](const p2p::ChordNetwork::LookupResult& r) { r.ok ? ++ok : ++fail; });
    }
    w.eng.schedule_at(0.004, [&] {
      for (std::size_t i = 8; i < 24; ++i) chord.fail_peer(peers[i]);
    });
    w.eng.run();

    EXPECT_EQ(ok + fail, total);  // every lookup resolved exactly once
    EXPECT_GT(fail, 0);           // the churn actually bit
    EXPECT_GT(ok, 0);             // and didn't take everything down
    EXPECT_EQ(chord.lookups_in_flight(), 0u);
    outcomes.push_back((static_cast<std::uint64_t>(ok) << 32) |
                       static_cast<std::uint64_t>(fail));
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) EXPECT_EQ(outcomes[i], outcomes[0]);
}

TEST(ChordInFlightChurn, LookupFromDeadPeerFailsImmediately) {
  P2pWorld w(8);
  p2p::ChordNetwork chord(w.eng, *w.routing);
  std::vector<p2p::PeerIndex> peers;
  for (std::size_t i = 0; i < 8; ++i) peers.push_back(chord.add_peer(static_cast<net::NodeId>(i)));
  chord.build();
  chord.remove_peer(peers[3]);
  bool done = false;
  chord.lookup(peers[3], 42, [&](const auto& r) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.hops, 0u);
    done = true;
  });
  EXPECT_TRUE(done);  // resolved synchronously
}

// --- cross-queue-kind determinism of the full churn stack -------------------

namespace {

struct ChurnRunResult {
  std::uint64_t trace_hash = 0;
  std::uint64_t digest = 0;
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;
  std::uint64_t deaths = 0;
  std::uint64_t rebirths = 0;
};

ChurnRunResult run_chord_churn_scenario(core::QueueKind q) {
  core::StateHash trace;
  lsds::testutil::EventProbe probe([&](double t, core::EventId id) {
    trace.mix(t);
    trace.mix(std::uint64_t{id});
  });
  core::Engine eng({.queue = q, .seed = 42});
  eng.set_probe(&probe);
  net::ZoneTree tree;
  for (int s = 0; s < 4; ++s) {
    net::ClusterSpec spec;
    spec.hosts = 64;
    spec.host_bandwidth = 1e8;
    spec.host_latency = 0.002;
    spec.backbone_bandwidth = 1e10;
    spec.backbone_latency = 0.01;
    tree.add_child(std::make_unique<net::ClusterZone>(spec), 1e10, 0.01);
  }
  net::ZoneRouting routing(tree);

  p2p::ChordNetwork chord(eng, routing, 32);
  for (std::size_t i = 0; i < 256; ++i) chord.add_peer(tree.host(i));
  chord.build();
  chord.enable_protocol_mode(2.0, 30.0);

  p2p::ChurnSpec cs;
  cs.lifetime_model = p2p::ChurnSpec::Lifetime::kWeibull;
  cs.mean_lifetime = 40;
  cs.weibull_shape = 1.5;
  cs.mean_downtime = 5;
  cs.horizon = 30.0;
  p2p::ChordChurn churn(eng, chord, cs);

  p2p::TrafficSpec ts;
  ts.rate = 50;
  ts.horizon = 30.0;
  p2p::ChordLookupTraffic traffic(eng, chord, ts);

  churn.start();
  traffic.start();
  eng.run();

  ChurnRunResult r;
  r.trace_hash = trace.value();
  r.digest = chord.state_digest();
  r.issued = traffic.issued();
  r.failed = traffic.failed();
  r.deaths = churn.deaths();
  r.rebirths = churn.rebirths();
  return r;
}

}  // namespace

TEST(ChurnDeterminism, ChordStackIdenticalAcrossAllQueueKinds) {
  const ChurnRunResult ref = run_chord_churn_scenario(core::QueueKind::kSortedList);
  EXPECT_GT(ref.issued, 0u);
  EXPECT_GT(ref.deaths, 0u);
  EXPECT_GT(ref.rebirths, 0u);
  // Golden values: a change that shifts every queue kind alike must still
  // show here.
  // The trace covers executed events, and hops chased inline run none: it
  // moved when hops began to be chased, and again when a peer whose death
  // is announced began to run a maintenance round as one event instead of
  // two. The model results did not move either time.
  EXPECT_EQ(ref.trace_hash, 0x72575fd963734efbull);
  EXPECT_EQ(ref.digest, 0x4ea1f4bfdbc0f69full);
  EXPECT_EQ(ref.issued, 1478u);
  EXPECT_EQ(ref.failed, 10u);
  EXPECT_EQ(ref.deaths, 121u);
  EXPECT_EQ(ref.rebirths, 80u);
  for (core::QueueKind q : core::kAllQueueKinds) {
    if (q == core::QueueKind::kSortedList) continue;
    const ChurnRunResult r = run_chord_churn_scenario(q);
    EXPECT_EQ(r.trace_hash, ref.trace_hash) << "queue kind " << static_cast<int>(q);
    EXPECT_EQ(r.digest, ref.digest) << "queue kind " << static_cast<int>(q);
    EXPECT_EQ(r.issued, ref.issued);
    EXPECT_EQ(r.failed, ref.failed);
    EXPECT_EQ(r.deaths, ref.deaths);
    EXPECT_EQ(r.rebirths, ref.rebirths);
  }
}

// --- satellite: bounded Gnutella query table --------------------------------

TEST(GnutellaQueryTable, StaysBoundedUnderSustainedTraffic) {
  P2pWorld w(64);
  p2p::GnutellaNetwork g(w.eng, *w.routing);
  for (std::size_t i = 0; i < 64; ++i) g.add_peer(static_cast<net::NodeId>(i));
  g.build_random_overlay(4, w.eng.rng("overlay"));
  g.place_object(40, "needle");

  // 500 searches staggered so a bounded number overlap: the slot pool must
  // top out near the overlap width, far below the cumulative count.
  const int kSearches = 500;
  int done = 0;
  for (int i = 0; i < kSearches; ++i) {
    w.eng.schedule_at(0.01 * i, [&, i] {
      g.search(static_cast<std::size_t>(i) % 64, "needle", 5, [&](const auto&) { ++done; });
    });
  }
  w.eng.run();

  EXPECT_EQ(done, kSearches);                      // every flood drained + reported
  EXPECT_EQ(g.searches_in_flight(), 0u);           // nothing leaked in flight
  EXPECT_LT(g.query_table_capacity(), 64u);        // bounded by peak overlap,
  EXPECT_GE(g.query_table_capacity(), 1u);         // not by cumulative traffic
}

TEST(GnutellaChurnState, RemoveUnlinksNeighborsAndRecyclesSlots) {
  P2pWorld w(32);
  p2p::GnutellaNetwork g(w.eng, *w.routing);
  for (std::size_t i = 0; i < 32; ++i) g.add_peer(static_cast<net::NodeId>(i));
  g.build_random_overlay(4, w.eng.rng("overlay"));

  const std::size_t victim = 7;
  g.remove_peer(victim);
  EXPECT_FALSE(g.is_live(victim));
  EXPECT_THROW(g.remove_peer(victim), std::invalid_argument);
  for (std::size_t i = 0; i < 32; ++i) {
    if (!g.is_live(i)) continue;
    // no live peer may still point at the corpse
    for (std::size_t k = 0; k < g.degree_of(i); ++k) EXPECT_NE(g.neighbor(i, k), victim);
  }
  const std::size_t slots = g.slot_count();
  const auto back = g.add_peer(static_cast<net::NodeId>(victim));  // rebirth on the vacated node
  EXPECT_EQ(back, victim);          // slot recycled
  EXPECT_EQ(g.slot_count(), slots); // no growth
  g.connect_random(back, 4, w.eng.rng("rewire"));
  EXPECT_GE(g.degree_of(back), 1u);

  // A search started after the rewire floods the whole overlay again.
  g.place_object(back, "obj");
  bool found = false;
  g.search(0, "obj", 10, [&](const auto& r) { found = r.found; });
  w.eng.run();
  EXPECT_TRUE(found);
}

TEST(GnutellaChurnState, FloodSurvivesMidFlightDeaths) {
  std::vector<std::uint64_t> outcomes;
  for (core::QueueKind q : core::kAllQueueKinds) {
    P2pWorld w(64, q);
    p2p::GnutellaNetwork g(w.eng, *w.routing);
    for (std::size_t i = 0; i < 64; ++i) g.add_peer(static_cast<net::NodeId>(i));
    g.build_random_overlay(4, w.eng.rng("overlay"));
    g.place_object(60, "needle");

    int done = 0, found = 0;
    g.search(0, "needle", 12, [&](const auto& r) {
      ++done;
      found += r.found ? 1 : 0;
    });
    w.eng.schedule_at(0.003, [&] {
      for (std::size_t i = 10; i < 30; ++i) {
        if (g.is_live(i)) g.remove_peer(i);
      }
    });
    w.eng.run();
    EXPECT_EQ(done, 1);  // the flood drained despite losing frontier
    EXPECT_EQ(g.searches_in_flight(), 0u);
    outcomes.push_back(static_cast<std::uint64_t>(found) ^ (g.state_digest() << 1));
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) EXPECT_EQ(outcomes[i], outcomes[0]);
}

// --- Gnutella churn driver --------------------------------------------------

TEST(GnutellaChurnDriver, DrivesDeathsAndRebirthsDeterministically) {
  auto run = [](core::QueueKind q) {
    core::Engine eng({.queue = q, .seed = 9});
    net::ZoneTree tree;
    net::ClusterSpec spec;
    spec.hosts = 128;
    spec.host_bandwidth = 1e8;
    spec.host_latency = 0.002;
    spec.backbone_bandwidth = 1e10;
    spec.backbone_latency = 0.01;
    tree.add_child(std::make_unique<net::ClusterZone>(spec), 1e10, 0.01);
    net::ZoneRouting routing(tree);

    p2p::GnutellaNetwork g(eng, routing);
    for (std::size_t i = 0; i < 128; ++i) g.add_peer(tree.host(i));
    g.build_random_overlay(4, eng.rng("overlay"));

    std::vector<std::uint64_t> catalog;
    for (int i = 0; i < 8; ++i) {
      const std::string name = "obj-" + std::to_string(i);
      g.place_object(static_cast<std::size_t>(i) * 16, name);
      catalog.push_back(p2p::GnutellaNetwork::hash_name(name));
    }

    p2p::ChurnSpec cs;
    cs.mean_lifetime = 20;
    cs.mean_downtime = 4;
    cs.horizon = 20.0;
    p2p::GnutellaChurn churn(eng, g, cs, 4);
    p2p::TrafficSpec ts;
    ts.rate = 20;
    ts.ttl = 6;
    ts.horizon = 20.0;
    p2p::GnutellaSearchTraffic traffic(eng, g, ts, catalog);

    churn.start();
    traffic.start();
    eng.run();

    EXPECT_GT(churn.deaths(), 0u);
    EXPECT_GT(traffic.issued(), 0u);
    EXPECT_EQ(g.searches_in_flight(), 0u);
    core::StateHash h;
    h.mix(g.state_digest());
    h.mix(churn.deaths());
    h.mix(churn.rebirths());
    h.mix(traffic.issued());
    h.mix(traffic.found());
    return h.value();
  };
  const std::uint64_t ref = run(core::QueueKind::kSortedList);
  // Golden value: a change that shifts every queue kind alike must still
  // show here.
  EXPECT_EQ(ref, 0x9f0140fe3a1a44c7ull);
  for (core::QueueKind q : core::kAllQueueKinds) {
    if (q == core::QueueKind::kSortedList) continue;
    EXPECT_EQ(run(q), ref) << "queue kind " << static_cast<int>(q);
  }
}

// --- hops chased inline: results pinned where every hop was an event --------

namespace {

struct DenseChurnResult {
  std::uint64_t digest = 0, issued = 0, failed = 0, messages = 0, chased = 0;
  double mean_hops = 0, mean_latency = 0;
};

// 128 peers on two sites with slow links, half-second stabilization and a
// 5 s mean lifetime: every peer dies and rejoins several times. Newcomers'
// join answers are often still in flight when their first fix-finger
// starts, and many hops accept a finger, often the successor itself, that
// dies while the hop flies.
DenseChurnResult run_dense_churn(std::uint64_t seed, double time_quantum) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = seed,
                    .time_quantum = time_quantum});
  net::ZoneTree tree;
  for (int s = 0; s < 2; ++s) {
    net::ClusterSpec spec;
    spec.hosts = 64;
    spec.host_bandwidth = 1e8;
    spec.host_latency = 0.03;
    spec.backbone_bandwidth = 1e10;
    spec.backbone_latency = 0.15;
    tree.add_child(std::make_unique<net::ClusterZone>(spec), 1e10, 0.15);
  }
  net::ZoneRouting routing(tree);
  p2p::ChordNetwork chord(eng, routing, 32);
  for (std::size_t i = 0; i < 128; ++i) chord.add_peer(tree.host(i));
  chord.build();
  chord.enable_protocol_mode(0.5, 40.0);

  p2p::ChurnSpec cs;
  cs.mean_lifetime = 5;
  cs.mean_downtime = 2;
  cs.horizon = 40.0;
  p2p::ChordChurn churn(eng, chord, cs);
  p2p::TrafficSpec ts;
  ts.rate = 100;
  ts.horizon = 40.0;
  p2p::ChordLookupTraffic traffic(eng, chord, ts);
  churn.start();
  traffic.start();
  eng.run();

  DenseChurnResult r;
  r.digest = chord.state_digest();
  r.issued = traffic.issued();
  r.failed = traffic.failed();
  r.messages = chord.messages_sent();
  r.chased = chord.hops_chased();
  r.mean_hops = traffic.hops().mean();
  r.mean_latency = traffic.latency().mean();
  return r;
}

}  // namespace

// Recorded at the commit before hops were chased, where every hop was an
// event. These runs break if a newcomer's pending join answer is not
// counted before its first fix-finger starts, if a peer with an answer
// pending is chased to, or if the finger a hop accepts may die in flight
// when it is the successor itself.
TEST(ChordChase, DenseChurnKeepsEventPerHopResults) {
  const DenseChurnResult a = run_dense_churn(14, 0);
  EXPECT_EQ(a.digest, 0x454a957d3452e056ull);
  EXPECT_EQ(a.issued, 4048u);
  EXPECT_EQ(a.failed, 1159u);
  EXPECT_EQ(a.messages, 28403u);
  EXPECT_EQ(a.mean_hops, 0x1.74204137ea065p+1);
  EXPECT_EQ(a.mean_latency, 0x1.277b6138b5469p+0);
  EXPECT_GT(a.chased, 0u);

  const DenseChurnResult b = run_dense_churn(15, 0);
  EXPECT_EQ(b.digest, 0x84464f2a4bf27fa3ull);
  EXPECT_EQ(b.issued, 3912u);
  EXPECT_EQ(b.failed, 956u);
  EXPECT_EQ(b.messages, 25147u);
  EXPECT_EQ(b.mean_hops, 0x1.ca0bc73026cc5p+0);
  EXPECT_EQ(b.mean_latency, 0x1.86b6a83f13371p-1);
  EXPECT_GT(b.chased, 0u);
}

// On a quantized clock events tie at every step and run in the order they
// were scheduled in; a chased hop would schedule its answer earlier and move
// it ahead of ties. So every hop stays an event, and the results are those
// recorded before hops were chased.
TEST(ChordChase, QuantizedClockKeepsEventPerHopResults) {
  const DenseChurnResult r = run_dense_churn(14, 1e-3);
  EXPECT_EQ(r.digest, 0x772bada2d0afee84ull);
  EXPECT_EQ(r.issued, 3852u);
  EXPECT_EQ(r.failed, 898u);
  EXPECT_EQ(r.messages, 27985u);
  EXPECT_EQ(r.mean_hops, 0x1.5ba52d9594315p+1);
  EXPECT_EQ(r.mean_latency, 0x1.0499a10de8afcp+0);
  EXPECT_EQ(r.chased, 0u);
}

namespace {

struct StaticRing {
  P2pWorld w{64};
  p2p::ChordNetwork chord{w.eng, *w.routing};
  StaticRing() {
    for (std::size_t i = 0; i < 64; ++i) chord.add_peer(static_cast<net::NodeId>(i));
    chord.build();
  }
};

}  // namespace

// Without maintenance a peer's record changes only when it dies, so once
// every death is announced, hops chase ahead, every lookup resolves exactly
// as hop by hop, and the overlay cannot be rebuilt under a chased hop.
// (These lookups all start at t = 0 over links of one latency, so answers
// tie; tied answers may run in another order than hop by hop.)
TEST(ChordChase, AnnouncedDeathsChaseHopsWithoutChangingResults) {
  const auto run = [](bool announce, std::uint64_t* chased, std::uint64_t* executed) {
    StaticRing r;
    if (announce) r.chord.for_each_live([&](p2p::PeerIndex p) { r.chord.announce_death(p, 100.0); });
    std::vector<std::tuple<bool, p2p::PeerIndex, std::size_t, double>> out(64);
    auto& rng = r.w.eng.rng("keys");
    for (std::size_t i = 0; i < 64; ++i) {
      r.chord.lookup(i, rng.next_u64() & r.chord.id_mask(), [&out, i](const auto& res) {
        out[i] = {res.ok, res.home, res.hops, res.latency};
      });
    }
    if (announce) {
      EXPECT_GT(r.chord.hops_chased(), 0u);
      EXPECT_THROW(r.chord.build(), std::logic_error);  // chased hops still fly
    }
    r.w.eng.run();
    r.chord.build();  // nothing in flight any more
    *chased = r.chord.hops_chased();
    *executed = r.w.eng.stats().executed;
    return out;
  };
  std::uint64_t chased = 0, executed = 0, chased_ref = 0, executed_ref = 0;
  const auto ref = run(false, &chased_ref, &executed_ref);
  const auto got = run(true, &chased, &executed);
  EXPECT_EQ(got, ref);
  EXPECT_EQ(chased_ref, 0u);
  EXPECT_EQ(executed + chased, executed_ref);
}

TEST(ChordChase, FailingBeforeTheAnnouncedDeathThrows) {
  StaticRing r;
  r.chord.announce_death(3, 5.0);
  try {
    r.chord.fail_peer(3);
    ADD_FAILURE() << "fail_peer before the announced death did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("peer 3 "), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("at 5 s"), std::string::npos) << e.what();
  }
  EXPECT_THROW(r.chord.remove_peer(3), std::logic_error);
  EXPECT_TRUE(r.chord.is_live(3));
  // A later announcement replaces the promise; the death is allowed from
  // the announced instant on.
  r.chord.announce_death(3, 6.0);
  r.w.eng.schedule_at(5.5, [&] { EXPECT_THROW(r.chord.fail_peer(3), std::logic_error); });
  r.w.eng.schedule_at(6.0, [&] { r.chord.fail_peer(3); });
  r.w.eng.run();
  EXPECT_FALSE(r.chord.is_live(3));
  // A peer nobody announced a death for may die at any time.
  r.chord.remove_peer(4);
  EXPECT_FALSE(r.chord.is_live(4));
}

TEST(ChordChase, AnnounceRejectsNonFiniteOrPastInstants) {
  StaticRing r;
  r.w.eng.schedule_at(2.0, [] {});
  r.w.eng.run();
  EXPECT_THROW(r.chord.announce_death(3, std::nan("")), std::invalid_argument);
  EXPECT_THROW(r.chord.announce_death(3, HUGE_VAL), std::invalid_argument);
  EXPECT_THROW(r.chord.announce_death(3, 1.5), std::invalid_argument);
  EXPECT_THROW(r.chord.announce_death(999, 3.0), std::invalid_argument);
  r.chord.remove_peer(5);
  EXPECT_THROW(r.chord.announce_death(5, 3.0), std::invalid_argument);
  r.chord.announce_death(3, 2.0);  // now itself is not in the past
  r.chord.fail_peer(3);
}

// --- finger scan: lookups pinned where fingers lie before their start -------
//
// A finger names the first peer at or past id + 2^k as the peer last saw
// it. On a sparse ring the high fingers wrap past 2^m, to the peer itself
// or to a peer nearer than 2^k; a newcomer's fingers all name its
// bootstrap until fix-fingers refreshes them. The digests fold every
// lookup's (ok, home, hops, latency); they were recorded where the finger
// scan always started at the top finger.

namespace {

struct LookupLog {
  core::StateHash hash;
  std::uint64_t count = 0, ok = 0;
  void add(const p2p::ChordNetwork::LookupResult& r) {
    hash.mix(r.ok);
    hash.mix(std::uint64_t{r.home});
    hash.mix(std::uint64_t{r.hops});
    hash.mix(r.latency);
    ++count;
    if (r.ok) ++ok;
  }
};

// Look up every key in `keys` from every live peer at the current instant,
// run the engine, and check each answer of a built ring against the owner.
void lookup_all(P2pWorld& w, p2p::ChordNetwork& chord, const std::vector<p2p::ChordId>& keys,
                LookupLog& log, bool check_owner) {
  std::vector<p2p::PeerIndex> origins;
  chord.for_each_live([&](p2p::PeerIndex p) { origins.push_back(p); });
  for (p2p::PeerIndex o : origins) {
    for (p2p::ChordId key : keys) {
      const p2p::PeerIndex owner = chord.responsible_peer(key);
      chord.lookup(o, key, [&log, owner, check_owner](const auto& r) {
        if (check_owner) {
          EXPECT_TRUE(r.ok);
          EXPECT_EQ(r.home, owner);
        }
        log.add(r);
      });
    }
  }
  w.eng.run();
}

std::vector<p2p::ChordId> every_key(std::uint32_t m) {
  std::vector<p2p::ChordId> keys(std::size_t{1} << m);
  for (std::size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  return keys;
}

}  // namespace

TEST(ChordFingerScan, LonePeerAndWrappedSmallRingsArePinned) {
  const auto run = [](std::size_t peers) {
    P2pWorld w(8);
    p2p::ChordNetwork chord(w.eng, *w.routing, 8);
    for (std::size_t i = 0; i < peers; ++i) chord.add_peer(static_cast<net::NodeId>(i));
    chord.build();
    LookupLog log;
    lookup_all(w, chord, every_key(8), log, /*check_owner=*/true);
    EXPECT_EQ(log.count, 256 * peers);
    return log.hash.value();
  };
  EXPECT_EQ(run(1), 0xa44b132d35346325ull);
  EXPECT_EQ(run(2), 0xedf98e2b3f3cda7dull);
  EXPECT_EQ(run(3), 0xca3d5dd170030b81ull);
}

// Each peer of a 6-peer ring in turn bootstraps a newcomer; the newcomer
// routes every key before its join answer arrives and again after it, with
// no maintenance, so its fingers all still name the bootstrap.
TEST(ChordFingerScan, NewcomerFingersNamingTheBootstrapArePinned) {
  core::StateHash all;
  std::uint64_t ok = 0;
  for (p2p::PeerIndex boot = 0; boot < 6; ++boot) {
    P2pWorld w(8);
    p2p::ChordNetwork chord(w.eng, *w.routing, 8);
    for (std::size_t i = 0; i < 6; ++i) chord.add_peer(static_cast<net::NodeId>(i));
    chord.build();
    const p2p::PeerIndex nc = chord.join_via(6, boot);
    LookupLog log;
    for (int phase = 0; phase < 2; ++phase) {
      for (p2p::ChordId key : every_key(8)) {
        chord.lookup(nc, key, [&log](const auto& r) { log.add(r); });
      }
      w.eng.run();
    }
    EXPECT_EQ(log.count, 512u);
    all.mix(log.hash.value());
    ok += log.ok;
  }
  EXPECT_EQ(all.value(), 0x7ef9b61525b718b1ull);
  EXPECT_EQ(ok, 3072u);
}

// The same newcomers in protocol mode: fix-fingers refreshes the low
// fingers one per round while the high ones still name the bootstrap, and
// the newcomer routes every key every half second in between.
TEST(ChordFingerScan, NewcomerWithLowFingersRefreshedIsPinned) {
  core::StateHash all;
  std::uint64_t ok = 0;
  for (p2p::PeerIndex boot = 0; boot < 6; ++boot) {
    P2pWorld w(8);
    p2p::ChordNetwork chord(w.eng, *w.routing, 8);
    for (std::size_t i = 0; i < 6; ++i) chord.add_peer(static_cast<net::NodeId>(i));
    chord.build();
    chord.enable_protocol_mode(0.5, 8.0);
    p2p::PeerIndex nc = 0;
    w.eng.schedule_at(1.0, [&] { nc = chord.join_via(6, boot); });
    LookupLog log;
    for (int round = 0; round < 10; ++round) {
      w.eng.schedule_at(1.25 + 0.5 * round, [&] {
        for (p2p::ChordId key : every_key(8)) {
          chord.lookup(nc, key, [&log](const auto& r) { log.add(r); });
        }
      });
    }
    w.eng.run();
    EXPECT_EQ(log.count, 2560u);
    all.mix(log.hash.value());
    ok += log.ok;
  }
  EXPECT_EQ(all.value(), 0xee0cf8efb968301eull);
  EXPECT_EQ(ok, 15360u);
}

// m = 63: from every peer, keys at id + 2^k - 1, id + 2^k and id + 2^k + 1
// cover the widest shifts and distances of the finger scan.
TEST(ChordFingerScan, WidestIdSpaceIsPinned) {
  P2pWorld w(40);
  p2p::ChordNetwork chord(w.eng, *w.routing, 63);
  for (std::size_t i = 0; i < 40; ++i) chord.add_peer(static_cast<net::NodeId>(i));
  chord.build();
  LookupLog log;
  chord.for_each_live([&](p2p::PeerIndex o) {
    for (std::uint32_t k = 0; k < 63; ++k) {
      const p2p::ChordId start = chord.id_of(o) + (p2p::ChordId{1} << k);
      for (p2p::ChordId off : {~p2p::ChordId{0}, p2p::ChordId{0}, p2p::ChordId{1}}) {
        const p2p::ChordId key = (start + off) & chord.id_mask();
        const p2p::PeerIndex owner = chord.responsible_peer(key);
        chord.lookup(o, key, [&log, owner](const auto& r) {
          EXPECT_TRUE(r.ok);
          EXPECT_EQ(r.home, owner);
          log.add(r);
        });
      }
    }
  });
  w.eng.run();
  EXPECT_EQ(log.count, 40u * 63 * 3);
  EXPECT_EQ(log.hash.value(), 0x731915e11fc38925ull);
}

// A sparse m = 8 ring in protocol mode loses peers, so fix-fingers answers
// name peers before their finger's start; every key is routed from every
// live peer every 2 s.
TEST(ChordFingerScan, RefreshedWrappedFingersArePinned) {
  P2pWorld w(8);
  p2p::ChordNetwork chord(w.eng, *w.routing, 8);
  for (std::size_t i = 0; i < 6; ++i) chord.add_peer(static_cast<net::NodeId>(i));
  chord.build();
  chord.enable_protocol_mode(0.5, 30.0);
  w.eng.schedule_at(1.0, [&] {
    chord.fail_peer(1);
    chord.fail_peer(4);
  });
  w.eng.schedule_at(9.0, [&] { chord.join_via(6, 0); });
  LookupLog log;
  for (int round = 0; round < 14; ++round) {
    w.eng.schedule_at(0.25 + 2.0 * round, [&] {
      chord.for_each_live([&](p2p::PeerIndex o) {
        for (p2p::ChordId key : every_key(8)) {
          chord.lookup(o, key, [&log](const auto& r) { log.add(r); });
        }
      });
    });
  }
  w.eng.run();
  EXPECT_EQ(log.count, 17152u);
  EXPECT_EQ(log.ok, 17152u);
  EXPECT_EQ(log.hash.value(), 0x93aeaa9a50babaffull);
  EXPECT_EQ(chord.state_digest(), 0xf64f67b74ac0f634ull);
}
