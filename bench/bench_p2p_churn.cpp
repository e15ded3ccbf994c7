// Experiment E16 — million-peer P2P overlays under lifetime-model churn.
//
// The seed kept Chord's ring in a std::map<ChordId, PeerIndex>, per-peer
// state in AoS structs with per-peer heap vectors, and Gnutella's query
// state in a std::map + std::set + std::string stack — every lookup hop
// and flood message paid pointer-chasing and allocator traffic. The
// rewrite packs peer state into flat SoA arrays, replaces the ring map
// with a radix-bucketed RingIndex, recycles lookup/query slots through
// generation-counted pools, and keeps every hot-path event capture inside
// the engine's 48-byte inline EventFn buffer.
//
// This bench quantifies each layer against a faithful in-file transcription
// of the seed implementation (RefChord / RefGnutella):
//   * resolve[]    — key -> responsible-peer resolution (RingIndex
//                    successor vs map lower_bound), the data-structure
//                    primitive under every hop, join and finger refresh.
//                    This is where the map hurts: ~16x at 1M peers.
//   * throughput[] — end-to-end simulated lookup/search throughput, both
//                    impls under the same engine + ZoneTree routing. The
//                    shared event-queue + routing cost puts a floor under
//                    both, so the honest end-to-end gap is modest; the
//                    self-check is that hops/messages/results are
//                    IDENTICAL (the rewrite changes speed, not behavior).
//   * diff_trace   — a 512-peer protocol-mode churn scenario run on both
//                    impls with a trace probe hashing every executed
//                    (time, event-id) pair: byte-identical schedules. Its
//                    deaths are unannounced, so no hop is chased.
//   * hash_points  — the same churn scenario across all five event-queue
//                    kinds: state digests and trace hashes must agree.
//   * churn[]      — the E16 study: failure rate / hop count / latency
//                    degradation as mean session lifetime shrinks, with
//                    the events run and the lookup hops chased inline.
//                    Its model results are pinned (kChurnPins*): a change
//                    that saves events must not move them.
//   * million      — 1M live peers in protocol mode under churn on the
//                    ladder queue, >= 1e6 pending events; --small skips it.
// Results go to BENCH_p2p.json. The bench judges its own run and exits 1
// with a FAIL line if any self-check fails: besides the identities above,
// resolution must be >= kMinResolveSpeedup everywhere and reach
// kMinResolveSpeedupAtScale at >= 100k peers, the flat overlays must keep
// >= kMinThroughputRatio of the map ones' ops/s, chord mean hops must not
// shrink with population, and churn must kill peers and chase hops
// whenever it is on.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_record.hpp"
#include "core/engine.hpp"
#include "core/hash.hpp"
#include "core/probe.hpp"
#include "core/process.hpp"
#include "core/rng.hpp"
#include "net/zone.hpp"
#include "p2p/churn.hpp"
#include "p2p/ring_index.hpp"
#include "util/strings.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace p2p = lsds::p2p;
namespace obs = lsds::obs;

namespace {

using namespace lsds::bench;

constexpr double kMinResolveSpeedup = 2.0;          // every resolve point
constexpr double kMinResolveSpeedupAtScale = 10.0;  // best point at >= 100k peers
constexpr double kMinThroughputRatio = 0.9;         // flat vs map ops/s

// The churn rows' model results, recorded bit for bit when every
// maintenance round of a peer took two events; the events column is free.
struct ChurnPin {
  double mean_lifetime;
  std::uint64_t issued;
  double failure_rate, mean_hops, mean_latency;
  std::uint64_t deaths;
};
constexpr ChurnPin kChurnPinsSmall[] = {  // 10,000 peers, 100 lookups/s
    {0, 5910, 0x0p+0, 0x1.d2f635e2b7d62p+2, 0x1.ad8452aeafbf2p-2, 0},
    {600, 5910, 0x1.6701a561cef74p-5, 0x1.fa6aa3e6cfef2p+2, 0x1.bf03873168e59p-2, 985},
    {120, 5910, 0x1.ad017906abb4dp-3, 0x1.3e63f1f8fc7e8p+3, 0x1.fe24c074b53fbp-2, 4497},
    {30, 5910, 0x1.16b2a30b009b4p-1, 0x1.c8639fcc4963ep+2, 0x1.90279b3847b6ep-2, 13717},
};
constexpr ChurnPin kChurnPinsFull[] = {  // 50,000 peers, 500 lookups/s
    {0, 29909, 0x0p+0, 0x1.0527171e607fbp+3, 0x1.091a7ec0eb9fcp-1, 0},
    {600, 29909, 0x1.7624db387ffa8p-6, 0x1.13407c73d5539p+3, 0x1.14e94b8dc0d5p-1, 4939},
    {120, 29909, 0x1.1540b32103618p-3, 0x1.44732687586d5p+3, 0x1.37739d55b9e7cp-1, 22156},
    {30, 29909, 0x1.f87c24df9a625p-2, 0x1.06d8f5e942092p+3, 0x1.087b3b1d504d2p-1, 68108},
};

using Clock = std::chrono::steady_clock;
double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Deterministic draw stream (splitmix-style): identical keys and origins
// for both implementations without touching the engine's rng streams.
std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4b96fULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- platform --------------------------------------------------------------

struct Platform {
  net::ZoneTree tree;
  std::unique_ptr<net::ZoneRouting> routing;
};

void build_platform(Platform& p, std::size_t peers, std::size_t sites) {
  const std::size_t base = peers / sites, extra = peers % sites;
  for (std::size_t s = 0; s < sites; ++s) {
    net::ClusterSpec spec;
    spec.hosts = base + (s < extra ? 1 : 0);
    spec.host_bandwidth = 1e8;
    spec.host_latency = 5e-3;
    spec.backbone_bandwidth = 1e10;
    spec.backbone_latency = 2e-2;
    p.tree.add_child(std::make_unique<net::ClusterZone>(spec), 1e10, 2e-2);
  }
  p.routing = std::make_unique<net::ZoneRouting>(p.tree);
}

// --- RefChord: faithful transcription of the seed implementation -----------
//
// std::map ring, AoS peers with per-peer finger vectors, std::function
// callbacks boxed into heap EventFn captures per hop, coroutine-based
// maintenance. Kept verbatim (plus the accessors the drivers need) so the
// A/B measures the data-structure change and nothing else.
class RefChord {
 public:
  using ChordId = p2p::ChordId;
  using PeerIndex = p2p::PeerIndex;

  RefChord(core::Engine& engine, net::RouteProvider& routing, std::uint32_t m = 32)
      : engine_(engine), routing_(routing), m_(m) {
    mask_ = (ChordId{1} << m_) - 1;
  }

  void reserve(std::size_t n) { peers_.reserve(n); }

  PeerIndex add_peer(net::NodeId node) {
    Peer p;
    p.node = node;
    const auto index = peers_.size();
    ChordId id = core::fnv1a(lsds::util::strformat("chord-peer-%zu", index)) & mask_;
    while (ring_.count(id)) id = (id + 1) & mask_;
    p.id = id;
    p.live = true;
    peers_.push_back(p);
    ring_[id] = index;
    ++live_count_;
    return index;
  }

  void remove_peer(PeerIndex peer) {
    peers_[peer].live = false;
    ring_.erase(peers_[peer].id);
    --live_count_;
  }

  void build() {
    auto successor_of = [&](ChordId key) -> PeerIndex {
      auto it = ring_.lower_bound(key);
      if (it == ring_.end()) it = ring_.begin();
      return it->second;
    };
    for (auto& [id, idx] : ring_) {
      Peer& p = peers_[idx];
      p.successor = successor_of((p.id + 1) & mask_);
      p.fingers.assign(m_, 0);
      for (std::uint32_t k = 0; k < m_; ++k) {
        const ChordId start = (p.id + (ChordId{1} << k)) & mask_;
        p.fingers[k] = successor_of(start);
      }
    }
  }

  void enable_protocol_mode(double stabilize_period, double horizon) {
    protocol_mode_ = true;
    stabilize_period_ = stabilize_period;
    horizon_ = horizon;
    for (auto& [id, idx] : ring_) refresh_succ_list(idx);
    for (auto& [id, idx] : ring_) peers_[peers_[idx].successor].predecessor = idx;
    for (auto& [id, idx] : ring_) maintenance_loop(engine_, idx, stabilize_period, horizon);
  }

  void fail_peer(PeerIndex peer) {
    peers_[peer].live = false;
    ring_.erase(peers_[peer].id);
    --live_count_;
  }

  PeerIndex join_via(net::NodeId node, PeerIndex bootstrap) {
    const PeerIndex newcomer = add_peer(node);
    Peer& p = peers_[newcomer];
    p.fingers.assign(m_, bootstrap);
    p.succ_list.clear();
    p.predecessor = kNoPeer;
    p.successor = bootstrap;
    ++messages_;
    lookup(bootstrap, (p.id + 1) & mask_, [this, newcomer](const LookupResult& r) {
      if (!r.ok) return;
      peers_[newcomer].successor = r.home;
      refresh_succ_list(newcomer);
    });
    if (protocol_mode_) maintenance_loop(engine_, newcomer, stabilize_period_, horizon_);
    return newcomer;
  }

  struct LookupResult {
    bool ok = false;
    PeerIndex home = 0;
    std::size_t hops = 0;
    double latency = 0;
  };
  using LookupFn = std::function<void(const LookupResult&)>;

  void lookup(PeerIndex origin, ChordId key, LookupFn done) {
    forward(origin, origin, key, 0, engine_.now(), std::move(done));
  }

  PeerIndex responsible_peer(ChordId key) const {
    auto it = ring_.lower_bound(key);
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }

  PeerIndex random_live_peer(core::RngStream& rng) const {
    auto it = ring_.lower_bound(rng.next_u64() & mask_);
    if (it == ring_.end()) it = ring_.begin();
    return it->second;
  }

  std::size_t size() const { return live_count_; }
  net::NodeId node_of(PeerIndex peer) const { return peers_[peer].node; }
  ChordId id_mask() const { return mask_; }
  std::uint64_t messages_sent() const { return messages_; }
  std::uint64_t stabilize_rounds() const { return stabilize_rounds_; }

 private:
  struct Peer {
    net::NodeId node = net::kInvalidNode;
    ChordId id = 0;
    bool live = false;
    PeerIndex successor = 0;
    PeerIndex predecessor = kNoPeer;
    std::vector<PeerIndex> succ_list;
    std::vector<PeerIndex> fingers;
    std::uint32_t next_finger = 0;
  };
  static constexpr PeerIndex kNoPeer = static_cast<PeerIndex>(-1);

  bool in_arc(ChordId x, ChordId a, ChordId b) const {
    if (a == b) return true;
    if (a < b) return x > a && x <= b;
    return x > a || x <= b;
  }

  PeerIndex closest_preceding(PeerIndex from, ChordId key) const {
    const Peer& p = peers_[from];
    for (std::size_t k = p.fingers.size(); k-- > 0;) {
      const PeerIndex f = p.fingers[k];
      if (!peers_[f].live || f == from) continue;
      if (in_arc(peers_[f].id, p.id, (key - 1) & mask_) && peers_[f].id != key) return f;
    }
    return p.successor;
  }

  double link_latency(PeerIndex a, PeerIndex b) {
    if (a == b) return 0;
    const auto& route = routing_.route(peers_[a].node, peers_[b].node);
    return route.valid ? route.total_latency : 0.001;
  }

  void refresh_succ_list(PeerIndex self) {
    Peer& p = peers_[self];
    p.succ_list.clear();
    PeerIndex cur = p.successor;
    for (int i = 0; i < 3; ++i) {
      if (cur == self || !peers_[cur].live) break;
      p.succ_list.push_back(cur);
      cur = peers_[cur].successor;
    }
  }

  void stabilize(PeerIndex self) {
    Peer& p = peers_[self];
    ++stabilize_rounds_;
    if (!peers_[p.successor].live || p.successor == self) {
      PeerIndex replacement = self;
      for (PeerIndex s : p.succ_list) {
        if (peers_[s].live && s != self) {
          replacement = s;
          break;
        }
      }
      if (replacement == self) {
        for (PeerIndex f : p.fingers) {
          if (peers_[f].live && f != self) {
            replacement = f;
            break;
          }
        }
      }
      p.successor = replacement;
    }
    if (p.successor == self) return;
    Peer& succ = peers_[p.successor];
    const PeerIndex x = succ.predecessor;
    if (x != kNoPeer && peers_[x].live && x != self &&
        in_arc(peers_[x].id, p.id, (succ.id + mask_) & mask_)) {
      p.successor = x;
    }
    Peer& new_succ = peers_[p.successor];
    const PeerIndex cur_pred = new_succ.predecessor;
    if (cur_pred == kNoPeer || !peers_[cur_pred].live ||
        in_arc(p.id, peers_[cur_pred].id, (new_succ.id + mask_) & mask_)) {
      new_succ.predecessor = self;
    }
    refresh_succ_list(self);
    messages_ += 2;
  }

  void fix_one_finger(PeerIndex self) {
    Peer& p = peers_[self];
    const std::uint32_t k = p.next_finger;
    p.next_finger = (p.next_finger + 1) % m_;
    const ChordId start = (p.id + (ChordId{1} << k)) & mask_;
    lookup(self, start, [this, self, k](const LookupResult& r) {
      if (r.ok && peers_[self].live) peers_[self].fingers[k] = r.home;
    });
  }

  core::Process maintenance_loop(core::Engine& eng, PeerIndex self, double period,
                                 double horizon) {
    auto& rng = eng.rng("chord.maintenance");
    co_await core::delay(eng, rng.uniform(0, period));
    while (eng.now() < horizon && peers_[self].live) {
      co_await core::delay(eng, 2.0 * link_latency(self, peers_[self].successor));
      if (!peers_[self].live) co_return;
      stabilize(self);
      fix_one_finger(self);
      co_await core::delay(eng, period);
    }
  }

  void forward(PeerIndex origin, PeerIndex current, ChordId key, std::size_t hops,
               double started, LookupFn done) {
    if (!peers_[current].live) {
      LookupResult res;
      res.ok = false;
      res.hops = hops;
      res.latency = engine_.now() - started;
      done(res);
      return;
    }
    const Peer& p = peers_[current];
    const Peer& succ = peers_[p.successor];
    if (in_arc(key, p.id, succ.id)) {
      const double back = link_latency(current, origin);
      ++messages_;
      const PeerIndex home = p.successor;
      engine_.schedule_in(back, [this, done = std::move(done), home, hops, started] {
        LookupResult res;
        res.ok = true;
        res.home = home;
        res.hops = hops;
        res.latency = engine_.now() - started;
        done(res);
      });
      return;
    }
    if (in_arc(key, (p.id + mask_) & mask_, p.id) || p.id == key) {
      LookupResult res;
      res.ok = true;
      res.home = current;
      res.hops = hops;
      res.latency = engine_.now() - started;
      done(res);
      return;
    }
    const PeerIndex next = closest_preceding(current, key);
    const double lat = link_latency(current, next);
    ++messages_;
    engine_.schedule_in(lat, [this, origin, next, key, hops, started,
                              done = std::move(done)]() mutable {
      forward(origin, next, key, hops + 1, started, std::move(done));
    });
  }

  core::Engine& engine_;
  net::RouteProvider& routing_;
  std::uint32_t m_;
  ChordId mask_ = 0;
  std::vector<Peer> peers_;
  std::map<ChordId, PeerIndex> ring_;
  std::size_t live_count_ = 0;
  std::uint64_t messages_ = 0;
  std::uint64_t stabilize_rounds_ = 0;
  bool protocol_mode_ = false;
  double stabilize_period_ = 1.0;
  double horizon_ = 0;
};

// --- RefGnutella: seed flooding search (map query table, set visit
// tracker, string object names) ---------------------------------------------
class RefGnutella {
 public:
  using PeerIndex = std::size_t;

  RefGnutella(core::Engine& engine, net::RouteProvider& routing)
      : engine_(engine), routing_(routing) {}

  void reserve(std::size_t n) { peers_.reserve(n); }

  PeerIndex add_peer(net::NodeId node) {
    peers_.push_back(Peer{node, {}, {}});
    return peers_.size() - 1;
  }

  void build_random_overlay(std::size_t degree, core::RngStream& rng) {
    const std::size_t n = peers_.size();
    degree = std::min(degree, n - 1);
    for (PeerIndex p = 0; p < n; ++p) {
      while (peers_[p].neighbors.size() < degree) {
        auto q = static_cast<PeerIndex>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
        if (q >= p) ++q;
        auto& np = peers_[p].neighbors;
        if (std::find(np.begin(), np.end(), q) != np.end()) continue;
        np.push_back(q);
        peers_[q].neighbors.push_back(p);
      }
    }
  }

  void place_object(PeerIndex peer, const std::string& name) { peers_[peer].objects.insert(name); }

  struct SearchResult {
    bool found = false;
    PeerIndex holder = 0;
    std::size_t hops = 0;
    std::size_t messages = 0;
    double latency = 0;
  };
  using SearchFn = std::function<void(const SearchResult&)>;

  void search(PeerIndex origin, const std::string& name, std::size_t ttl, SearchFn done) {
    const std::uint64_t qid = next_query_++;
    Query& q = queries_[qid];
    q.name = name;
    q.origin = origin;
    q.started = engine_.now();
    q.done = std::move(done);
    q.in_flight = 1;
    deliver(qid, origin, ttl, 0);
  }

 private:
  struct Peer {
    net::NodeId node;
    std::vector<PeerIndex> neighbors;
    std::set<std::string> objects;
  };
  struct Query {
    std::string name;
    PeerIndex origin = 0;
    double started = 0;
    SearchFn done;
    SearchResult result;
    std::set<PeerIndex> visited;
    std::size_t in_flight = 0;
  };

  double link_latency(PeerIndex a, PeerIndex b) {
    if (a == b) return 0;
    const auto& route = routing_.route(peers_[a].node, peers_[b].node);
    return route.valid ? route.total_latency : 0.001;
  }

  void deliver(std::uint64_t query_id, PeerIndex at, std::size_t ttl, std::size_t hops) {
    auto it = queries_.find(query_id);
    if (it == queries_.end()) return;
    Query& q = it->second;
    --q.in_flight;
    const bool first_visit = q.visited.insert(at).second;
    if (first_visit && peers_[at].objects.count(q.name) && !q.result.found) {
      q.result.found = true;
      q.result.holder = at;
      q.result.hops = hops;
      q.result.latency = (engine_.now() - q.started) + link_latency(at, q.origin);
    }
    if (first_visit && ttl > 0) {
      for (PeerIndex nb : peers_[at].neighbors) {
        if (q.visited.count(nb)) continue;
        ++q.result.messages;
        ++q.in_flight;
        const double lat = link_latency(at, nb);
        engine_.schedule_in(lat, [this, query_id, nb, ttl, hops] {
          deliver(query_id, nb, ttl - 1, hops + 1);
        });
      }
    }
    finish_if_drained(query_id);
  }

  void finish_if_drained(std::uint64_t query_id) {
    auto it = queries_.find(query_id);
    if (it == queries_.end() || it->second.in_flight > 0) return;
    Query q = std::move(it->second);
    queries_.erase(it);
    q.done(q.result);
  }

  core::Engine& engine_;
  net::RouteProvider& routing_;
  std::vector<Peer> peers_;
  std::map<std::uint64_t, Query> queries_;
  std::uint64_t next_query_ = 0;
};

// --- section: key resolution ------------------------------------------------

struct ResolvePoint {
  std::size_t peers = 0, queries = 0;
  double flat_ms = 0, map_ms = 0;
  bool match = false;
  double speedup() const { return flat_ms > 0 ? map_ms / flat_ms : 0; }
};

ResolvePoint run_resolve(std::size_t peers, std::size_t queries) {
  ResolvePoint pt;
  pt.peers = peers;
  pt.queries = queries;
  const std::uint64_t mask = (p2p::ChordId{1} << 32) - 1;

  // Seed id derivation: the same population lands in both structures.
  std::map<std::uint64_t, std::uint32_t> ring_map;
  p2p::RingIndex ring(32);
  for (std::size_t i = 0; i < peers; ++i) {
    std::uint64_t id = core::fnv1a(lsds::util::strformat("chord-peer-%zu", i)) & mask;
    while (ring_map.count(id)) id = (id + 1) & mask;
    ring_map[id] = static_cast<std::uint32_t>(i);
    ring.insert(id, static_cast<std::uint32_t>(i));
  }

  std::uint64_t s = 0x42, acc_flat = 0, acc_map = 0;
  auto t0 = Clock::now();
  for (std::size_t i = 0; i < queries; ++i) acc_flat += ring.successor(splitmix(s) & mask).slot;
  pt.flat_ms = ms_since(t0);

  s = 0x42;
  t0 = Clock::now();
  for (std::size_t i = 0; i < queries; ++i) {
    auto it = ring_map.lower_bound(splitmix(s) & mask);
    if (it == ring_map.end()) it = ring_map.begin();
    acc_map += it->second;
  }
  pt.map_ms = ms_since(t0);
  pt.match = acc_flat == acc_map;
  return pt;
}

// --- section: end-to-end throughput ----------------------------------------

struct ThroughputPoint {
  const char* overlay = "chord";
  const char* impl = "flat";
  std::size_t peers = 0, ops = 0;
  double build_ms = 0, wall_ms = 0;
  std::uint64_t ok = 0, hops_total = 0, messages = 0;
  std::uint64_t digest = 0;
  double ops_per_s() const { return wall_ms > 0 ? ops / (wall_ms / 1000.0) : 0; }
};

struct ChordTally {
  std::uint64_t ok = 0, fail = 0, hops = 0;
};

void chord_tally(void* user, std::uint64_t, const p2p::ChordNetwork::LookupResult& r) {
  auto* t = static_cast<ChordTally*>(user);
  if (r.ok) {
    ++t->ok;
    t->hops += r.hops;
  } else {
    ++t->fail;
  }
}

ThroughputPoint run_chord_flat(std::size_t peers, std::size_t lookups) {
  ThroughputPoint pt;
  pt.impl = "flat";
  pt.peers = peers;
  pt.ops = lookups;
  Platform plat;
  build_platform(plat, peers, 32);
  core::Engine eng({.queue = core::QueueKind::kLadderQueue, .seed = 11});
  auto t0 = Clock::now();
  p2p::ChordNetwork chord(eng, *plat.routing, 32);
  chord.reserve(peers);
  for (std::size_t i = 0; i < peers; ++i) chord.add_peer(plat.tree.host(i));
  chord.build();
  pt.build_ms = ms_since(t0);
  ChordTally tally;
  chord.set_lookup_handler(&chord_tally, &tally);
  std::uint64_t s = 0x1234;
  t0 = Clock::now();
  for (std::size_t i = 0; i < lookups; ++i) {
    const std::uint64_t u = splitmix(s);
    chord.lookup_tagged(u % peers, splitmix(s) & chord.id_mask(), i);
  }
  eng.run();
  pt.wall_ms = ms_since(t0);
  pt.ok = tally.ok;
  pt.hops_total = tally.hops;
  pt.messages = chord.messages_sent();
  pt.digest = chord.state_digest();
  return pt;
}

ThroughputPoint run_chord_map(std::size_t peers, std::size_t lookups) {
  ThroughputPoint pt;
  pt.impl = "map";
  pt.peers = peers;
  pt.ops = lookups;
  Platform plat;
  build_platform(plat, peers, 32);
  core::Engine eng({.queue = core::QueueKind::kLadderQueue, .seed = 11});
  auto t0 = Clock::now();
  RefChord chord(eng, *plat.routing, 32);
  chord.reserve(peers);
  for (std::size_t i = 0; i < peers; ++i) chord.add_peer(plat.tree.host(i));
  chord.build();
  pt.build_ms = ms_since(t0);
  ChordTally tally;
  std::uint64_t s = 0x1234;
  t0 = Clock::now();
  for (std::size_t i = 0; i < lookups; ++i) {
    const std::uint64_t u = splitmix(s);
    chord.lookup(u % peers, splitmix(s) & chord.id_mask(),
                 [&tally](const RefChord::LookupResult& r) {
                   if (r.ok) {
                     ++tally.ok;
                     tally.hops += r.hops;
                   } else {
                     ++tally.fail;
                   }
                 });
  }
  eng.run();
  pt.wall_ms = ms_since(t0);
  pt.ok = tally.ok;
  pt.hops_total = tally.hops;
  pt.messages = chord.messages_sent();
  return pt;
}

struct GnutellaTally {
  std::uint64_t found = 0, missed = 0, messages = 0, hops = 0;
};

void gnutella_tally(void* user, std::uint64_t, const p2p::GnutellaNetwork::SearchResult& r) {
  auto* t = static_cast<GnutellaTally*>(user);
  if (r.found) {
    ++t->found;
    t->hops += r.hops;
  } else {
    ++t->missed;
  }
  t->messages += r.messages;
}

constexpr std::size_t kGnutellaDegree = 6;
constexpr std::size_t kGnutellaTtl = 5;
constexpr std::size_t kGnutellaObjects = 512;

ThroughputPoint run_gnutella_flat(std::size_t peers, std::size_t searches) {
  ThroughputPoint pt;
  pt.overlay = "gnutella";
  pt.impl = "flat";
  pt.peers = peers;
  pt.ops = searches;
  Platform plat;
  build_platform(plat, peers, 32);
  core::Engine eng({.queue = core::QueueKind::kLadderQueue, .seed = 11});
  auto t0 = Clock::now();
  p2p::GnutellaNetwork gnet(eng, *plat.routing);
  gnet.reserve(peers);
  for (std::size_t i = 0; i < peers; ++i) gnet.add_peer(plat.tree.host(i));
  gnet.build_random_overlay(kGnutellaDegree, eng.rng("bench.overlay"));
  pt.build_ms = ms_since(t0);
  std::uint64_t s = 0x77;
  std::vector<std::uint64_t> catalog;
  for (std::size_t i = 0; i < kGnutellaObjects; ++i) {
    const std::string name = "obj-" + std::to_string(i);
    gnet.place_object(splitmix(s) % peers, name);
    catalog.push_back(p2p::GnutellaNetwork::hash_name(name));
  }
  GnutellaTally tally;
  gnet.set_search_handler(&gnutella_tally, &tally);
  t0 = Clock::now();
  for (std::size_t i = 0; i < searches; ++i) {
    const std::size_t origin = splitmix(s) % peers;
    gnet.search_tagged(origin, catalog[splitmix(s) % kGnutellaObjects], kGnutellaTtl, i);
  }
  eng.run();
  pt.wall_ms = ms_since(t0);
  pt.ok = tally.found;
  pt.hops_total = tally.hops;
  pt.messages = tally.messages;
  pt.digest = gnet.state_digest();
  return pt;
}

ThroughputPoint run_gnutella_map(std::size_t peers, std::size_t searches) {
  ThroughputPoint pt;
  pt.overlay = "gnutella";
  pt.impl = "map";
  pt.peers = peers;
  pt.ops = searches;
  Platform plat;
  build_platform(plat, peers, 32);
  core::Engine eng({.queue = core::QueueKind::kLadderQueue, .seed = 11});
  auto t0 = Clock::now();
  RefGnutella gnet(eng, *plat.routing);
  gnet.reserve(peers);
  for (std::size_t i = 0; i < peers; ++i) gnet.add_peer(plat.tree.host(i));
  gnet.build_random_overlay(kGnutellaDegree, eng.rng("bench.overlay"));
  pt.build_ms = ms_since(t0);
  std::uint64_t s = 0x77;
  std::vector<std::string> catalog;
  for (std::size_t i = 0; i < kGnutellaObjects; ++i) {
    const std::string name = "obj-" + std::to_string(i);
    gnet.place_object(splitmix(s) % peers, name);
    catalog.push_back(name);
  }
  GnutellaTally tally;
  t0 = Clock::now();
  for (std::size_t i = 0; i < searches; ++i) {
    const std::size_t origin = splitmix(s) % peers;
    gnet.search(origin, catalog[splitmix(s) % kGnutellaObjects], kGnutellaTtl,
                [&tally](const RefGnutella::SearchResult& r) {
                  if (r.found) {
                    ++tally.found;
                    tally.hops += r.hops;
                  } else {
                    ++tally.missed;
                  }
                  tally.messages += r.messages;
                });
  }
  eng.run();
  pt.wall_ms = ms_since(t0);
  pt.ok = tally.found;
  pt.hops_total = tally.hops;
  pt.messages = tally.messages;
  return pt;
}

// --- section: differential trace (seed vs rewrite, same scenario) ----------

/// Folds each executed event's (time, seq) into an FNV-1a trace hash and,
/// when given a list, appends it there too. Times no queue operation.
class TraceHashProbe final : public core::EngineProbe {
 public:
  explicit TraceHashProbe(std::vector<std::pair<double, std::uint64_t>>* seq = nullptr)
      : seq_(seq) {}
  void on_event(core::SimTime t, core::EventId id) override {
    hash.mix(bits(t));
    hash.mix(id);
    if (seq_) seq_->emplace_back(t, id);
  }
  std::uint32_t queue_stride() const override { return 0; }

  core::StateHash hash;

 private:
  std::vector<std::pair<double, std::uint64_t>>* seq_;
};

struct DiffOut {
  std::uint64_t trace = 0, executed = 0, messages = 0, ok = 0, fail = 0, chased = 0;
  std::size_t live = 0;
};

// Protocol-mode churn + lookups, scripted only through API both impls
// share. Every rng draw happens in event order, so if the schedules are
// byte-identical the draws are too — the trace hash seals both.
template <class Net>
DiffOut run_diff_scenario(std::vector<std::pair<double, std::uint64_t>>* seq = nullptr) {
  constexpr std::size_t kPeers = 512;
  Platform plat;
  build_platform(plat, kPeers, 4);
  TraceHashProbe trace(seq);
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 77});
  eng.set_probe(&trace);
  DiffOut out;

  Net net(eng, *plat.routing, 32);
  net.reserve(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) net.add_peer(plat.tree.host(i));
  net.build();
  net.enable_protocol_mode(2.0, 16.0);

  auto& arrival = eng.rng("bench.diff.arrival");
  auto& origin_rng = eng.rng("bench.diff.origin");
  auto& key_rng = eng.rng("bench.diff.key");
  double t = 0;
  for (int i = 0; i < 600; ++i) {
    t += arrival.exponential(0.02);
    if (t >= 16.0) break;
    eng.schedule_at(t, [&net, &origin_rng, &key_rng, &out] {
      const auto origin = net.random_live_peer(origin_rng);
      const auto key = key_rng.next_u64() & net.id_mask();
      net.lookup(origin, key, [&out](const typename Net::LookupResult& r) {
        if (r.ok) {
          ++out.ok;
        } else {
          ++out.fail;
        }
      });
    });
  }

  auto& churn_rng = eng.rng("bench.diff.churn");
  for (int j = 0; j < 48; ++j) {
    eng.schedule_at(1.0 + 0.25 * j, [&net, &eng, &churn_rng] {
      if (net.size() <= 8) return;
      const auto victim = net.random_live_peer(churn_rng);
      const auto node = net.node_of(victim);
      net.fail_peer(victim);
      eng.schedule_in(1.5, [&net, &churn_rng, node] {
        if (net.size() == 0) return;
        net.join_via(node, net.random_live_peer(churn_rng));
      });
    });
  }

  eng.run();
  out.trace = trace.hash.value();
  out.executed = eng.stats().executed;
  out.messages = net.messages_sent();
  out.live = net.size();
  if constexpr (std::is_same_v<Net, p2p::ChordNetwork>) out.chased = net.hops_chased();
  return out;
}

// --- section: cross-queue-kind hash equality --------------------------------

struct HashPoint {
  const char* queue = "";
  std::uint64_t digest = 0, trace = 0, issued = 0, deaths = 0;
};

HashPoint run_hash_point(core::QueueKind kind) {
  constexpr std::size_t kPeers = 2000;
  Platform plat;
  build_platform(plat, kPeers, 8);
  TraceHashProbe trace;
  core::Engine eng({.queue = kind, .seed = 42});
  eng.set_probe(&trace);
  HashPoint pt;
  pt.queue = core::to_string(kind);

  p2p::ChordNetwork chord(eng, *plat.routing, 32);
  chord.reserve(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) chord.add_peer(plat.tree.host(i));
  chord.build();
  chord.enable_protocol_mode(5.0, 30.0);

  p2p::TrafficSpec tspec;
  tspec.rate = 200;
  tspec.horizon = 30;
  p2p::ChurnSpec cspec;
  cspec.lifetime_model = p2p::ChurnSpec::Lifetime::kExponential;
  cspec.mean_lifetime = 60;
  cspec.mean_downtime = 10;
  cspec.horizon = 30;

  p2p::ChordLookupTraffic gen(eng, chord, tspec);
  p2p::ChordChurn churner(eng, chord, cspec);
  churner.start();
  gen.start();
  eng.run();

  pt.digest = chord.state_digest();
  pt.trace = trace.hash.value();
  pt.issued = gen.issued();
  pt.deaths = churner.deaths();
  return pt;
}

// --- section: churn study (E16) ---------------------------------------------

struct ChurnPoint {
  std::size_t peers = 0;
  double mean_lifetime = 0;  // 0 = no churn
  std::uint64_t issued = 0, ok = 0, deaths = 0, rebirths = 0, events = 0, chased = 0;
  double failure_rate = 0, mean_hops = 0, mean_latency = 0, wall_ms = 0;
  std::size_t live = 0, peak_pending = 0;
  double events_per_s() const {
    return wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1000.0) : 0;
  }
};

ChurnPoint run_churn_point(std::size_t peers, double mean_lifetime, double rate) {
  constexpr double kHorizon = 60.0, kPeriod = 10.0, kDowntime = 20.0;
  ChurnPoint pt;
  pt.peers = peers;
  pt.mean_lifetime = mean_lifetime;
  Platform plat;
  build_platform(plat, peers, 32);
  core::Engine eng({.queue = core::QueueKind::kLadderQueue, .seed = 7});

  p2p::ChordNetwork chord(eng, *plat.routing, 32);
  chord.reserve(peers);
  for (std::size_t i = 0; i < peers; ++i) chord.add_peer(plat.tree.host(i));
  chord.build();
  chord.enable_protocol_mode(kPeriod, kHorizon);

  p2p::TrafficSpec tspec;
  tspec.rate = rate;
  tspec.horizon = kHorizon;
  p2p::ChordLookupTraffic gen(eng, chord, tspec);
  std::unique_ptr<p2p::ChordChurn> churner;
  if (mean_lifetime > 0) {
    p2p::ChurnSpec cspec;
    cspec.lifetime_model = p2p::ChurnSpec::Lifetime::kExponential;
    cspec.mean_lifetime = mean_lifetime;
    cspec.mean_downtime = kDowntime;
    cspec.horizon = kHorizon;
    churner = std::make_unique<p2p::ChordChurn>(eng, chord, cspec);
    churner->start();
  }
  gen.start();
  auto t0 = Clock::now();
  eng.run();
  pt.wall_ms = ms_since(t0);

  pt.issued = gen.issued();
  pt.ok = gen.succeeded();
  pt.failure_rate = gen.failure_rate();
  pt.mean_hops = gen.hops().mean();
  pt.mean_latency = gen.latency().mean();
  pt.deaths = churner ? churner->deaths() : 0;
  pt.rebirths = churner ? churner->rebirths() : 0;
  pt.events = eng.stats().executed;
  pt.chased = chord.hops_chased();
  pt.live = chord.size();
  pt.peak_pending = gen.peak_pending();
  return pt;
}

// --- section: the million-peer run ------------------------------------------

struct MillionOut {
  std::size_t peers = 0, live = 0, peak_pending = 0;
  std::uint64_t events = 0, issued = 0, deaths = 0, rebirths = 0;
  double build_ms = 0, wall_ms = 0, failure_rate = 0, mean_hops = 0, rss = 0;
  std::uint64_t digest = 0;
  double events_per_s() const {
    return wall_ms > 0 ? static_cast<double>(events) / (wall_ms / 1000.0) : 0;
  }
};

MillionOut run_million() {
  constexpr std::size_t kPeers = 1000000;
  constexpr double kHorizon = 30.0, kPeriod = 15.0;
  MillionOut out;
  out.peers = kPeers;
  Platform plat;
  build_platform(plat, kPeers, 64);
  core::Engine eng({.queue = core::QueueKind::kLadderQueue, .seed = 9});

  auto t0 = Clock::now();
  p2p::ChordNetwork chord(eng, *plat.routing, 32);
  chord.reserve(kPeers);
  for (std::size_t i = 0; i < kPeers; ++i) chord.add_peer(plat.tree.host(i));
  chord.build();
  chord.enable_protocol_mode(kPeriod, kHorizon);
  out.build_ms = ms_since(t0);

  p2p::TrafficSpec tspec;
  tspec.rate = 2000;
  tspec.horizon = kHorizon;
  p2p::ChurnSpec cspec;
  cspec.lifetime_model = p2p::ChurnSpec::Lifetime::kExponential;
  cspec.mean_lifetime = 600;
  cspec.mean_downtime = 30;
  cspec.horizon = kHorizon;

  p2p::ChordLookupTraffic gen(eng, chord, tspec);
  p2p::ChordChurn churner(eng, chord, cspec);
  churner.start();
  gen.start();
  // One maintenance timer and one death timer per live peer are already
  // queued, so the ladder carries >= 2e6 pending events before t=0.
  out.peak_pending = eng.pending();

  t0 = Clock::now();
  eng.run();
  out.wall_ms = ms_since(t0);

  out.peak_pending = std::max(out.peak_pending, gen.peak_pending());
  out.live = chord.size();
  out.events = eng.stats().executed;
  out.issued = gen.issued();
  out.deaths = churner.deaths();
  out.rebirths = churner.rebirths();
  out.failure_rate = gen.failure_rate();
  out.mean_hops = gen.hops().mean();
  out.digest = chord.state_digest();
  out.rss = rss_mb();
  return out;
}

// --- output -----------------------------------------------------------------

obs::Json record(bool small, const std::vector<ResolvePoint>& resolve,
                 const std::vector<ThroughputPoint>& tp, const DiffOut& diff_flat,
                 const DiffOut& diff_map, bool diff_identical,
                 const std::vector<HashPoint>& hashes, bool hash_equal, bool deterministic,
                 const std::vector<ChurnPoint>& churn, const MillionOut* million) {
  auto doc = obs::Json::object();
  doc.set("benchmark", "p2p_churn");
  doc.set("small", small);

  auto& res = doc["resolve"] = obs::Json::array();
  for (const auto& r : resolve) {
    auto o = obs::Json::object();
    o.set("peers", r.peers);
    o.set("queries", r.queries);
    o.set("flat_ms", r.flat_ms);
    o.set("map_ms", r.map_ms);
    o.set("speedup", r.speedup());
    o.set("match", r.match);
    res.push(std::move(o));
  }

  auto& thr = doc["throughput"] = obs::Json::array();
  for (const auto& p : tp) {
    auto o = obs::Json::object();
    o.set("overlay", p.overlay);
    o.set("impl", p.impl);
    o.set("peers", p.peers);
    o.set("ops", p.ops);
    o.set("build_ms", p.build_ms);
    o.set("wall_ms", p.wall_ms);
    o.set("ops_per_s", p.ops_per_s());
    o.set("ok", p.ok);
    o.set("hops_total", p.hops_total);
    o.set("messages", p.messages);
    thr.push(std::move(o));
  }

  auto& diff = doc["diff_trace"] = obs::Json::object();
  diff.set("peers", 512);
  diff.set("trace_flat", hex(diff_flat.trace));
  diff.set("trace_map", hex(diff_map.trace));
  diff.set("executed", diff_flat.executed);
  diff.set("lookups_ok", diff_flat.ok);
  diff.set("lookups_failed", diff_flat.fail);
  diff.set("hops_chased", diff_flat.chased);
  diff.set("identical", diff_identical);

  auto& hp = doc["hash_points"] = obs::Json::array();
  for (const auto& h : hashes) {
    auto o = obs::Json::object();
    o.set("queue", h.queue);
    o.set("digest", hex(h.digest));
    o.set("trace", hex(h.trace));
    o.set("issued", h.issued);
    o.set("deaths", h.deaths);
    hp.push(std::move(o));
  }
  doc.set("hash_equal", hash_equal);
  doc.set("deterministic", deterministic);

  auto& ch = doc["churn"] = obs::Json::array();
  for (const auto& c : churn) {
    auto o = obs::Json::object();
    o.set("peers", c.peers);
    o.set("mean_lifetime", c.mean_lifetime);
    o.set("issued", c.issued);
    o.set("failure_rate", c.failure_rate);
    o.set("mean_hops", c.mean_hops);
    o.set("mean_latency", c.mean_latency);
    o.set("deaths", c.deaths);
    o.set("rebirths", c.rebirths);
    o.set("live", c.live);
    o.set("events", c.events);
    o.set("hops_chased", c.chased);
    o.set("wall_ms", c.wall_ms);
    o.set("events_per_s", c.events_per_s());
    o.set("peak_pending", c.peak_pending);
    ch.push(std::move(o));
  }

  if (million) {
    const auto& m = *million;
    auto& o = doc["million"] = obs::Json::object();
    o.set("peers", m.peers);
    o.set("live", m.live);
    o.set("peak_pending", m.peak_pending);
    o.set("events", m.events);
    o.set("issued", m.issued);
    o.set("deaths", m.deaths);
    o.set("rebirths", m.rebirths);
    o.set("build_ms", m.build_ms);
    o.set("wall_ms", m.wall_ms);
    o.set("events_per_s", m.events_per_s());
    o.set("failure_rate", m.failure_rate);
    o.set("mean_hops", m.mean_hops);
    o.set("digest", hex(m.digest));
    o.set("rss_mb", m.rss);
  }
  doc.set("rss_mb", rss_mb());
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false, diff_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--small") == 0) small = true;
    if (std::strcmp(argv[i], "--diff-only") == 0) diff_only = true;
  }
  if (diff_only) {
    // Debug aid: run just the differential scenario and report the first
    // point where the seed and rewrite schedules part ways.
    std::vector<std::pair<double, std::uint64_t>> sf, sm;
    const DiffOut a = run_diff_scenario<p2p::ChordNetwork>(&sf);
    const DiffOut b = run_diff_scenario<RefChord>(&sm);
    std::printf("flat: executed=%" PRIu64 " messages=%" PRIu64 " ok=%" PRIu64 " fail=%" PRIu64
                " live=%zu\n",
                a.executed, a.messages, a.ok, a.fail, a.live);
    std::printf("map:  executed=%" PRIu64 " messages=%" PRIu64 " ok=%" PRIu64 " fail=%" PRIu64
                " live=%zu\n",
                b.executed, b.messages, b.ok, b.fail, b.live);
    const std::size_t n = std::min(sf.size(), sm.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (sf[i] != sm[i]) {
        std::printf("first divergence at event %zu:\n", i);
        for (std::size_t j = i >= 3 ? i - 3 : 0; j < std::min(i + 4, n); ++j) {
          std::printf("  [%zu] flat t=%.9f id=%" PRIu64 "   map t=%.9f id=%" PRIu64 "\n", j,
                      sf[j].first, sf[j].second, sm[j].first, sm[j].second);
        }
        return 1;
      }
    }
    std::printf("prefixes agree for %zu events (sizes %zu vs %zu)\n", n, sf.size(), sm.size());
    return a.trace == b.trace ? 0 : 1;
  }
  SelfCheck check;

  // 1. Key resolution: the primitive the ring rewrite targets.
  std::vector<ResolvePoint> resolve;
  double best_at_scale = 0;
  for (std::size_t peers : {std::size_t{100000}, std::size_t{1000000}}) {
    resolve.push_back(run_resolve(peers, 2000000));
    const auto& r = resolve.back();
    std::printf("resolve %7zu peers: flat %.0f ms, map %.0f ms -> %.1fx%s\n", r.peers, r.flat_ms,
                r.map_ms, r.speedup(), r.match ? "" : "  [MISMATCH]");
    check.expect(r.match, "resolve results differ at %zu peers", r.peers);
    check.expect(std::isfinite(r.speedup()) && r.speedup() >= kMinResolveSpeedup,
                 "resolve @%zu: speedup %.2fx < %.0fx", r.peers, r.speedup(),
                 kMinResolveSpeedup);
    if (r.peers >= 100000) best_at_scale = std::max(best_at_scale, r.speedup());
  }
  check.expect(best_at_scale >= kMinResolveSpeedupAtScale,
               "no resolve point at >= 100k peers reached %.0fx (best %.2fx)",
               kMinResolveSpeedupAtScale, best_at_scale);

  // 2. End-to-end throughput A/B. Behavior must be identical; speed is
  //    engine-bound, so the gate is "no regression", not a multiplier.
  std::vector<ThroughputPoint> tp;
  auto check_ab = [&check](const ThroughputPoint& flat, const ThroughputPoint& map) {
    check.expect(flat.ops_per_s() >= kMinThroughputRatio * map.ops_per_s(),
                 "%s @%zu: flat %.0f ops/s regressed below %.1fx map (%.0f)", flat.overlay,
                 flat.peers, flat.ops_per_s(), kMinThroughputRatio, map.ops_per_s());
  };
  for (std::size_t peers : {std::size_t{10000}, std::size_t{100000}}) {
    const std::size_t lookups = 20000;
    tp.push_back(run_chord_flat(peers, lookups));
    tp.push_back(run_chord_map(peers, lookups));
    const auto& a = tp[tp.size() - 2];
    const auto& b = tp.back();
    std::printf("chord    %7zu peers: flat %.0f/s, map %.0f/s (%.2fx), hops %" PRIu64 "\n",
                peers, a.ops_per_s(), b.ops_per_s(), a.ops_per_s() / b.ops_per_s(),
                a.hops_total);
    check.expect(a.ok == lookups && b.ok == lookups && a.hops_total == b.hops_total &&
                     a.messages == b.messages,
                 "chord A/B behavior differs at %zu peers", peers);
    check_ab(a, b);
  }
  if (!small) {
    tp.push_back(run_chord_flat(1000000, 20000));
    const auto& p = tp.back();
    std::printf("chord    %7zu peers: flat %.0f/s (map impl skipped at this scale)\n", p.peers,
                p.ops_per_s());
    check.expect(p.ok == p.ops, "chord 1M lookups lost (%" PRIu64 "/%zu ok)", p.ok, p.ops);
  }
  {
    const std::size_t peers = 100000, searches = small ? 100 : 200;
    tp.push_back(run_gnutella_flat(peers, searches));
    tp.push_back(run_gnutella_map(peers, searches));
    const auto& a = tp[tp.size() - 2];
    const auto& b = tp.back();
    std::printf("gnutella %7zu peers: flat %.1f/s, map %.1f/s (%.2fx), msgs %" PRIu64 "\n",
                peers, a.ops_per_s(), b.ops_per_s(), a.ops_per_s() / b.ops_per_s(), a.messages);
    check.expect(a.ok == b.ok && a.hops_total == b.hops_total && a.messages == b.messages,
                 "gnutella A/B behavior differs at %zu peers", peers);
    check_ab(a, b);
  }
  // Chord points run in ascending population: O(log n) routing means the
  // mean hop count must not shrink as the ring grows.
  double prev_hops = 0;
  for (const auto& p : tp) {
    if (std::strcmp(p.impl, "flat") != 0) continue;
    check.expect(std::isfinite(p.ops_per_s()) && p.ops_per_s() > 0,
                 "%s @%zu: bad flat ops_per_s", p.overlay, p.peers);
    if (std::strcmp(p.overlay, "chord") != 0) continue;
    const double hops = static_cast<double>(p.hops_total) /
                        static_cast<double>(std::max<std::uint64_t>(p.ok, 1));
    check.expect(hops >= prev_hops, "chord mean hops shrank with population (%.2f -> %.2f @%zu)",
                 prev_hops, hops, p.peers);
    prev_hops = hops;
  }

  // Determinism: rerun the smallest chord point; all counters must repeat.
  const ThroughputPoint again = run_chord_flat(10000, 20000);
  const ThroughputPoint& first = tp.front();  // chord, flat, 10k peers
  const bool deterministic = first.hops_total == again.hops_total &&
                             first.messages == again.messages && first.digest == again.digest;
  std::printf("determinism re-pass: %s\n", deterministic ? "ok" : "DIVERGED");
  check.expect(deterministic, "chord flat rerun diverged");

  // 3. Differential trace: seed impl vs rewrite, identical schedules.
  const DiffOut diff_flat = run_diff_scenario<p2p::ChordNetwork>();
  const DiffOut diff_map = run_diff_scenario<RefChord>();
  const bool diff_identical = diff_flat.trace == diff_map.trace &&
                              diff_flat.executed == diff_map.executed &&
                              diff_flat.messages == diff_map.messages &&
                              diff_flat.ok == diff_map.ok && diff_flat.fail == diff_map.fail &&
                              diff_flat.live == diff_map.live;
  std::printf("diff trace: flat %016" PRIx64 " map %016" PRIx64 " (%" PRIu64 " events) %s\n",
              diff_flat.trace, diff_map.trace, diff_flat.executed,
              diff_identical ? "identical" : "DIVERGED");
  check.expect(diff_identical, "seed-vs-rewrite trace diverged");
  // Its deaths are unannounced fail_peer calls, so every hop is an event.
  check.expect(diff_flat.chased == 0,
               "differential scenario chased %" PRIu64 " hops past unannounced deaths",
               diff_flat.chased);
  check.expect(diff_flat.trace != 0 && diff_flat.executed != 0,
               "differential scenario trace is empty");

  // 4. Cross-queue-kind hash equality on the churn stack.
  std::vector<HashPoint> hashes;
  bool hash_equal = true;
  for (const auto kind : core::kAllQueueKinds) {
    hashes.push_back(run_hash_point(kind));
    const auto& h = hashes.back();
    if (h.digest != hashes.front().digest || h.trace != hashes.front().trace) hash_equal = false;
    std::printf("hash %-9s digest %016" PRIx64 " trace %016" PRIx64 "\n", h.queue, h.digest,
                h.trace);
  }
  check.expect(hash_equal, "digests differ across queue kinds");
  check.expect(hashes.front().digest != 0, "zero state digest, overlay state was not hashed");

  // 5. E16 churn study: lookup degradation vs mean session lifetime.
  std::vector<ChurnPoint> churn;
  const std::size_t churn_peers = small ? 10000 : 50000;
  const double churn_rate = small ? 100 : 500;
  for (const ChurnPin& pin : small ? kChurnPinsSmall : kChurnPinsFull) {
    churn.push_back(run_churn_point(churn_peers, pin.mean_lifetime, churn_rate));
    const auto& c = churn.back();
    std::printf("churn life=%4.0fs: fail %.4f, hops %.2f, latency %.4f, deaths %" PRIu64
                ", %" PRIu64 " events, %" PRIu64 " hops chased, %.0f ev/s\n",
                c.mean_lifetime, c.failure_rate, c.mean_hops, c.mean_latency, c.deaths, c.events,
                c.chased, c.events_per_s());
    check.expect(c.failure_rate >= 0 && c.failure_rate <= 1 && c.issued > 0,
                 "churn point life=%.0f implausible", c.mean_lifetime);
    check.expect(c.mean_lifetime == 0 || c.deaths > 0,
                 "churn life=%.0f: churn enabled but no deaths", c.mean_lifetime);
    // Churn announces every death, so hops between calm peers are chased.
    check.expect(c.mean_lifetime == 0 || c.chased > 0,
                 "churn life=%.0f: no hop was chased", c.mean_lifetime);
    check.expect(std::isfinite(c.events_per_s()) && c.events_per_s() > 0,
                 "churn life=%.0f: bad events_per_s", c.mean_lifetime);
    check.expect(c.issued == pin.issued && c.failure_rate == pin.failure_rate &&
                     c.mean_hops == pin.mean_hops && c.mean_latency == pin.mean_latency &&
                     c.deaths == pin.deaths,
                 "churn life=%.0f: model results moved (issued %" PRIu64 ", fail %a, hops %a, "
                 "latency %a, deaths %" PRIu64 "; pinned %" PRIu64 ", %a, %a, %a, %" PRIu64 ")",
                 c.mean_lifetime, c.issued, c.failure_rate, c.mean_hops, c.mean_latency,
                 c.deaths, pin.issued, pin.failure_rate, pin.mean_hops, pin.mean_latency,
                 pin.deaths);
  }
  check.expect(churn.back().failure_rate >= churn.front().failure_rate,
               "heaviest churn did not raise the failure rate");

  // 6. The million-peer point (full runs only).
  MillionOut million;
  if (!small) {
    million = run_million();
    std::printf("million: %zu live of %zu, peak pending %zu, %" PRIu64
                " events in %.1f s (%.0f ev/s), fail %.4f, rss %.0f MB\n",
                million.live, million.peers, million.peak_pending, million.events,
                million.wall_ms / 1000.0, million.events_per_s(), million.failure_rate,
                million.rss);
    check.expect(million.peak_pending >= 1000000 && million.live > 0 && million.events > 0,
                 "million-peer run did not meet the E16 operating point");
  }

  check.write(record(small, resolve, tp, diff_flat, diff_map, diff_identical, hashes, hash_equal,
                     deterministic, churn, small ? nullptr : &million),
              "BENCH_p2p.json");
  std::printf("bench_p2p_churn: %s\n", check.ok ? "all self-checks passed" : "SELF-CHECK FAILED");
  return check.ok ? 0 : 1;
}
