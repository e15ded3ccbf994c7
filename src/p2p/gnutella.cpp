#include "p2p/gnutella.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "core/hash.hpp"
#include "core/rng.hpp"

namespace lsds::p2p {

// --- VisitSet -----------------------------------------------------------

bool GnutellaNetwork::VisitSet::insert(PeerSlot s) {
  if (table_.empty() || size_ * 4 >= table_.size() * 3) grow();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = (std::uint64_t{s} * 0x9e3779b97f4a7c15ull >> 32) & mask;
  while (table_[i] != kEmpty) {
    if (table_[i] == s) return false;
    i = (i + 1) & mask;
  }
  table_[i] = s;
  ++size_;
  return true;
}

bool GnutellaNetwork::VisitSet::contains(PeerSlot s) const {
  if (table_.empty()) return false;
  const std::size_t mask = table_.size() - 1;
  std::size_t i = (std::uint64_t{s} * 0x9e3779b97f4a7c15ull >> 32) & mask;
  while (table_[i] != kEmpty) {
    if (table_[i] == s) return true;
    i = (i + 1) & mask;
  }
  return false;
}

void GnutellaNetwork::VisitSet::clear() {
  std::fill(table_.begin(), table_.end(), kEmpty);
  size_ = 0;
}

void GnutellaNetwork::VisitSet::grow() {
  const std::size_t cap = table_.empty() ? 16 : table_.size() * 2;
  std::vector<PeerSlot> old = std::move(table_);
  table_.assign(cap, kEmpty);
  size_ = 0;
  for (PeerSlot s : old) {
    if (s != kEmpty) insert(s);
  }
}

// --- peers --------------------------------------------------------------

GnutellaNetwork::GnutellaNetwork(core::Engine& engine, net::RouteProvider& routing)
    : engine_(engine), routing_(routing) {}

void GnutellaNetwork::reserve(std::size_t peers) {
  node_.reserve(peers);
  gen_.reserve(peers);
  live_.reserve(peers);
  neighbors_.reserve(peers);
  objects_.reserve(peers);
}

GnutellaNetwork::PeerIndex GnutellaNetwork::add_peer(net::NodeId node) {
  PeerSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    node_[slot] = node;
    live_[slot] = 1;
    // neighbors_/objects_ were cleared on retirement; capacity is kept.
  } else {
    slot = static_cast<PeerSlot>(node_.size());
    node_.push_back(node);
    gen_.push_back(0);
    live_.push_back(1);
    neighbors_.emplace_back();
    objects_.emplace_back();
  }
  ++live_count_;
  return slot;
}

void GnutellaNetwork::remove_peer(PeerIndex peer) {
  if (peer >= node_.size() || live_[peer] == 0) {
    throw std::invalid_argument("GnutellaNetwork::remove_peer: peer " + std::to_string(peer) +
                                " is not live");
  }
  const PeerSlot p = static_cast<PeerSlot>(peer);
  for (PeerSlot nb : neighbors_[p]) {
    auto& back = neighbors_[nb];
    const auto it = std::find(back.begin(), back.end(), p);
    if (it != back.end()) back.erase(it);  // keep order: flood order stays stable
  }
  neighbors_[p].clear();
  objects_[p].clear();
  live_[p] = 0;
  ++gen_[p];  // flood messages in flight to this slot become stale
  --live_count_;
  free_slots_.push_back(p);
}

void GnutellaNetwork::build_random_overlay(std::size_t degree, core::RngStream& rng) {
  const std::size_t n = node_.size();
  assert(n >= 2 && free_slots_.empty());
  degree = std::min(degree, n - 1);
  for (PeerSlot p = 0; p < n; ++p) {
    while (neighbors_[p].size() < degree) {
      auto q = static_cast<PeerSlot>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      if (q >= p) ++q;
      auto& np = neighbors_[p];
      if (std::find(np.begin(), np.end(), q) != np.end()) continue;
      np.push_back(q);
      neighbors_[q].push_back(p);  // symmetric (q may exceed degree)
    }
  }
}

void GnutellaNetwork::connect_random(PeerIndex peer, std::size_t degree, core::RngStream& rng) {
  if (peer >= node_.size() || live_[peer] == 0) {
    throw std::invalid_argument("GnutellaNetwork::connect_random: peer " +
                                std::to_string(peer) + " is not live");
  }
  const PeerSlot p = static_cast<PeerSlot>(peer);
  if (live_count_ < 2) return;
  degree = std::min(degree, live_count_ - 1);
  // Rejection-sample live neighbors; the attempt cap keeps this O(degree)
  // even when the slot space is mostly dead or the peer is near-saturated.
  std::size_t attempts = 16 * (degree + 1);
  auto& np = neighbors_[p];
  while (np.size() < degree && attempts-- > 0) {
    const auto q = static_cast<PeerSlot>(
        rng.uniform_int(0, static_cast<std::int64_t>(node_.size()) - 1));
    if (q == p || live_[q] == 0) continue;
    if (std::find(np.begin(), np.end(), q) != np.end()) continue;
    np.push_back(q);
    neighbors_[q].push_back(p);
  }
}

GnutellaNetwork::PeerIndex GnutellaNetwork::random_live_peer(core::RngStream& rng) const {
  assert(live_count_ > 0);
  for (int i = 0; i < 64; ++i) {
    const auto s = static_cast<PeerSlot>(
        rng.uniform_int(0, static_cast<std::int64_t>(node_.size()) - 1));
    if (live_[s] != 0) return s;
  }
  // Pathological occupancy (< ~2^-64 when any live fraction remains after
  // 64 draws): deterministic fallback scan.
  for (std::size_t s = 0; s < node_.size(); ++s) {
    if (live_[s] != 0) return s;
  }
  return 0;
}

// --- objects ------------------------------------------------------------

std::uint64_t GnutellaNetwork::hash_name(const std::string& name) { return core::fnv1a(name); }

void GnutellaNetwork::place_object(PeerIndex peer, const std::string& name) {
  auto& objs = objects_[peer];
  const std::uint64_t h = hash_name(name);
  const auto it = std::lower_bound(objs.begin(), objs.end(), h);
  if (it == objs.end() || *it != h) objs.insert(it, h);
}

bool GnutellaNetwork::has_object(PeerIndex peer, const std::string& name) const {
  const auto& objs = objects_[peer];
  return std::binary_search(objs.begin(), objs.end(), hash_name(name));
}

double GnutellaNetwork::link_latency(PeerSlot a, PeerSlot b) {
  if (a == b) return 0;
  const double lat = routing_.path_latency(node_[a], node_[b]);
  return std::isinf(lat) ? 0.001 : lat;  // +inf: unreachable
}

// --- search -------------------------------------------------------------

std::uint32_t GnutellaNetwork::allocate_query(PeerIndex origin, std::uint64_t name_hash) {
  std::uint32_t qs;
  if (query_free_ != kNilIdx) {
    qs = query_free_;
    query_free_ = queries_[qs].next_free;
  } else {
    qs = static_cast<std::uint32_t>(queries_.size());
    queries_.emplace_back();
  }
  ++queries_live_;
  Query& q = queries_[qs];
  q.name_hash = name_hash;
  q.origin = static_cast<PeerSlot>(origin);
  q.started = engine_.now();
  q.result = SearchResult{};
  q.in_flight = 1;
  return qs;
}

void GnutellaNetwork::search(PeerIndex origin, const std::string& name, std::size_t ttl,
                             SearchFn done) {
  const std::uint32_t qs = allocate_query(origin, hash_name(name));
  Query& q = queries_[qs];
  q.done = std::move(done);
  q.tagged = false;
  const PeerSlot o = static_cast<PeerSlot>(origin);
  deliver(qs, q.gen, o, gen_[o], static_cast<std::uint32_t>(ttl), 0);
}

void GnutellaNetwork::search_tagged(PeerIndex origin, std::uint64_t name_hash, std::size_t ttl,
                                    std::uint64_t tag) {
  const std::uint32_t qs = allocate_query(origin, name_hash);
  Query& q = queries_[qs];
  q.tag = tag;
  q.tagged = true;
  const PeerSlot o = static_cast<PeerSlot>(origin);
  deliver(qs, q.gen, o, gen_[o], static_cast<std::uint32_t>(ttl), 0);
}

void GnutellaNetwork::deliver(std::uint32_t qs, std::uint32_t q_gen, PeerSlot at,
                              std::uint32_t at_gen, std::uint32_t ttl, std::uint32_t hops) {
  Query& q = queries_[qs];
  if (q.gen != q_gen) return;  // query finished; late flood message
  --q.in_flight;

  // A dead (or recycled) peer swallows the message: it still drains the
  // flood but neither answers nor forwards.
  if (gen_[at] == at_gen && live_[at] != 0) {
    const bool first_visit = q.visited.insert(at);
    if (first_visit && !q.result.found &&
        std::binary_search(objects_[at].begin(), objects_[at].end(), q.name_hash)) {
      // First hit: the response travels back to the origin; record the
      // latency including that reply leg.
      q.result.found = true;
      q.result.holder = at;
      q.result.hops = hops;
      q.result.latency = (engine_.now() - q.started) + link_latency(at, q.origin);
    }

    if (first_visit && ttl > 0) {
      for (PeerSlot nb : neighbors_[at]) {
        if (q.visited.contains(nb)) continue;  // cheap suppression of known dupes
        ++q.result.messages;
        ++q.in_flight;
        const double lat = link_latency(at, nb);
        const std::uint32_t nb_gen = gen_[nb];
        engine_.schedule_in(lat, [this, qs, q_gen, nb, nb_gen, ttl, hops] {
          deliver(qs, q_gen, nb, nb_gen, ttl - 1, hops + 1);
        });
      }
    }
  }
  finish_if_drained(qs);
}

void GnutellaNetwork::finish_if_drained(std::uint32_t qs) {
  Query& q = queries_[qs];
  if (q.in_flight > 0) return;
  const SearchResult result = q.result;
  const bool tagged = q.tagged;
  const std::uint64_t tag = q.tag;
  SearchFn done;
  if (!tagged) done = std::move(q.done);

  // Release the slot *before* dispatch: the continuation may start new
  // searches that reuse it. The visit table keeps its allocation.
  ++q.gen;
  q.done = nullptr;
  q.visited.clear();
  q.next_free = query_free_;
  query_free_ = qs;
  --queries_live_;

  if (tagged) {
    if (handler_ != nullptr) handler_(handler_user_, tag, result);
  } else {
    done(result);
  }
}

// --- digest -------------------------------------------------------------

std::uint64_t GnutellaNetwork::state_digest() const {
  core::StateHash h;
  h.mix(std::uint64_t{live_count_});
  for (std::size_t s = 0; s < node_.size(); ++s) {
    if (live_[s] == 0) continue;
    h.mix(static_cast<std::uint64_t>(s));
    h.mix(std::uint64_t{node_[s]});
    h.mix(static_cast<std::uint64_t>(neighbors_[s].size()));
    for (PeerSlot nb : neighbors_[s]) h.mix(std::uint64_t{nb});
    for (std::uint64_t obj : objects_[s]) h.mix(obj);
  }
  return h.value();
}

}  // namespace lsds::p2p
