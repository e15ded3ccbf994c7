#include "p2p/chord.hpp"

#include <cassert>
#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/hash.hpp"
#include "core/rng.hpp"

namespace lsds::p2p {

ChordNetwork::ChordNetwork(core::Engine& engine, net::RouteProvider& routing, std::uint32_t m)
    : engine_(engine),
      routing_(routing),
      maint_rng_(engine.rng("chord.maintenance")),
      m_(m),
      ring_(m) {
  if (m_ < 1 || m_ > 63) {
    throw std::invalid_argument("ChordNetwork: m must be in [1, 63], got " + std::to_string(m_));
  }
  mask_ = (ChordId{1} << m_) - 1;
}

ChordId ChordNetwork::hash_key(const std::string& s) const { return core::fnv1a(s) & mask_; }

void ChordNetwork::reserve(std::size_t peers) {
  peers_.reserve(peers);
  succ_.reserve(peers);
  pred_.reserve(peers);
  succ_len_.reserve(peers);
  succ_list_.reserve(peers * kSuccListLen);
  finger_.reserve(peers * m_);
  next_finger_.reserve(peers);
}

PeerIndex ChordNetwork::add_peer(net::NodeId node) {
  // Peer id: hash of the cumulative add counter — uniform, deterministic,
  // and stable across runs (and across slot reuse: the counter never
  // repeats, so a recycled slot still gets a fresh id). Collisions are
  // resolved by probing (vanishingly rare for m >= 32). The counter is
  // formatted with to_chars: the same digits as printf's %zu, at a fraction
  // of the cost that dominated a bulk add.
  char buf[40] = "chord-peer-";
  constexpr std::size_t kPrefix = sizeof "chord-peer-" - 1;
  const char* end = std::to_chars(buf + kPrefix, buf + sizeof buf, added_).ptr;
  ++added_;
  ChordId id = core::fnv1a(std::string_view(buf, static_cast<std::size_t>(end - buf))) & mask_;
  while (ring_.contains(id)) id = (id + 1) & mask_;

  PeerSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    // New incarnation: refs minted against the dead interval (a lookup
    // issued from an already-dead peer, say) must not alias the newcomer.
    ++peers_[slot].gen;
  } else {
    slot = static_cast<PeerSlot>(peers_.size());
    peers_.emplace_back();
    succ_.push_back(kNilRef);
    pred_.push_back(kNilRef);
    succ_len_.push_back(0);
    succ_list_.resize(succ_list_.size() + kSuccListLen, kNilRef);
    finger_.resize(finger_.size() + m_, kNilRef);
    next_finger_.push_back(0);
  }
  Peer& p = peers_[slot];
  p.node = node;
  p.id = id;
  p.live = 1;
  p.succ_id = id;  // own successor until built/joined
  p.succ_node = node;
  p.finger_len = 0;
  succ_[slot] = make_ref(slot, p.gen);
  pred_[slot] = kNilRef;
  succ_len_[slot] = 0;
  next_finger_[slot] = 0;

  ring_.insert(id, slot);
  ++live_count_;
  return slot;
}

void ChordNetwork::retire_peer(PeerIndex peer, const char* what) {
  if (!is_live(peer)) {
    throw std::invalid_argument(std::string("ChordNetwork::") + what +
                                ": peer " + std::to_string(peer) + " is not live");
  }
  Peer& p = peers_[peer];
  p.live = 0;
  ++p.gen;  // in-flight messages and stored refs to this slot go stale
  ring_.erase(p.id);
  --live_count_;
  free_slots_.push_back(static_cast<PeerSlot>(peer));
}

void ChordNetwork::remove_peer(PeerIndex peer) { retire_peer(peer, "remove_peer"); }

void ChordNetwork::fail_peer(PeerIndex peer) {
  // Crash-stop: no state on other peers is touched; their stale refs
  // are exactly what stabilization must repair.
  retire_peer(peer, "fail_peer");
}

void ChordNetwork::set_successor(PeerSlot self, PeerRef succ) {
  const Peer& s = peers_[ref_slot(succ)];
  succ_[self] = succ;
  peers_[self].succ_id = s.id;
  peers_[self].succ_node = s.node;
}

void ChordNetwork::build() {
  assert(!ring_.empty());
  // Successor pointers + finger tables from the global ring view, in one
  // ascending pass. Finger k of a peer is the first peer at or past
  // id + 2^k. Unwrapped into two laps (the second lap's ids read 2^m
  // higher; m <= 63 keeps them inside 64 bits), the ring lets that target
  // only grow as the pass does, so each k keeps a cursor that moves
  // forward only. It stops short of the peer's own second-lap copy, which
  // lies past every target. Each peer's ref is read once, into the ring
  // copy, so the m finger stores per peer read only that copy.
  struct Member {
    ChordId id;
    PeerRef ref;
  };
  std::vector<Member> ring;
  ring.reserve(live_count_);
  ring_.for_each([&](ChordId id, RingIndex::Slot s) { ring.push_back({id, ref_of(s)}); });
  const std::size_t n = ring.size();
  const ChordId lap = ChordId{1} << m_;
  const auto unwrapped_id = [&](std::size_t j) { return j < n ? ring[j].id : ring[j - n].id + lap; };
  std::size_t cursor[63] = {};
  for (const Member& peer : ring) {
    const PeerSlot self = ref_slot(peer.ref);
    peers_[self].finger_len = static_cast<std::uint8_t>(m_);
    PeerRef* fingers = &finger_[std::size_t{self} * m_];
    for (std::uint32_t k = 0; k < m_; ++k) {
      const ChordId start = peer.id + (ChordId{1} << k);
      std::size_t& j = cursor[k];
      while (unwrapped_id(j) < start) ++j;
      fingers[k] = ring[j < n ? j : j - n].ref;
    }
    set_successor(self, fingers[0]);
  }
}

bool ChordNetwork::in_arc(ChordId x, ChordId a, ChordId b) const {
  // (a, b] on the ring; a == b means the full ring (single peer).
  if (a == b) return true;
  if (a < b) return x > a && x <= b;
  return x > a || x <= b;  // wrapped arc
}

PeerIndex ChordNetwork::responsible_peer(ChordId key) const {
  return ring_.successor(key).slot;
}

PeerIndex ChordNetwork::random_live_peer(core::RngStream& rng) const {
  assert(!ring_.empty());
  return ring_.successor(rng.next_u64() & mask_).slot;
}

ChordNetwork::PeerRef ChordNetwork::closest_preceding(PeerSlot from, ChordId key,
                                                      net::NodeId& node_out) const {
  const Peer& self = peers_[from];
  const ChordId from_id = self.id;
  const ChordId last = (key - 1) & mask_;
  const PeerRef* fingers = &finger_[std::size_t{from} * m_];
  // Low fingers often repeat one ref, and the verdict on a ref depends on
  // the ref alone: skip a repeat of the ref just rejected. The arc test
  // reads only the finger's id (a recycled slot's id belongs to its new
  // incarnation, but the liveness test below then rejects it anyway);
  // generation and liveness sit on the same line of the finger's record.
  PeerRef rejected = kNilRef;
  for (std::size_t k = self.finger_len; k-- > 0;) {
    const PeerRef f = fingers[k];
    if (f == rejected) continue;
    rejected = f;
    const PeerSlot s = ref_slot(f);
    assert(s < peers_.size());  // fingers in use are never nil
    const Peer& cand = peers_[s];
    // finger strictly inside (from_id, key): safe to jump.
    if (s != from && in_arc(cand.id, from_id, last) && cand.id != key &&
        cand.gen == ref_gen(f) && cand.live != 0) {
      node_out = cand.node;
      return f;
    }
  }
  node_out = self.succ_node;
  return succ_[from];
}

double ChordNetwork::link_latency(PeerSlot from, PeerRef to, net::NodeId to_node) {
  if (to == ref_of(from)) return 0;
  const double lat = routing_.path_latency(peers_[from].node, to_node);
  return std::isinf(lat) ? 0.001 : lat;  // +inf: unreachable
}

// --- lookup hot path ----------------------------------------------------
//
// Lookup state lives in a recycled Pending slot; the hop/answer events
// capture only (slot, generation) integers so they stay inside EventFn's
// inline buffer — no allocation per hop, no allocation per lookup on the
// tagged path (the std::function member of a recycled Pending keeps its
// capture buffer across reuse on the callback path).

std::uint32_t ChordNetwork::allocate_pending() {
  std::uint32_t lk;
  if (pending_free_ != kNilIdx) {
    lk = pending_free_;
    pending_free_ = pending_[lk].next_free;
  } else {
    lk = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  }
  ++pending_live_;
  return lk;
}

void ChordNetwork::check_origin(PeerIndex origin, const char* what) const {
  if (origin >= peers_.size()) {
    throw std::invalid_argument(std::string("ChordNetwork::") + what + ": origin " +
                                std::to_string(origin) + " is out of range");
  }
}

void ChordNetwork::lookup(PeerIndex origin, ChordId key, LookupFn done) {
  check_origin(origin, "lookup");
  const std::uint32_t lk = allocate_pending();
  Pending& p = pending_[lk];
  p.key = key;
  p.started = engine_.now();
  p.done = std::move(done);
  p.origin_ref = ref_of(static_cast<PeerSlot>(origin));
  p.origin_node = peers_[origin].node;
  p.kind = LookupKind::kCallback;
  start_lookup(lk);
}

void ChordNetwork::lookup_tagged(PeerIndex origin, ChordId key, std::uint64_t tag) {
  check_origin(origin, "lookup_tagged");
  const std::uint32_t lk = allocate_pending();
  Pending& p = pending_[lk];
  p.key = key;
  p.started = engine_.now();
  p.tag = tag;
  p.origin_ref = ref_of(static_cast<PeerSlot>(origin));
  p.origin_node = peers_[origin].node;
  p.kind = LookupKind::kTagged;
  start_lookup(lk);
}

void ChordNetwork::start_lookup(std::uint32_t lk) {
  const PeerRef o = pending_[lk].origin_ref;
  hop(lk, pending_[lk].gen, ref_slot(o), ref_gen(o), 0);
}

void ChordNetwork::hop(std::uint32_t lk, std::uint32_t lk_gen, PeerSlot at, std::uint32_t at_gen,
                       std::uint32_t hops) {
  if (pending_[lk].gen != lk_gen) return;  // lookup already resolved (stale event)
  const Peer& peer = peers_[at];
  if (peer.gen != at_gen || peer.live == 0) {
    // Hop target churned away mid-lookup.
    finish(lk, /*ok=*/false, kNilRef, 0, net::kInvalidNode, hops);
    return;
  }
  const ChordId key = pending_[lk].key;
  const ChordId at_id = peer.id;
  // Am I (exclusive) the predecessor of the key's owner? Owner = successor.
  // The stored successor id is read even when the successor has died: a
  // peer only learns of the death on its next stabilize round.
  if (in_arc(key, at_id, peer.succ_id)) {
    // Answer travels straight back to the origin.
    const double back = link_latency(at, pending_[lk].origin_ref, pending_[lk].origin_node);
    ++messages_;
    const PeerRef home = succ_[at];
    const ChordId home_id = peer.succ_id;
    const net::NodeId home_node = peer.succ_node;
    engine_.schedule_in(back, [this, lk, lk_gen, home, home_id, home_node, hops] {
      if (pending_[lk].gen != lk_gen) return;
      finish(lk, /*ok=*/true, home, home_id, home_node, hops);
    });
    return;
  }
  if (in_arc(key, (at_id + mask_) & mask_, at_id) || at_id == key) {
    // The key maps to this peer itself (rare direct hit).
    finish(lk, /*ok=*/true, ref_of(at), at_id, peer.node, hops);
    return;
  }
  net::NodeId next_node = net::kInvalidNode;
  const PeerRef next = closest_preceding(at, key, next_node);
  const double lat = link_latency(at, next, next_node);
  ++messages_;
  const PeerSlot next_slot = ref_slot(next);
  const std::uint32_t next_gen = ref_gen(next);
  engine_.schedule_in(lat, [this, lk, lk_gen, next_slot, next_gen, hops] {
    hop(lk, lk_gen, next_slot, next_gen, hops + 1);
  });
}

void ChordNetwork::finish(std::uint32_t lk, bool ok, PeerRef home, ChordId home_id,
                          net::NodeId home_node, std::uint32_t hops) {
  Pending& p = pending_[lk];
  LookupResult res;
  res.ok = ok;
  res.home = (home == kNilRef) ? 0 : ref_slot(home);
  res.hops = hops;
  res.latency = engine_.now() - p.started;

  const LookupKind kind = p.kind;
  const std::uint64_t tag = p.tag;
  const PeerSlot aux = p.aux;
  const std::uint32_t aux_gen = p.aux_gen;
  const std::uint32_t aux_k = p.aux_k;
  LookupFn done;
  if (kind == LookupKind::kCallback) done = std::move(p.done);

  // Release the slot *before* dispatch: the continuation may start new
  // lookups (fix-fingers chains, traffic generators) that reuse it.
  ++p.gen;
  p.done = nullptr;
  p.aux = kNilSlot;
  p.next_free = pending_free_;
  pending_free_ = lk;
  --pending_live_;

  switch (kind) {
    case LookupKind::kCallback:
      done(res);
      break;
    case LookupKind::kTagged:
      if (handler_ != nullptr) handler_(handler_user_, tag, res);
      break;
    case LookupKind::kFixFinger:
      // The answer names an incarnation; if it died in transit the stored
      // finger is stale-on-arrival and gets skipped, never resurrected.
      if (res.ok && ref_alive(make_ref(aux, aux_gen))) {
        finger_[std::size_t{aux} * m_ + aux_k] = home;
      }
      break;
    case LookupKind::kJoin:
      if (res.ok && ref_alive(make_ref(aux, aux_gen))) {
        // Adopt the answering incarnation with its store-time id/node even
        // if it already died: the next stabilize round detects and repairs.
        succ_[aux] = home;
        peers_[aux].succ_id = home_id;
        peers_[aux].succ_node = home_node;
        refresh_succ_list(aux);
      }
      break;
  }
}

// --- protocol mode -----------------------------------------------------

void ChordNetwork::enable_protocol_mode(double stabilize_period, double horizon) {
  if (!(stabilize_period > 0) || !std::isfinite(stabilize_period)) {
    throw std::invalid_argument("ChordNetwork::enable_protocol_mode: stabilize_period must be "
                                "positive and finite, got " + std::to_string(stabilize_period));
  }
  if (!std::isfinite(horizon)) {
    throw std::invalid_argument("ChordNetwork::enable_protocol_mode: horizon must be finite");
  }
  protocol_mode_ = true;
  stabilize_period_ = stabilize_period;
  horizon_ = horizon;
  // Seed predecessor pointers and successor lists from the current ring so
  // the protocol starts converged (churn will perturb them), and start each
  // peer's maintenance. One pass in ring order: no step reads what another
  // writes, and the maintenance draws and events keep the ring order.
  ring_.for_each([&](ChordId, RingIndex::Slot s) {
    refresh_succ_list(s);
    pred_[ref_slot(succ_[s])] = ref_of(s);
    start_maintenance(s);
  });
}

PeerIndex ChordNetwork::join_via(net::NodeId node, PeerIndex bootstrap) {
  // Checked before add_peer, which could recycle a dead bootstrap's slot
  // for the newcomer itself.
  if (!is_live(bootstrap)) {
    throw std::invalid_argument("ChordNetwork::join_via: bootstrap " + std::to_string(bootstrap) +
                                " is not live");
  }
  const PeerIndex newcomer = add_peer(node);
  const PeerSlot nc = static_cast<PeerSlot>(newcomer);
  const PeerRef boot = ref_of(static_cast<PeerSlot>(bootstrap));
  const Peer& boot_peer = peers_[bootstrap];
  Peer& nc_peer = peers_[nc];
  nc_peer.finger_len = static_cast<std::uint8_t>(m_);
  PeerRef* fingers = &finger_[std::size_t{nc} * m_];
  for (std::uint32_t k = 0; k < m_; ++k) fingers[k] = boot;
  succ_len_[nc] = 0;
  pred_[nc] = kNilRef;
  succ_[nc] = boot;  // provisional, replaced below
  nc_peer.succ_id = boot_peer.id;
  nc_peer.succ_node = boot_peer.node;
  ++messages_;
  // If the join lookup fails (or the newcomer dies first), the provisional
  // successor stands and the next stabilize round retries implicitly.
  const std::uint32_t lk = allocate_pending();
  Pending& p = pending_[lk];
  p.key = (nc_peer.id + 1) & mask_;
  p.started = engine_.now();
  p.origin_ref = boot;
  p.origin_node = boot_peer.node;
  p.kind = LookupKind::kJoin;
  p.aux = nc;
  p.aux_gen = nc_peer.gen;
  start_lookup(lk);
  if (protocol_mode_) start_maintenance(nc);
  return newcomer;
}

void ChordNetwork::refresh_succ_list(PeerSlot self) {
  // Backup successors: walk the *local view* successor chain.
  PeerRef* list = &succ_list_[std::size_t{self} * kSuccListLen];
  std::uint8_t len = 0;
  const PeerRef self_ref = ref_of(self);
  PeerRef cur = succ_[self];
  for (int i = 0; i < kSuccListLen; ++i) {
    if (cur == self_ref || !ref_alive(cur)) break;
    list[len++] = cur;
    cur = succ_[ref_slot(cur)];
  }
  succ_len_[self] = len;
}

void ChordNetwork::stabilize(PeerSlot self) {
  ++stabilize_rounds_;
  const PeerRef self_ref = ref_of(self);

  // 1. Successor failure detection: fall back through the successor list,
  //    then to the first live finger (last resort: self).
  if (!ref_alive(succ_[self]) || succ_[self] == self_ref) {
    PeerRef replacement = self_ref;
    const PeerRef* list = &succ_list_[std::size_t{self} * kSuccListLen];
    for (std::uint8_t i = 0; i < succ_len_[self]; ++i) {
      const PeerRef s = list[i];
      if (ref_alive(s) && s != self_ref) {
        replacement = s;
        break;
      }
    }
    if (replacement == self_ref) {
      const PeerRef* fingers = &finger_[std::size_t{self} * m_];
      for (std::uint8_t k = 0; k < peers_[self].finger_len; ++k) {
        const PeerRef f = fingers[k];
        if (ref_alive(f) && f != self_ref) {
          replacement = f;
          break;
        }
      }
    }
    set_successor(self, replacement);
  }
  if (succ_[self] == self_ref) return;  // isolated; nothing to stabilize against

  // 2. Classic stabilize: adopt successor's predecessor when it sits
  //    between us; then notify. The successor is live past step 1.
  const PeerSlot succ = ref_slot(succ_[self]);
  const PeerRef x = pred_[succ];
  const ChordId self_id = peers_[self].id;
  if (ref_alive(x) && x != self_ref &&
      in_arc(peers_[ref_slot(x)].id, self_id, (peers_[succ].id + mask_) & mask_)) {
    set_successor(self, x);
  }
  const PeerSlot new_succ = ref_slot(succ_[self]);
  const PeerRef cur_pred = pred_[new_succ];
  if (!ref_alive(cur_pred) ||
      in_arc(self_id, peers_[ref_slot(cur_pred)].id, (peers_[new_succ].id + mask_) & mask_)) {
    pred_[new_succ] = self_ref;
  }
  refresh_succ_list(self);
  messages_ += 2;  // predecessor query + notify
}

void ChordNetwork::fix_one_finger(PeerSlot self) {
  const std::uint32_t k = next_finger_[self];
  next_finger_[self] = (k + 1) % m_;
  const Peer& peer = peers_[self];
  const ChordId start = (peer.id + (ChordId{1} << k)) & mask_;
  const std::uint32_t lk = allocate_pending();
  Pending& p = pending_[lk];
  p.key = start;
  p.started = engine_.now();
  p.origin_ref = ref_of(self);
  p.origin_node = peer.node;
  p.kind = LookupKind::kFixFinger;
  p.aux = self;
  p.aux_gen = peer.gen;
  p.aux_k = k;
  start_lookup(lk);
}

// Maintenance is a two-event chain per round, not a coroutine: at 1M peers
// the per-frame allocation and liveness bookkeeping of a coroutine per peer
// dominate. The chain reproduces the coroutine's schedule exactly —
//   spawn: jitter ~ U(0, period)            -> begin
//   begin: now < horizon? wait successor RTT -> work
//   work:  stabilize + fix a finger; wait period -> begin
// — same rng draws, same event times, so small-scenario traces are
// byte-identical to the coroutine version.

void ChordNetwork::start_maintenance(PeerSlot self) {
  // Desynchronize rounds across peers.
  const double jitter = maint_rng_.uniform(0, stabilize_period_);
  const std::uint32_t gen = peers_[self].gen;
  engine_.schedule_in(jitter, [this, self, gen] { maint_begin(self, gen); });
}

void ChordNetwork::maint_begin(PeerSlot self, std::uint32_t gen) {
  if (!ref_alive(make_ref(self, gen))) return;  // peer churned away
  if (engine_.now() >= horizon_) return;        // maintenance horizon reached
  // One round costs a successor RTT; charged before the state update. A
  // dead successor still costs the full (timed-out) round trip.
  const double rtt = 2.0 * link_latency(self, succ_[self], peers_[self].succ_node);
  engine_.schedule_in(rtt, [this, self, gen] { maint_work(self, gen); });
}

void ChordNetwork::maint_work(PeerSlot self, std::uint32_t gen) {
  if (!ref_alive(make_ref(self, gen))) return;
  stabilize(self);
  fix_one_finger(self);
  engine_.schedule_in(stabilize_period_, [this, self, gen] { maint_begin(self, gen); });
}

// --- digest -------------------------------------------------------------

std::uint64_t ChordNetwork::state_digest() const {
  core::StateHash h;
  h.mix(std::uint64_t{live_count_});
  ring_.for_each([&](ChordId id, RingIndex::Slot s) {
    h.mix(id);
    h.mix(std::uint64_t{peers_[s].node});
    h.mix(peers_[s].succ_id);
    h.mix(ref_alive(pred_[s]) ? peers_[ref_slot(pred_[s])].id : ~std::uint64_t{0});
    const PeerRef* fingers = &finger_[std::size_t{s} * m_];
    for (std::uint8_t k = 0; k < peers_[s].finger_len; ++k) {
      h.mix(ref_alive(fingers[k]) ? peers_[ref_slot(fingers[k])].id : ~std::uint64_t{0});
    }
  });
  h.mix(messages_);
  h.mix(stabilize_rounds_);
  return h.value();
}

}  // namespace lsds::p2p
