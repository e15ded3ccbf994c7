// Chord distributed hash table over the network substrate.
//
// The taxonomy's scope axis includes "P2P networks", and the paper groups
// "Grid and/or P2P simulation instruments" as the family under study; this
// module makes the P2P scope a real code path. Chord (Stoica et al. 2001)
// is the canonical structured overlay: peers own 2^m-space arcs, lookups
// route greedily through finger tables in O(log n) hops.
//
// Simulation model: peers sit on topology nodes; protocol messages are
// latency-only (DHT control traffic is tiny next to link capacity), using
// the shortest-path latency between peer nodes. Lookups are *recursive*:
// forwarded hop by hop, answered directly to the origin. Finger tables are
// built from the global ring (the steady state a stabilization protocol
// converges to); joins and leaves rebuild affected state, so churn can be
// modeled at the fidelity these experiments need.
//
// Scale engineering (million-peer churn, experiment E16):
//   * the live ring is a bucketed sorted array of packed 12-byte entries
//     (p2p/ring_index.hpp), not a std::map — successor queries and churn
//     updates are O(1) expected and contiguous;
//   * per-peer protocol state is indexed by a 32-bit slot. What every hop
//     reads (id, node, generation, liveness, the cached successor id and
//     node, the finger count, the finger-scan bound) is one 32-byte Peer
//     record, so a hop loads one cache line per peer it looks at (its last
//     bytes hold the fix-fingers cursor, the successor-list length, the
//     count of pending fix-finger/join answers and a join-pending bit);
//     the successor refs, a flat m-wide finger slab, fixed-width successor
//     lists and predecessors stay in slabs of their own. Churned-out slots
//     are recycled through a free list; every stored reference (successor,
//     predecessor, successor list, fingers) and every in-flight message
//     carries the target's generation alongside the slot, so a reference
//     to a dead peer stays dead even after its slot is recycled —
//     references name peer *incarnations*, exactly like the append-only
//     indices they replace.
//     The successor's id and node are cached at store time because the
//     protocol reads them even when the successor has died (failure
//     detection runs on the next stabilize round, not at read time);
//   * the lookup hot path performs zero heap allocation: lookup state sits
//     in a recycled slot pool and every hop/answer event captures only
//     (slot, generation) integers, so the closures stay inside EventFn's
//     inline buffer and move through the event queue as memcpys. The
//     std::function callback API survives for tests and examples; bulk
//     drivers use the tagged handler path (set_lookup_handler +
//     lookup_tagged);
//   * the closest-preceding-finger scan starts at the key's distance d,
//     not at the top finger: a finger k lies 2^k or more away once k is at
//     or past the peer's loose_top bound, and from k = bit_width(d - 1) on
//     2^k >= d, so such a finger cannot precede the key. The scan skips
//     them without loading their records, and every step it takes is the
//     one a full scan takes;
//   * maintenance is event-driven (two tiny events per round per peer)
//     instead of one coroutine frame per peer — at 1M peers the per-frame
//     heap allocation alone would dominate. The event schedule reproduces
//     the coroutine version's timing draw for draw, so small-scenario
//     traces are unchanged. A peer whose death is announced runs each
//     round after its first as one event on a continuous clock: nothing
//     the begin step reads can change between a round's work and the next
//     begin, so work computes the next round's instant itself (see
//     maint_work);
//   * a hop writes no peer state, so a hop whose inputs cannot change
//     before it lands is resolved ("chased") inside the previous hop's
//     event, not in an event of its own. Each peer keeps lower bounds on
//     its announced death and its next maintenance event (an 8-byte Calm
//     record) and counts its pending fix-finger and join answers. Hop i+1
//     is chased when its target has no answer pending, its bounds and the
//     death of the finger it accepts all lie strictly after the hop's
//     arrival; otherwise it is an event, scheduled at the instant it
//     always had, as are direct hits and answers. Lookup results, messages
//     and overlay state are those of one event per hop; fewer events run,
//     so the trace differs, and answers that tie with other events at one
//     instant may run in another order among them. A peer without an
//     announced death (announce_death) is never chased to, and a quantized
//     clock chases nothing (see chase_).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "net/routing.hpp"
#include "p2p/ring_index.hpp"

namespace lsds::p2p {

using ChordId = std::uint64_t;
using PeerIndex = std::size_t;

class ChordNetwork {
 public:
  /// `m` is the identifier-space width in bits (ids live in [0, 2^m)).
  /// Throws std::invalid_argument unless 1 <= m <= 63.
  ChordNetwork(core::Engine& engine, net::RouteProvider& routing, std::uint32_t m = 32);

  /// Pre-size the per-peer slabs (bulk builds at 100k+ peers).
  void reserve(std::size_t peers);

  /// Add a peer attached to a topology node. Returns the peer's index
  /// (a recycled slot when churned-out peers exist).
  /// Call build() after the initial population (or after churn).
  PeerIndex add_peer(net::NodeId node);
  /// Remove a peer (churn). Lookups started before removal may fail.
  /// Throws std::invalid_argument on an out-of-range or dead peer, and
  /// std::logic_error before the peer's announced death (announce_death).
  void remove_peer(PeerIndex peer);
  /// (Re)build successors + finger tables from the current population.
  /// Throws std::logic_error while a hop resolved ahead of its event is
  /// still in flight (it read the state this would rewrite) and in
  /// protocol mode (maintenance has scheduled rounds from that state).
  void build();

  // --- protocol mode (self-maintaining overlay) ---------------------------
  //
  // Instead of the omniscient build(), run Chord's own maintenance:
  // periodic *stabilization* repairs successor/predecessor pointers after
  // churn and *fix-fingers* refreshes one finger per round via a real
  // lookup. With maintenance running, peers may crash (fail_peer) or join
  // (join_via) without any global rebuild; lookups degrade and then heal —
  // the behavior a churn study measures.

  /// Spawn maintenance on every live peer. Maintenance runs until the
  /// horizon (no events are scheduled past it, so Engine::run terminates).
  /// Throws std::invalid_argument on stabilize_period <= 0 or non-finite,
  /// or a horizon that is not finite or lies before now(), and
  /// std::logic_error when protocol mode is already on.
  void enable_protocol_mode(double stabilize_period, double horizon);
  /// Crash-stop a peer: no goodbye messages; neighbors discover the death
  /// through stabilization timeouts. Throws like remove_peer.
  void fail_peer(PeerIndex peer);
  /// Promise that `peer` dies no earlier than `at`, the time its death
  /// event is scheduled at (Engine::schedule_at's argument). Hops that
  /// land on the peer, or accept it as a finger, before then may be
  /// resolved ahead of their events; until then fail_peer and remove_peer
  /// on it throw std::logic_error. A later call replaces the promise; a
  /// peer that never had one is never resolved ahead. Throws
  /// std::invalid_argument on a dead or out-of-range peer, or an `at`
  /// that is not finite or lies before now().
  void announce_death(PeerIndex peer, double at);
  /// Protocol join: the newcomer finds its successor through `bootstrap`
  /// and is integrated by subsequent stabilization rounds. Throws
  /// std::invalid_argument on an out-of-range or dead bootstrap.
  PeerIndex join_via(net::NodeId node, PeerIndex bootstrap);

  std::uint64_t stabilize_rounds() const { return stabilize_rounds_; }

  std::size_t size() const { return live_count_; }
  ChordId id_of(PeerIndex peer) const { return peers_[peer].id; }
  net::NodeId node_of(PeerIndex peer) const { return peers_[peer].node; }
  bool is_live(PeerIndex peer) const { return peer < peers_.size() && peers_[peer].live != 0; }
  /// Generation counter of a slot; bumped when the peer dies, so stale
  /// references can detect slot reuse.
  std::uint32_t generation(PeerIndex peer) const { return peers_[peer].gen; }
  ChordId id_mask() const { return mask_; }
  /// Ground truth: the live peer whose arc contains `key`.
  PeerIndex responsible_peer(ChordId key) const;
  /// A live peer drawn via the ring (arc-length weighted; uniform enough
  /// for workload generation, O(1), deterministic given the stream).
  PeerIndex random_live_peer(core::RngStream& rng) const;
  /// Visit every live peer in ascending id order.
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    ring_.for_each([&](ChordId, RingIndex::Slot s) { fn(static_cast<PeerIndex>(s)); });
  }
  /// Hash helper for arbitrary keys.
  ChordId hash_key(const std::string& s) const;

  struct LookupResult {
    bool ok = false;
    PeerIndex home = 0;   // peer responsible for the key
    std::size_t hops = 0; // forwarding steps (0 = origin owned it)
    double latency = 0;   // simulated seconds until the origin learned it
  };
  using LookupFn = std::function<void(const LookupResult&)>;

  /// Asynchronous recursive lookup from `origin`. A dead origin fails the
  /// lookup at once; an out-of-range one throws std::invalid_argument.
  void lookup(PeerIndex origin, ChordId key, LookupFn done);

  // Allocation-free bulk path: results are delivered to the installed
  // handler with the caller's tag. One handler per network (the churn /
  // traffic drivers own it).
  using LookupHandler = void (*)(void* user, std::uint64_t tag, const LookupResult& result);
  void set_lookup_handler(LookupHandler handler, void* user) {
    handler_ = handler;
    handler_user_ = user;
  }
  /// Like lookup(), but the result goes to the lookup handler. No heap
  /// allocation on any path. Throws like lookup().
  void lookup_tagged(PeerIndex origin, ChordId key, std::uint64_t tag);

  // --- statistics -----------------------------------------------------------

  std::uint64_t messages_sent() const { return messages_; }
  /// Lookup hops resolved inside the previous hop's event rather than in
  /// an event of their own (0 unless deaths are announced and the clock
  /// is continuous).
  std::uint64_t hops_chased() const { return hops_chased_; }
  std::size_t finger_count(PeerIndex peer) const { return peers_[peer].finger_len; }
  /// Total slots ever allocated (bounded by peak live population, not by
  /// cumulative churn — the slot-reuse regression hook).
  std::size_t slot_count() const { return peers_.size(); }
  /// Lookup pool size (bounded by peak in-flight lookups).
  std::size_t lookup_pool_size() const { return pending_.size(); }
  std::size_t lookups_in_flight() const { return pending_live_; }

  /// FNV-1a digest of the live overlay (ids, successors, predecessors,
  /// fingers — folded by id, not slot) + message counters. Equal digests
  /// across event-queue kinds are the E16 determinism self-check.
  std::uint64_t state_digest() const;

 private:
  using PeerSlot = std::uint32_t;
  /// (generation << 32 | slot): names one peer *incarnation*. A ref to a
  /// dead incarnation never resurrects, even when the slot is recycled.
  using PeerRef = std::uint64_t;
  static constexpr PeerSlot kNilSlot = 0xffffffffu;
  static constexpr std::uint32_t kNilIdx = 0xffffffffu;
  static constexpr PeerRef kNilRef = ~PeerRef{0};
  static constexpr int kSuccListLen = 3;
  static constexpr float kInfF = std::numeric_limits<float>::infinity();

  /// A slot's hot state in one record, so that a hop, a finger test or a
  /// liveness check loads one cache line per peer: 32 bytes, aligned to 32,
  /// so no record straddles a line.
  struct alignas(32) Peer {
    ChordId id = 0;
    ChordId succ_id = 0;                         // successor's id at store time
    net::NodeId node = net::kInvalidNode;
    net::NodeId succ_node = net::kInvalidNode;   // successor's node at store time
    std::uint32_t gen = 0;
    std::uint8_t live : 1 = 0;
    std::uint8_t join_pending : 1 = 0;           // join answer not yet handled
    std::uint8_t loose_top : 6 = 0;              // see below
    std::uint8_t finger_len = 0;                 // 0 before build/join, m_ after
    std::uint8_t next_finger : 6 = 0;            // protocol mode: fix-fingers cursor
    std::uint8_t succ_len : 2 = 0;               // protocol mode: backup successors
    std::uint8_t answers = 0;                    // fix-finger/join answers pending
  };
  static_assert(sizeof(Peer) == 32, "one Peer is half a cache line");
  // Peer::loose_top: every finger k >= loose_top names an incarnation at
  // ring distance >= 2^k from the peer, so no key nearer than 2^k can
  // accept it. Only ever too high: build() and join_via() set it, a
  // fix-finger answer nearer than its start raises it, add_peer resets it.

  /// Lower bounds on the next instant a peer's hop-read state (its Peer
  /// record, successor ref and fingers) can change, per incarnation; its
  /// fix-finger and join answers (Peer::answers) are the one other writer.
  /// The bounds are floats rounded toward -inf, so they only ever err
  /// towards an event. A hop may be chased to a peer only if both lie
  /// strictly after its arrival (ties are events).
  struct Calm {
    float death = -kInfF;  // announced death; -inf: none announced
    float maint = kInfF;   // next maintenance event (begin or work)
  };
  /// Peer::answers stops counting here; that incarnation is then never
  /// chased to.
  static constexpr std::uint8_t kUncountedAnswers = 0xff;

  /// What a hop at one peer does: answer (its successor owns the key),
  /// a direct hit (it owns the key itself) or forward to `next`, where
  /// `finger` says whether `next` was accepted as a live finger rather
  /// than taken as the successor fallback, whose liveness is not read.
  struct Step {
    enum Kind : std::uint8_t { kAnswer, kDirectHit, kForward } kind = kAnswer;
    bool finger = false;
    net::NodeId next_node = net::kInvalidNode;
    PeerRef next = kNilRef;
  };

  static PeerRef make_ref(PeerSlot slot, std::uint32_t gen) {
    return (PeerRef{gen} << 32) | slot;
  }
  static PeerSlot ref_slot(PeerRef r) { return static_cast<PeerSlot>(r); }
  static std::uint32_t ref_gen(PeerRef r) { return static_cast<std::uint32_t>(r >> 32); }
  /// The current incarnation of a slot.
  PeerRef ref_of(PeerSlot slot) const { return make_ref(slot, peers_[slot].gen); }
  /// True iff the incarnation the ref names is still alive. kNilRef's slot
  /// is out of range, so nil is dead without a separate check.
  bool ref_alive(PeerRef r) const {
    const PeerSlot s = ref_slot(r);
    return s < peers_.size() && peers_[s].gen == ref_gen(r) && peers_[s].live != 0;
  }

  enum class LookupKind : std::uint8_t { kCallback, kTagged, kFixFinger, kJoin };

  /// One in-flight lookup. Hop events carry only (pool index, generation);
  /// everything else lives here, in a recycled slot. The origin's node is
  /// captured at start: the answer latency must use the origin incarnation
  /// that issued the lookup, not whatever occupies its slot later.
  struct Pending {
    ChordId key = 0;
    double started = 0;
    std::uint64_t tag = 0;
    LookupFn done;                  // kCallback only
    PeerRef origin_ref = kNilRef;
    net::NodeId origin_node = net::kInvalidNode;
    PeerSlot aux = kNilSlot;        // kFixFinger: the peer; kJoin: the newcomer
    std::uint32_t aux_gen = 0;
    std::uint32_t aux_k = 0;        // kFixFinger: finger index
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNilIdx;
    LookupKind kind = LookupKind::kCallback;
  };

  void check_origin(PeerIndex origin, const char* what) const;
  std::uint32_t allocate_pending();
  void start_lookup(std::uint32_t lk);
  /// One recursive-routing step at peer `at` (generation-checked), then
  /// every following step whose inputs cannot change before it lands.
  void hop(std::uint32_t lk, std::uint32_t lk_gen, PeerSlot at, std::uint32_t at_gen,
           std::uint32_t hops);
  /// The step a hop at live peer `at` takes for `key`; reads only.
  Step route_step(PeerSlot at, ChordId key) const;
  /// True iff the live incarnation `r` keeps its hop-read state through
  /// instant `t` inclusive.
  bool calm_through(PeerRef r, double t) const;
  /// A fix-finger or join lookup for live peer `aux` starts, or its
  /// answer arrives (or it fails): Peer::answers up or down.
  void expect_answer(PeerSlot aux);
  void settle_answer(PeerSlot aux);
  static float round_down(double t);
  /// Resolve + release the lookup slot, then dispatch by kind. `home` is
  /// the answering incarnation with its store-time id/node (it may already
  /// be dead — the seed semantics a join inherits).
  void finish(std::uint32_t lk, bool ok, PeerRef home, ChordId home_id,
              net::NodeId home_node, std::uint32_t hops);

  void retire_peer(PeerIndex peer, const char* what);
  void start_maintenance(PeerSlot self);
  void maint_begin(PeerSlot self, std::uint32_t gen);
  void maint_work(PeerSlot self, std::uint32_t gen);
  void stabilize(PeerSlot self);
  void fix_one_finger(PeerSlot self);
  void refresh_succ_list(PeerSlot self);
  /// Point `self` at a *live* successor (or itself), caching id + node.
  void set_successor(PeerSlot self, PeerRef succ);

  /// True iff x is in the half-open arc (a, b] on the ring.
  bool in_arc(ChordId x, ChordId a, ChordId b) const;
  /// Latency from live peer `from` to the incarnation `to` whose node was
  /// captured at store time (`to` may be dead; its node is immutable).
  double link_latency(PeerSlot from, PeerRef to, net::NodeId to_node);

  core::Engine& engine_;
  net::RouteProvider& routing_;
  core::RngStream& maint_rng_;  // "chord.maintenance", resolved once
  std::uint32_t m_;
  ChordId mask_;

  // Per-peer state; index = slot. The record every hop reads, then the
  // slabs only some paths read.
  std::vector<Peer> peers_;
  std::vector<PeerRef> succ_;
  std::vector<PeerRef> pred_;             // protocol mode
  std::vector<PeerRef> succ_list_;        // kSuccListLen per slot
  std::vector<PeerRef> finger_;           // m_ per slot; [k] ~ successor(id + 2^k)
  std::vector<Calm> calm_;                // per slot
  std::vector<PeerSlot> free_slots_;
  std::uint64_t added_ = 0;  // cumulative add counter: stable id derivation

  RingIndex ring_;  // live peers by id (ground truth)
  std::size_t live_count_ = 0;

  // Lookup pool (recycled slots, free-listed).
  std::vector<Pending> pending_;
  std::uint32_t pending_free_ = kNilIdx;
  std::size_t pending_live_ = 0;

  LookupHandler handler_ = nullptr;
  void* handler_user_ = nullptr;

  std::uint64_t messages_ = 0;
  std::uint64_t hops_chased_ = 0;
  double chased_until_ = -std::numeric_limits<double>::infinity();  // latest chased arrival
  std::uint64_t stabilize_rounds_ = 0;
  // Chase hops only on a continuous clock. On a quantized one, events at
  // one step run in the order they were scheduled in, and an answer
  // scheduled from a chased hop's event would move ahead of ties that the
  // event-per-hop run puts before it.
  const bool chase_;
  bool protocol_mode_ = false;
  double stabilize_period_ = 1.0;
  double horizon_ = 0;
};

}  // namespace lsds::p2p
