// The discrete-event simulation engine.
//
// One Engine is one simulation experiment: a clock, a pending event set
// (pluggable structure, see core/event_queue.hpp), named deterministic RNG
// streams, and the registries behind the entity- and process-oriented
// modeling layers.
//
// Mechanics (taxonomy Section 3): this is an *event-driven* DES — the clock
// jumps from event to event. The time-driven mode the paper contrasts it
// with is provided by core/time_driven.hpp on top of the same engine, and
// trace-driven input by core/trace.hpp.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/event.hpp"
#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "core/sim_time.hpp"

namespace lsds::core {

class Entity;
class EngineProbe;

/// A process frame's place in its engine's registry (core/process.hpp): an
/// intrusive list node that lives in the coroutine promise, so adopting and
/// dropping a frame relinks two pointers and allocates nothing.
struct ProcessLink {
  ProcessLink* prev = nullptr;
  ProcessLink* next = nullptr;
  void* frame = nullptr;  // coroutine frame address, for destroy()
};

/// Thrown when Config::max_events is exhausted (model watchdog).
class EventBudgetExceeded : public std::runtime_error {
 public:
  explicit EventBudgetExceeded(std::uint64_t budget)
      : std::runtime_error("simulation exceeded its event budget of " +
                           std::to_string(budget) + " events") {}
};

class Engine {
 public:
  struct Config {
    QueueKind queue = QueueKind::kBinaryHeap;
    std::uint64_t seed = 42;
    /// When > 0, every scheduled timestamp is rounded *up* to a multiple of
    /// the quantum. This models the accuracy loss of time-driven simulation
    /// (experiment E2) without changing any model code.
    double time_quantum = 0;
    /// When > 0, run()/run_until() throw EventBudgetExceeded after this
    /// many executed events — a watchdog against accidental zero-delay
    /// loops in models (a misbehaving model otherwise spins forever at one
    /// simulated instant).
    std::uint64_t max_events = 0;
  };

  explicit Engine(Config cfg);
  Engine() : Engine(Config{}) {}
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- clock & scheduling ---------------------------------------------------

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now; past times are clamped to
  /// now and counted in stats().past_clamped).
  EventHandle schedule_at(SimTime t, EventFn fn);

  /// Schedule `fn` after a delay (>= 0).
  EventHandle schedule_in(SimTime dt, EventFn fn) { return schedule_at(now_ + dt, std::move(fn)); }

  /// Config::time_quantum. On a quantized clock events tie at every step
  /// and run in the order they were scheduled in.
  double time_quantum() const { return quantum_; }

  /// Two-phase scheduling, for a model that decides an event's place in the
  /// (time, seq) order now but queues it only if it turns out to be needed.
  /// reserve_at() fixes the key exactly as schedule_at() would (clamped,
  /// quantized, next sequence number) and queues nothing. The returned
  /// handle is NOT cancellable until schedule_reserved() has queued `fn`
  /// under it; an unqueued reservation is simply dropped. A reserved event
  /// runs at the same position among all other events as schedule_at()
  /// called at reservation time would have put it.
  EventHandle reserve_at(SimTime t);
  /// Queue `fn` under a key from reserve_at() (at most once per key, while
  /// key.time >= now()). The event carries the entity tag current at this
  /// call. Returns the now-cancellable handle.
  EventHandle schedule_reserved(const EventHandle& key, EventFn fn);

  /// O(1) cancellation: frees the event's slot at once and leaves its key
  /// queued, to be skipped when it surfaces. Returns false (and counts
  /// nothing) if the event already ran, is running, was already cancelled,
  /// or `h` is an unqueued reservation.
  bool cancel(const EventHandle& h);

  // --- execution --------------------------------------------------------

  /// Run until the pending set drains or stop() is called.
  void run();

  /// Run all events with time <= t_end, then advance the clock to t_end
  /// (run_window with a closed end). Returns the number of events executed.
  std::uint64_t run_until(SimTime t_end);

  /// Run all events with time strictly below `t_end` (<= when `inclusive`),
  /// then advance the clock to t_end. This is the drain primitive of the
  /// conservative parallel engine: window k covers [k*L, (k+1)*L), so events
  /// that land exactly on the boundary belong to the *next* window — except
  /// in the final window, which is closed. Returns the time of the earliest
  /// live event left pending (kInfTime when drained), which the drain loop
  /// reads off the first live event past the window at no extra cost. That
  /// event is not requeued: the engine holds it in a one-record slot in
  /// front of the queue, which the next drain serves first. A schedule with
  /// an earlier key puts it back into the queue.
  SimTime run_window(SimTime t_end, bool inclusive);

  /// Timestamp of the earliest live pending event, or kInfTime when
  /// drained. Cancelled keys at the front are discarded on the way (so
  /// tombstone_count() and pending() may drop), and the event found is
  /// held in front of the queue as run_window() holds the one it stops at.
  SimTime next_event_time();

  /// Execute exactly one event. Returns false when nothing is pending.
  bool step();

  /// Request termination; honored after the current event returns.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  /// Re-arm a stopped engine (e.g. between phases of one experiment).
  void clear_stop() { stopped_ = false; }

  // --- statistics -------------------------------------------------------

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t past_clamped = 0;
  };
  const Stats& stats() const { return stats_; }
  /// Queued keys, cancelled ones included, plus the held front event.
  std::size_t pending() const { return queue_->size() + (held_.seq != 0 ? 1 : 0); }
  /// Keys of cancelled events still queued (diagnostic; drains to 0 as
  /// they surface).
  std::size_t tombstone_count() const { return dead_keys_; }
  const char* queue_name() const { return queue_->name(); }

  // --- randomness ---------------------------------------------------------

  std::uint64_t seed() const { return seed_; }
  /// Named stream; created on first use, stable thereafter. The lookup is
  /// heterogeneous, so a string literal builds no temporary std::string.
  RngStream& rng(std::string_view name);

  // --- choice points (exhaustive exploration, src/mc/) ---------------------

  /// One event of a timestamp tie, as the choice hook sees it.
  struct TiedEvent {
    EventId id = 0;
    std::uint32_t tag = 0;  // entity tag, 0 while tags are off
    bool operator==(const TiedEvent&) const = default;
  };
  /// Strategy for ordering simultaneous events. When two or more pending
  /// events are tied at the minimum timestamp, step() surfaces their ids
  /// and tags (ascending seq — today's FIFO execution order) and executes
  /// the one at the returned index; the rest are requeued unchanged. With
  /// no hook set the engine runs its normal pop-min path; a hook returning
  /// 0 reproduces that order exactly. The hook only drives step() (and
  /// run(), which steps) — the windowed primitives never branch.
  using ChoiceFn = std::function<std::size_t(SimTime, const std::vector<TiedEvent>&)>;
  void set_choice_hook(ChoiceFn fn) { choice_hook_ = std::move(fn); }

  // --- event entity tags (exhaustive exploration, src/mc/) -----------------

  /// When enabled, every scheduled event carries a 32-bit entity tag:
  /// whatever current_tag() was at schedule time, kept in a per-slot array
  /// beside the event slab. While an event runs (from its probe's on_event
  /// on) current_tag() is the event's own tag, so causal chains inherit
  /// their origin's tag; model code marks per-entity roots with TagScope.
  /// Tag 0 means "untagged" and is treated as dependent on everything —
  /// tags are an *assumption* the sleep-set pruning of mc::Explorer relies
  /// on, so only tag chains that genuinely touch disjoint state. Off by
  /// default: an untagged run keeps no array.
  void enable_event_tags() {
    tags_enabled_ = true;
    tags_.resize(pages_.size() << kPageBits);
  }
  /// Tag of `h` while it is queued; 0 once it runs or is cancelled, for a
  /// reservation, and while tags are off.
  std::uint32_t event_tag(const EventHandle& h) const {
    return tags_enabled_ && queued(h) ? tags_[h.slot] : 0;
  }
  std::uint32_t current_tag() const { return exec_tag_; }
  void set_current_tag(std::uint32_t tag) { exec_tag_ = tag; }

  // --- observation probe ---------------------------------------------------

  /// Attach (or detach with nullptr) the observation probe (core/probe.hpp),
  /// the engine's one per-event seam. The probe must outlive the engine or
  /// be detached first. Reads the probe's queue_stride() (a power of two,
  /// or 0 for none) and restarts the push/pop sampling counts.
  void set_probe(EngineProbe* probe);
  EngineProbe* probe() const { return probe_; }

  // --- entity registry (core/entity.hpp) -----------------------------------

  std::uint32_t register_entity(Entity* e);
  void unregister_entity(std::uint32_t id);
  Entity* entity(std::uint32_t id) const;
  std::size_t entity_count() const;
  /// Deliver Entity::on_start to every registered entity at the current time.
  void start_entities();

  // --- coroutine registry (core/process.hpp) -------------------------------

  /// Link a just-created frame `h` through the `link` in its promise.
  void adopt_coroutine(ProcessLink& link, std::coroutine_handle<> h);
  /// Unlink a frame that is about to destroy itself.
  void drop_coroutine(ProcessLink& link);
  /// Frames alive plus start_at() starts not yet fired.
  std::size_t live_processes() const { return live_processes_; }
  /// start_at()'s count hand-off: a deferred start counts as live from the
  /// call (hold), and its start event gives the count back (release) just
  /// before it creates the frame, which adopt_coroutine() counts again.
  void hold_deferred_start() { ++live_processes_; }
  void release_deferred_start() { --live_processes_; }

 private:
  /// One slab slot: an event body and the seq of the event that owns it
  /// (0 while free or running). A queued key is live iff its seq matches.
  struct alignas(64) Slot {
    EventFn fn;
    EventId seq = 0;
  };
  static_assert(sizeof(Slot) == 64);
  /// Slots live in fixed pages that never move, so a body runs in place
  /// while the events it schedules grow the slab.
  static constexpr std::uint32_t kPageBits = 10;
  static constexpr std::uint32_t kPageMask = (1u << kPageBits) - 1;

  SimTime quantize(SimTime t) const;
  Slot& slot(std::uint32_t i) { return pages_[i >> kPageBits][i & kPageMask]; }
  /// The slot's stamp is the whole check: it matches only while the event
  /// is queued. It is 0 (or another event's seq) once the event runs, is
  /// cancelled or the slot is reused, and a reservation owns no slot.
  bool queued(const EventHandle& h) const {
    return h.valid() && h.slot < slot_count_ &&
           pages_[h.slot >> kPageBits][h.slot & kPageMask].seq == h.id;
  }
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t i);
  /// queue_->pop() / push(), wall-clock timed on every stride-th operation
  /// when a probe is attached.
  EventRecord pop_record();
  void queue_push(EventRecord rec);
  /// Queue a key. If it precedes the held front event, that event goes
  /// back into the queue first, so the held one is always the minimum.
  void push_record(EventRecord rec);
  /// Take the held front event, else pop keys until a live one surfaces,
  /// consuming dead keys on the way. Returns false when the queue drains
  /// first.
  bool pop_live(EventRecord& out);
  /// step() with the choice hook installed: collect the timestamp tie,
  /// let the strategy pick, requeue the rest.
  bool step_with_choice();
  /// Run the live event `ev` in place in its slot with probe/tag
  /// bookkeeping, then free the slot (shared by every drain path).
  void execute(const EventRecord& ev);

  std::vector<std::unique_ptr<Slot[]>> pages_;
  std::uint32_t slot_count_ = 0;     // slots handed out so far, across pages
  std::vector<std::uint32_t> free_;  // released slots, reused LIFO
  std::size_t dead_keys_ = 0;        // queued keys whose slot was cancelled
  std::unique_ptr<EventQueue> queue_;
  /// The front event that run_window() stopped at or next_event_time()
  /// peeked at, kept out of queue_ (seq 0 when empty). It precedes every
  /// queued key; it may have been cancelled since.
  EventRecord held_;
  SimTime now_ = 0;
  EventId next_seq_ = 1;  // 0 is the invalid handle id
  bool stopped_ = false;
  Stats stats_;
  std::uint64_t seed_;
  double quantum_;
  std::uint64_t max_events_;
  std::map<std::string, RngStream, std::less<>> streams_;
  ChoiceFn choice_hook_;
  bool tags_enabled_ = false;
  std::uint32_t exec_tag_ = 0;
  std::vector<std::uint32_t> tags_;  // slot -> entity tag, while tags are on
  std::vector<TiedEvent> tied_scratch_;  // choice-point tie list, reused
  EngineProbe* probe_ = nullptr;
  std::uint64_t queue_mask_ = 0;  // probe's queue_stride() - 1, all ones for 0
  std::uint64_t pushes_ = 0;      // pushes / pops since set_probe, for the stride
  std::uint64_t pops_ = 0;
  std::vector<Entity*> entities_;  // slot = id; nullptr after unregister
  ProcessLink* processes_ = nullptr;  // head of the live-frame list
  std::size_t live_processes_ = 0;    // linked frames + unfired start_at() starts
};

/// RAII entity-tag context: events scheduled within the scope carry `tag`
/// (see Engine::enable_event_tags). Model-build code wraps per-entity setup:
///
///   core::TagScope scope(eng, kCpu0Tag);
///   cpu0.submit(...);   // the completion chain inherits kCpu0Tag
class TagScope {
 public:
  TagScope(Engine& engine, std::uint32_t tag) : engine_(engine), prev_(engine.current_tag()) {
    engine_.set_current_tag(tag);
  }
  ~TagScope() { engine_.set_current_tag(prev_); }
  TagScope(const TagScope&) = delete;
  TagScope& operator=(const TagScope&) = delete;

 private:
  Engine& engine_;
  std::uint32_t prev_;
};

}  // namespace lsds::core
