// Conservative parallel simulation engine.
//
// The paper's execution axis splits simulators into *centralized* (one
// computing unit, even on multi-core hosts) and *distributed* (multiple
// processing units), observing that "a pure serial simulation execution …
// can not be a reality" and that "modern simulators make use of at least the
// threading mechanisms provided by the underlying operating system" — while
// fully distributed simulation "has not significantly impressed the general
// simulation community" (Fujimoto 1993) because it is hard to get right.
//
// ParallelEngine is the threaded middle ground: the model is partitioned
// into logical processes (LPs), each owning a private core::Engine.
// Synchronization is conservative, in rounds, with a horizon per LP
// computed from a declared channel graph (Chandy-Misra-Bryant lower-bound
// reasoning, Misra 1986, run barrier-synchronously instead of with null
// messages):
//
//   connect(src, dst, d) declares that LP src may send to LP dst, never
//   earlier than its clock plus d. With no connect() call the graph is
//   complete, every pair at Config::lookahead.
//   D[j][i] = the shortest declared-delay path from j to i, computed once
//   per run_until(); D[i][i] is the shortest cycle back to i (+inf if none).
//   Each round:
//   1. LP i's horizon is H_i = min over j of (next_j + D[j][i]), capped at
//      t_end, where next_j is LP j's earliest pending event: nothing can
//      reach i earlier, even through a third LP that is idle now and will
//      only forward a message in a later round;
//   2. every LP with an event before its horizon drains up to it;
//   3. barrier;
//   4. cross-LP messages are injected into destination queues in a
//      deterministic merge order.
//   An LP nothing can reach (T0 of a tier model, which only sends) drains
//   to t_end in its first round. With a complete graph at uniform delay L,
//   the LP holding the earliest event runs to min(second-earliest + L,
//   own + 2L), every other LP to earliest + L.
//
// A send earlier than the sender's clock plus the channel's delay breaks the
// contract that every horizon rests on: it is clamped to that bound and
// counted (Stats::lookahead_violations). Once any channel is declared, a
// send on an undeclared pair throws std::logic_error, in every build type.
//
// The thread that calls run_until() executes LPs itself. With one thread,
// or when only one LP has work in the round, it runs the busy LPs inline in
// ascending index with no synchronization at all. Otherwise the
// num_threads - 1 helper threads started by the constructor join it: the
// caller publishes the round as an epoch-stamped ticket, the helpers wake
// on it (std::atomic wait/notify after a short spin), every participant
// claims busy LPs from the ticket, and the caller waits at an atomic
// completion countdown. A round allocates nothing. Each LP caches its next
// event time (read off the event run_window() stops at, lowered on inbox
// delivery), so the horizons cost one pass over cached values and D instead
// of a queue minimum search per LP.
//
// Every LP hosts a full core::Engine, and an LP's share of a round is one
// call of its Engine::run_window(), the one drain loop of the event kernel.
// Budgets, past-time clamps, cancellation and the whole entity/process
// model layer — CpuResource, StorageDevice, coroutine processes — therefore
// behave inside a partition exactly as on the sequential engine. Models
// either schedule through the Lp (schedule_at/send/rng, the PHOLD-style
// usage) or take the Lp's engine(), which is what hosts::ParallelGrid builds
// on to partition Sites across LPs.
//
// Determinism: cross-LP messages are sorted by (time, src_lp, src_seq)
// before injection, so for a fixed seed the result is independent of thread
// scheduling and of the order in which LPs run inside a round. Tests assert
// equality against a sequential reference run
// (tests/core_parallel_fuzz_test.cpp checks it on random channel graphs).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/event.hpp"
#include "core/event_queue.hpp"
#include "core/rng.hpp"
#include "core/sim_time.hpp"

namespace lsds::core {

class ParallelEngine {
 public:
  struct Config {
    unsigned num_lps = 4;      // >= 1
    unsigned num_threads = 2;  // caller + helpers; 0 counts as 1
    /// Delay of every channel of the default complete graph (> 0); unused
    /// once connect() declares the channels.
    double lookahead = 1.0;
    QueueKind queue = QueueKind::kBinaryHeap;
    std::uint64_t seed = 42;  // per-LP engine and Lp::rng() seeds derive from it
    /// Per-LP event budget, the parallel twin of Engine::Config::max_events:
    /// when > 0, an LP that executes this many events throws
    /// EventBudgetExceeded, which run_until() rethrows on the caller thread
    /// after the round's barrier (lowest LP index wins when several trip in
    /// one round). The engine is not resumable afterwards — this is a
    /// watchdog against zero-delay loops, not a pause mechanism.
    std::uint64_t max_events = 0;
  };

  /// Throws std::invalid_argument when num_lps is 0 or lookahead is not
  /// > 0 (zero and NaN included): such rounds would never advance.
  explicit ParallelEngine(Config cfg);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// One logical process: a private engine (clock, pending set, named RNG
  /// streams, entity registry) plus the cross-LP send path.
  class Lp {
   public:
    unsigned index() const { return index_; }
    SimTime now() const { return engine_.now(); }

    /// Schedule a local event (same LP). `t` below the clock is clamped to
    /// the clock and counted (ParallelEngine::Stats::past_clamped).
    void schedule_at(SimTime t, EventFn fn);
    void schedule_in(SimTime dt, EventFn fn) { schedule_at(now() + dt, std::move(fn)); }

    /// Send an event to another LP. The delivery time must respect the
    /// channel: t >= now() + its delay. Violations are clamped to that bound
    /// and counted (ParallelEngine::Stats::lookahead_violations). Throws
    /// std::out_of_range when dst_lp >= num_lps(), and std::logic_error when
    /// channels are declared and (index(), dst_lp) is not one of them.
    void send(unsigned dst_lp, SimTime t, EventFn fn);

    /// Per-LP deterministic stream.
    RngStream& rng() { return rng_; }

    /// The LP's engine, for models built on the entity/process layer.
    Engine& engine() { return engine_; }

    std::uint64_t events_executed() const { return engine_.stats().executed; }

   private:
    friend class ParallelEngine;
    Lp(ParallelEngine& parent, unsigned index, const Config& cfg, std::uint64_t seed);

    ParallelEngine& parent_;
    unsigned index_;
    Engine engine_;
    const double* delays_;     // this LP's row of the declared delays
    EventId next_seq_ = 1;     // src_seq of cross-LP sends
    SimTime next_ = kInfTime;  // cached next event time; kInfTime when drained
    // This round's bound, written by the caller before the LP runs: events
    // below horizon_ run (at it too when closed_).
    SimTime horizon_ = 0;
    bool closed_ = false;
    RngStream rng_;
  };

  Lp& lp(unsigned i) { return *lps_[i]; }
  unsigned num_lps() const { return static_cast<unsigned>(lps_.size()); }

  /// Declare the channel src -> dst: LP src sends to LP dst no earlier than
  /// its clock plus `min_delay`. The first call replaces the default
  /// complete graph; a repeated pair keeps the smaller delay. Call before or
  /// between run_until() calls, not from an event. Throws std::out_of_range
  /// for an LP index >= num_lps(), std::invalid_argument when src == dst or
  /// min_delay is not > 0.
  void connect(unsigned src, unsigned dst, double min_delay);
  /// True once connect() has been called.
  bool channels_declared() const { return declared_; }

  struct Stats {
    /// Rounds: each runs every busy LP to its horizon, then merges inboxes.
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    std::uint64_t cross_messages = 0;
    std::uint64_t lookahead_violations = 0;
    /// Local schedules (through the Lp or its engine) whose timestamp was
    /// below the LP clock and got clamped, summed over the LP engines — the
    /// local analogue of lookahead_violations. A correct model schedules
    /// into its own future; tests assert this stays 0.
    std::uint64_t past_clamped = 0;
    /// Rounds the caller thread ran alone, with no hand-off to helpers:
    /// every round when num_threads == 1, else those with one busy LP.
    std::uint64_t inline_windows = 0;
    /// Wall-clock seconds the caller waited at the barrier for helpers,
    /// summed over handed-off rounds only (inline rounds read no clock).
    double barrier_wait_s = 0;
    /// Events executed by each LP — the load-balance profile. Rolled up
    /// into a stats summary by the model layer (hosts::ParallelGrid).
    std::vector<std::uint64_t> per_lp_events;
  };

  /// Run rounds until no LP has pending work at or before t_end. An LP's
  /// clock ends at its last horizon, never past t_end; with t_end =
  /// kInfTime an LP that drains keeps the time of its last event.
  Stats run_until(SimTime t_end);

  /// Index of the LP whose round the calling thread is running; -1
  /// outside every LP's round. An observer that LP threads publish to
  /// (obs::Observability) keys its partial results by it and folds them
  /// in LP order, so its totals do not depend on thread scheduling.
  static int running_lp() { return tl_running_lp_; }

 private:
  struct CrossMessage {
    SimTime time;
    unsigned src_lp;
    EventId src_seq;
    EventFn fn;
  };

  void deliver_inboxes();
  /// D: all-pairs shortest declared-delay paths, cycles on the diagonal.
  void compute_paths();
  /// Set every LP's horizon for the round and collect the busy ones.
  void plan_round(SimTime t_end);
  Stats snapshot_stats();
  /// Run one busy LP to its horizon, parking any exception in errors_.
  void run_lp(Lp& lp);
  /// Hand the busy LPs to the helpers and claim alongside them until the
  /// completion countdown reaches zero.
  void dispatch_round();
  /// Claim and run busy LPs of the published ticket until none is left.
  /// Returns the last ticket value seen.
  std::uint64_t claim_lps();
  void helper_loop();
  /// Publish the stop ticket and join every helper.
  void stop_helpers();

  static inline thread_local int tl_running_lp_ = -1;

  Config cfg_;
  std::vector<std::unique_ptr<Lp>> lps_;
  std::vector<std::vector<CrossMessage>> inboxes_;  // per destination LP
  std::vector<std::mutex> inbox_mu_;
  // Channel graph, row-major [src * num_lps + dst]. delay_: declared
  // minimum delay, kInfTime where there is no channel. path_: D, the
  // shortest declared-delay paths; keep_: 1 for a single channel, slightly
  // below 1 for a multi-hop path, whose sum the model's own additions may
  // round below (see path_keep() in parallel.cpp).
  std::vector<double> delay_;  // sized once, before the LPs keep rows of it
  std::vector<double> path_;
  std::vector<double> keep_;
  std::vector<SimTime> bound_;  // per LP: plan_round()'s uncapped horizon
  bool declared_ = false;
  // Round state, written by the caller before the round runs.
  bool dispatched_ = false;  // helpers may run LPs: inbox pushes must lock
  std::vector<Lp*> busy_;    // LPs with work in the round, ascending index
  std::vector<std::exception_ptr> errors_;  // per LP, rethrown lowest first
  // Handed-off rounds: ticket_ = (epoch << 32) | busy LPs not yet claimed.
  // A claim is a CAS that decrements the low half, so every claim is taken
  // from the round open at that moment; done_ counts finished LPs.
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<unsigned> done_{0};
  std::atomic<bool> stopping_{false};
  std::uint64_t epoch_ = 0;  // caller-only
  int spin_rounds_ = 0;      // polls before a waiter blocks
  Stats stats_;
  std::atomic<std::uint64_t> la_violations_{0};  // incremented from LP threads
  std::vector<std::thread> helpers_;  // last: they use every member above
};

}  // namespace lsds::core
