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
// Synchronization is conservative with fixed lookahead windows (a
// barrier-synchronous variant of the null-message idea of Misra 1986):
//
//   window k covers [T_k, T_k + L)  where L = lookahead
//   1. every LP with an event inside the window drains it;
//   2. barrier;
//   3. cross-LP messages (which must arrive >= one window later — that is
//      what lookahead means) are injected into destination queues in a
//      deterministic merge order;
//   4. T_{k+1} starts at the earliest pending event time (never earlier
//      than the end of window k) — sparse stretches of virtual time cost
//      no windows.
//
// The thread that calls run_until() executes LPs itself. With one thread,
// or when only one LP has work in the window, it runs the busy LPs inline in
// ascending index with no synchronization at all. Otherwise the
// num_threads - 1 helper threads started by the constructor join it: the
// caller publishes the window as an epoch-stamped ticket, the helpers wake
// on it (std::atomic wait/notify after a short spin), every participant
// claims busy LPs from the ticket, and the caller waits at an atomic
// completion countdown. A window allocates nothing. Each LP caches its next
// event time (read off the event run_window() stops at, lowered on inbox
// delivery), so choosing the next window and the busy LPs costs one pass
// over cached values instead of a queue minimum search per LP.
//
// Every LP hosts a full core::Engine, and a window is one call of its
// Engine::run_window(), the one drain loop of the event kernel. Budgets,
// past-time clamps, cancellation and the whole entity/process model layer —
// CpuResource, StorageDevice, coroutine processes — therefore behave inside
// a partition exactly as on the sequential engine. Models either schedule
// through the Lp (schedule_at/send/rng, the PHOLD-style usage) or take the
// Lp's engine(), which is what hosts::ParallelGrid builds on to partition
// Sites across LPs.
//
// Determinism: cross-window messages are sorted by (time, src_lp, src_seq)
// before injection, so for a fixed seed the result is independent of thread
// scheduling and of the order in which LPs run inside a window. Tests assert
// equality against a sequential reference run.
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
    double lookahead = 1.0;    // window length (> 0); cross-LP latency lower bound
    QueueKind queue = QueueKind::kBinaryHeap;
    std::uint64_t seed = 42;  // per-LP engine and Lp::rng() seeds derive from it
    /// Per-LP event budget, the parallel twin of Engine::Config::max_events:
    /// when > 0, an LP that executes this many events throws
    /// EventBudgetExceeded, which run_until() rethrows on the caller thread
    /// after the window barrier (lowest LP index wins when several trip in
    /// one window). The engine is not resumable afterwards — this is a
    /// watchdog against zero-delay loops, not a pause mechanism.
    std::uint64_t max_events = 0;
  };

  /// Throws std::invalid_argument when num_lps is 0 or lookahead is not
  /// > 0 (zero and NaN included): such a window loop would never advance.
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
    /// lookahead: t >= end of the current window. Violations are clamped
    /// and counted (ParallelEngine::Stats::lookahead_violations). Throws
    /// std::out_of_range when dst_lp >= num_lps().
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
    EventId next_seq_ = 1;     // src_seq of cross-LP sends
    SimTime next_ = kInfTime;  // cached next event time; kInfTime when drained
    RngStream rng_;
  };

  Lp& lp(unsigned i) { return *lps_[i]; }
  unsigned num_lps() const { return static_cast<unsigned>(lps_.size()); }
  double lookahead() const { return cfg_.lookahead; }

  struct Stats {
    std::uint64_t windows = 0;
    std::uint64_t events = 0;
    std::uint64_t cross_messages = 0;
    std::uint64_t lookahead_violations = 0;
    /// Local schedules (through the Lp or its engine) whose timestamp was
    /// below the LP clock and got clamped, summed over the LP engines — the
    /// local analogue of lookahead_violations. A correct model schedules
    /// into its own future; tests assert this stays 0.
    std::uint64_t past_clamped = 0;
    /// Windows the caller thread ran alone, with no hand-off to helpers:
    /// every window when num_threads == 1, else those with one busy LP.
    std::uint64_t inline_windows = 0;
    /// Wall-clock seconds the caller waited at the barrier for helpers,
    /// summed over handed-off windows only (inline windows read no clock).
    double barrier_wait_s = 0;
    /// Events executed by each LP — the load-balance profile. Rolled up
    /// into a stats summary by the model layer (hosts::ParallelGrid).
    std::vector<std::uint64_t> per_lp_events;
  };

  /// Run windows until no LP has pending work or the horizon is reached.
  Stats run_until(SimTime t_end);

  /// Index of the LP whose window the calling thread is running; -1
  /// outside every LP window. An observer that LP threads publish to
  /// (obs::Observability) keys its partial results by it and folds them
  /// in LP order, so its totals do not depend on thread scheduling.
  static int running_lp() { return tl_running_lp_; }

  SimTime now() const { return window_start_; }

 private:
  struct CrossMessage {
    SimTime time;
    unsigned src_lp;
    EventId src_seq;
    EventFn fn;
  };

  void deliver_inboxes();
  Stats snapshot_stats();
  /// Run one busy LP's window, parking any exception in errors_.
  void run_lp(Lp& lp);
  /// Hand the busy LPs to the helpers and claim alongside them until the
  /// completion countdown reaches zero.
  void dispatch_window();
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
  SimTime window_start_ = 0;
  SimTime window_end_ = 0;
  // Window state, written by the caller before the window runs.
  bool final_window_ = false;
  bool dispatched_ = false;  // helpers may run LPs: inbox pushes must lock
  std::vector<Lp*> busy_;    // LPs with work in the window, ascending index
  std::vector<std::exception_ptr> errors_;  // per LP, rethrown lowest first
  // Handed-off windows: ticket_ = (epoch << 32) | busy LPs not yet claimed.
  // A claim is a CAS that decrements the low half, so every claim is taken
  // from the window open at that moment; done_ counts finished LPs.
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
