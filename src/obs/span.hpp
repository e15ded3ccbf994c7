// Span records and the process-wide span bus.
//
// A *span* is one completed unit of substrate work with wall-in-sim-time
// extent: a network flow (net/flow), a CPU job attempt (hosts/cpu), or a
// scheduler dispatch (middleware/scheduler, middleware/recovery). The
// substrates publish spans to a single process-wide SpanBus; the
// observability layer (obs/observability.hpp) subscribes a structured trace
// sink and metric counters to it — the MonALISA-style "instrument the
// engine, analyze outside" split of the MONARC line of simulators.
//
// This header is deliberately dependency-free and header-only so that the
// substrate libraries can publish without linking against lsds_obs (the obs
// library depends on *them*). Design constraints:
//
//   * Disabled must be free: publishers guard with `if (bus->enabled())`
//     — a single relaxed atomic load — before even materializing the Span.
//     Nothing is compiled out; the differential-determinism and bench
//     acceptance gates hold because observation never schedules events.
//   * Subscription is quiescent-state only: subscribe/reset before the run
//     starts or after it drains, never concurrently with publishers. The
//     subscriber itself must be thread-safe (parallel LP threads publish
//     concurrently); obs::TraceSink serializes internally.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>

namespace lsds::obs {

struct Span {
  // kind and status point to string literals (static storage): subscribers
  // may key on the pointers.
  const char* kind = "";    // "flow" | "job" | "dispatch"
  const char* status = "";  // "done" | "aborted" | "killed" | "cancelled" | ...
  std::uint64_t id = 0;     // substrate-local id (FlowId, JobId, ...)
  double t0 = 0;            // simulated start time
  double t1 = 0;            // simulated end time
  double quantity = 0;      // bytes (flow) or ops (job/dispatch)
  std::uint32_t src = 0;    // node / resource index ("" semantics per kind)
  std::uint32_t dst = 0;
  const char* name = nullptr;  // resource name when available (borrowed;
                               // valid only for the duration of the call)
};

class SpanBus {
 public:
  using Fn = std::function<void(const Span&)>;

  /// Hot-path guard: true iff a subscriber is attached.
  bool enabled() const { return armed_.load(std::memory_order_relaxed); }

  /// Deliver a span to the subscriber (no-op when none).
  void publish(const Span& s) const {
    if (enabled()) fn_(s);
  }

  /// Install the subscriber. Call only while no simulation is running.
  void subscribe(Fn fn) {
    fn_ = std::move(fn);
    armed_.store(fn_ != nullptr, std::memory_order_release);
  }

  /// Detach the subscriber (quiescent state only).
  void reset() {
    armed_.store(false, std::memory_order_release);
    fn_ = nullptr;
  }

  /// The process-wide bus every substrate publishes to.
  static SpanBus& global() {
    static SpanBus bus;
    return bus;
  }

 private:
  std::atomic<bool> armed_{false};
  Fn fn_;
};

}  // namespace lsds::obs
