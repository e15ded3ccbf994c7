// Engine observation probe: the instrumentation seam of the core engine.
//
// A probe sees every executed event plus wall-clock timings of the pending-
// set operations — the raw feed behind the observability layer's engine
// profiler (events/sec, queue-op latency) and metric sampling cadence.
// Queue timing may be sampled: a probe whose queue_stride() is N sees one
// push in every N pushes and one pop in every N pops, so its queue-op
// summaries describe a 1-in-N sample and their counts are sample counts.
// Exactly one probe may be attached per Engine (Engine::set_probe); when
// none is attached every hook site reduces to a single predictable branch
// on a null pointer, so an unobserved run pays nothing measurable and a
// probe can never perturb the event trace: it observes, it does not
// schedule.
//
// This is distinct from Engine::TraceHook, which the determinism test suite
// owns: tests can hold a (time, seq) trace hook on an *observed* engine and
// assert the trace matches an unobserved run's.
#pragma once

#include <cstdint>

#include "core/event.hpp"
#include "core/sim_time.hpp"

namespace lsds::core {

class EngineProbe {
 public:
  virtual ~EngineProbe() = default;

  /// Before each executed event's handler runs, with the engine clock
  /// already advanced to the event time.
  virtual void on_event(SimTime t, EventId seq) = 0;

  /// Wall-clock nanoseconds of one pending-set push; `pending` is the set
  /// size after the push.
  virtual void on_queue_push(std::uint64_t ns, std::size_t pending) = 0;

  /// Wall-clock nanoseconds of one pending-set pop.
  virtual void on_queue_pop(std::uint64_t ns) = 0;

  /// Queue-timing stride, a power of two read once by Engine::set_probe:
  /// the engine times (and reports) only every stride-th push and every
  /// stride-th pop, counted separately from the attach. The default of 1
  /// times every operation.
  virtual std::uint32_t queue_stride() const { return 1; }
};

}  // namespace lsds::core
