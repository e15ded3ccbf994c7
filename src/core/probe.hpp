// Engine observation probe: the one per-event seam of the core engine.
//
// A probe sees every executed event (clock at the event time and, with tags
// on, current_tag() the event's tag) and, if it asks, wall-clock timings of
// pending-set operations: the feed behind the observability layer's engine
// profiler and sampling cadence, and how tests, benches and mc::Explorer
// record a (time, seq) trace. Queue timing is sampled: a probe whose
// queue_stride() is N sees one push in every N pushes and one pop in every
// N pops, so its queue-op counts are sample counts; stride 0 times none, so
// a probe that watches only events reads no clock. Exactly one probe may be
// attached per Engine (Engine::set_probe); when none is, every hook site is
// a single predictable branch on a null pointer. A probe observes and never
// schedules, so it cannot perturb the event trace. To trace an engine that
// obs::Observability already observes, attach a probe that records each
// event and forwards all four calls, queue_stride() included, to it.
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
  virtual void on_queue_push(std::uint64_t /*ns*/, std::size_t /*pending*/) {}

  /// Wall-clock nanoseconds of one pending-set pop.
  virtual void on_queue_pop(std::uint64_t /*ns*/) {}

  /// Queue-timing stride, a power of two or 0, read once by
  /// Engine::set_probe: the engine times (and reports) only every
  /// stride-th push and every stride-th pop, counted separately from the
  /// attach, and none at all for 0. The default of 1 times every operation.
  virtual std::uint32_t queue_stride() const { return 1; }
};

}  // namespace lsds::core
