// Engine semantics: ordering, cancellation, run_until, stop, quantum,
// determinism across queue structures and across runs.
#include <gtest/gtest.h>
#include <algorithm>

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/entity.hpp"
#include "core/probe.hpp"
#include "event_probe.hpp"

namespace core = lsds::core;
using lsds::testutil::EventProbe;

TEST(Engine, StartsAtZero) {
  core::Engine eng;
  EXPECT_DOUBLE_EQ(eng.now(), 0.0);
  EXPECT_EQ(eng.pending(), 0u);
}

TEST(Engine, ExecutesInTimeOrder) {
  core::Engine eng;
  std::vector<int> order;
  eng.schedule_at(3.0, [&] { order.push_back(3); });
  eng.schedule_at(1.0, [&] { order.push_back(1); });
  eng.schedule_at(2.0, [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(Engine, SimultaneousEventsFifo) {
  core::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, NestedSchedulingFromCallbacks) {
  core::Engine eng;
  std::vector<double> times;
  eng.schedule_at(1.0, [&] {
    times.push_back(eng.now());
    eng.schedule_in(0.5, [&] { times.push_back(eng.now()); });
  });
  eng.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Engine, PastSchedulingClampsToNow) {
  core::Engine eng;
  double seen = -1;
  eng.schedule_at(10.0, [&] {
    eng.schedule_at(5.0, [&] { seen = eng.now(); });  // in the past
  });
  eng.run();
  EXPECT_DOUBLE_EQ(seen, 10.0);
  EXPECT_EQ(eng.stats().past_clamped, 1u);
}

TEST(Engine, CancelPreventsExecution) {
  core::Engine eng;
  bool ran = false;
  auto h = eng.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(eng.cancel(h));
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.stats().cancelled, 1u);
  EXPECT_EQ(eng.stats().executed, 0u);
}

TEST(Engine, CancelAfterFireReturnsFalseAndLeavesNoTombstone) {
  // Regression: cancelling an already-executed event returned true, inflated
  // stats().cancelled, and left a tombstone in the engine forever.
  core::Engine eng;
  bool ran = false;
  auto h = eng.schedule_at(1.0, [&] { ran = true; });
  eng.schedule_at(2.0, [] {});  // keep the clock moving past h
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(eng.cancel(h));
  EXPECT_EQ(eng.stats().cancelled, 0u);
  EXPECT_EQ(eng.tombstone_count(), 0u);
}

TEST(Engine, CancelAtCurrentTimeStillWorks) {
  // Only *strictly past* handles are rejected: an event scheduled at the
  // current instant but not yet popped must remain cancellable.
  core::Engine eng;
  bool ran = false;
  eng.schedule_at(1.0, [&] {
    auto h = eng.schedule_at(1.0, [&] { ran = true; });
    EXPECT_TRUE(eng.cancel(h));
  });
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.tombstone_count(), 0u);  // tombstone consumed at pop
}

TEST(Engine, NextEventTimeSkipsCancelledEvents) {
  // next_event_time() is the earliest *live* event: a cancelled key at the
  // front is discarded, not reported.
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng(core::Engine::Config{.queue = kind});
    std::vector<double> ran;
    const auto record = [&] { ran.push_back(eng.now()); };
    EXPECT_TRUE(eng.cancel(eng.schedule_at(1.0, record)));
    const auto second = eng.schedule_at(2.0, record);
    EXPECT_EQ(eng.tombstone_count(), 1u);
    EXPECT_DOUBLE_EQ(eng.next_event_time(), 2.0);
    EXPECT_EQ(eng.tombstone_count(), 0u);
    EXPECT_EQ(eng.pending(), 1u);

    // The peeked event stays cancellable, and an earlier schedule goes
    // in front of it.
    EXPECT_TRUE(eng.cancel(second));
    eng.schedule_at(3.0, record);
    eng.schedule_at(1.5, record);
    EXPECT_DOUBLE_EQ(eng.next_event_time(), 1.5);
    EXPECT_EQ(eng.tombstone_count(), 1u);  // `second`, now behind 1.5
    eng.run();
    EXPECT_EQ(ran, (std::vector<double>{1.5, 3.0}));
    EXPECT_EQ(eng.tombstone_count(), 0u);
    EXPECT_EQ(eng.next_event_time(), core::kInfTime);
    EXPECT_EQ(eng.pending(), 0u);
  }
}

TEST(Engine, CancelOfRunningEventReturnsFalse) {
  // Regression: an event cancelling itself while it runs was accepted,
  // counted, and left a dead key that no pop would ever consume.
  core::Engine eng;
  core::EventHandle self;
  bool cancelled = true;
  self = eng.schedule_at(1.0, [&] { cancelled = eng.cancel(self); });
  eng.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(eng.stats().executed, 1u);
  EXPECT_EQ(eng.stats().cancelled, 0u);
  EXPECT_EQ(eng.tombstone_count(), 0u);
}

TEST(Engine, CancelOfEventFiredAtCurrentInstantReturnsFalse) {
  // Same bug, one event later: the handle's time equals now(), but the
  // event has already run.
  core::Engine eng;
  const auto first = eng.schedule_at(1.0, [] {});
  bool cancelled = true;
  eng.schedule_at(1.0, [&] { cancelled = eng.cancel(first); });
  eng.run();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(eng.stats().executed, 2u);
  EXPECT_EQ(eng.stats().cancelled, 0u);
  EXPECT_EQ(eng.tombstone_count(), 0u);
}

TEST(Engine, UnqueuedReservationIsNotCancellable) {
  // Regression: cancelling a reserve_at() key before schedule_reserved()
  // returned true and then silently dropped the event queued under it.
  core::Engine eng;
  bool ran = false;
  const auto key = eng.reserve_at(1.0);
  EXPECT_FALSE(eng.cancel(key));
  eng.schedule_reserved(key, [&] { ran = true; });
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.stats().cancelled, 0u);
  EXPECT_EQ(eng.tombstone_count(), 0u);
}

TEST(Engine, ReservedEventRunsAtItsReservationPosition) {
  // A reservation takes its place in the (time, seq) order when it is made,
  // not when it is queued: here it runs before an event queued earlier for
  // the same instant, and it counts as scheduled only once queued.
  for (core::QueueKind kind : core::kAllQueueKinds) {
    core::Engine eng(core::Engine::Config{.queue = kind});
    std::vector<int> order;
    const core::EventHandle key = eng.reserve_at(2.0);
    const core::EventHandle dropped = eng.reserve_at(1.0);  // never queued
    eng.schedule_at(2.0, [&] { order.push_back(2); });
    eng.schedule_at(1.0, [&] {
      EXPECT_EQ(eng.stats().scheduled, 2u);
      const auto h = eng.schedule_reserved(key, [&] { order.push_back(1); });
      EXPECT_EQ(h.id, key.id);
      EXPECT_EQ(eng.stats().scheduled, 3u);
    });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2})) << core::to_string(kind);
    EXPECT_DOUBLE_EQ(dropped.time, 1.0);
    EXPECT_EQ(eng.stats().executed, 3u);
    EXPECT_EQ(eng.pending(), 0u);
  }
}

TEST(Engine, ReservedEventIsCancellableOnceQueued) {
  core::Engine eng;
  bool ran = false;
  const auto key = eng.reserve_at(1.0);
  const auto h = eng.schedule_reserved(key, [&] { ran = true; });
  EXPECT_TRUE(eng.cancel(h));
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.tombstone_count(), 0u);
}

TEST(Engine, ReservationClampsAndQuantizesLikeScheduleAt) {
  core::Engine eng(core::Engine::Config{.time_quantum = 0.5});
  eng.schedule_at(3.0, [] {});
  eng.run();
  EXPECT_DOUBLE_EQ(eng.reserve_at(1.0).time, 3.0);  // past: clamped to now
  EXPECT_EQ(eng.stats().past_clamped, 1u);
  EXPECT_DOUBLE_EQ(eng.reserve_at(3.2).time, 3.5);  // rounded up to the quantum
}

TEST(Engine, DoubleCancelReturnsFalse) {
  core::Engine eng;
  auto h = eng.schedule_at(1.0, [] {});
  EXPECT_TRUE(eng.cancel(h));
  EXPECT_FALSE(eng.cancel(h));
}

TEST(Engine, CancelInvalidHandle) {
  core::Engine eng;
  core::EventHandle h;  // invalid
  EXPECT_FALSE(eng.cancel(h));
}

TEST(Engine, CancelFromCallback) {
  core::Engine eng;
  bool ran = false;
  auto h = eng.schedule_at(2.0, [&] { ran = true; });
  eng.schedule_at(1.0, [&] { eng.cancel(h); });
  eng.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, RunUntilAdvancesClockToHorizon) {
  core::Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) eng.schedule_at(i, [&] { ++count; });
  const auto n = eng.run_until(5.0);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
  EXPECT_EQ(eng.pending(), 5u);
  eng.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, RunUntilIsInclusive) {
  core::Engine eng;
  int count = 0;
  eng.schedule_at(5.0, [&] { ++count; });
  eng.run_until(5.0);
  EXPECT_EQ(count, 1);
}

TEST(Engine, RunUntilHonoursStopTombstonesAndHorizonOnEveryQueue) {
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::Engine eng(core::Engine::Config{.queue = kind});
    std::vector<double> ran;
    const auto record = [&] { ran.push_back(eng.now()); };
    eng.schedule_at(1.0, record);
    eng.schedule_at(2.0, [&] {
      record();
      eng.stop();
    });
    eng.schedule_at(3.0, record);
    eng.schedule_at(4.0, record);

    // stop() mid-horizon: the count covers the stopping event, and the
    // clock stays there instead of jumping to t_end.
    EXPECT_EQ(eng.run_until(10.0), 2u);
    EXPECT_DOUBLE_EQ(eng.now(), 2.0);
    EXPECT_EQ(eng.pending(), 2u);
    eng.clear_stop();

    // A cancelled event exactly at t_end is consumed but not counted; the
    // first event past t_end stays pending.
    eng.cancel(eng.schedule_at(5.0, record));
    eng.schedule_at(5.5, record);
    EXPECT_EQ(eng.run_until(5.0), 2u);
    EXPECT_DOUBLE_EQ(eng.now(), 5.0);
    EXPECT_EQ(eng.tombstone_count(), 0u);
    EXPECT_EQ(eng.pending(), 1u);

    // The next call runs it.
    EXPECT_EQ(eng.run_until(6.0), 1u);
    EXPECT_DOUBLE_EQ(eng.now(), 6.0);
    EXPECT_EQ(ran, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.5}));
    EXPECT_EQ(eng.stats().executed, 5u);
    EXPECT_EQ(eng.stats().cancelled, 1u);
  }
}

TEST(Engine, StopHaltsRun) {
  core::Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.schedule_at(i, [&] {
      if (++count == 3) eng.stop();
    });
  }
  eng.run();
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(eng.stopped());
  eng.clear_stop();
  eng.run();
  EXPECT_EQ(count, 10);
}

TEST(Engine, StepExecutesExactlyOne) {
  core::Engine eng;
  int count = 0;
  eng.schedule_at(1.0, [&] { ++count; });
  eng.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(eng.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(eng.step());
}

TEST(Engine, TimeQuantumRoundsUp) {
  core::Engine::Config cfg;
  cfg.time_quantum = 0.5;
  core::Engine eng(cfg);
  std::vector<double> times;
  eng.schedule_at(0.1, [&] { times.push_back(eng.now()); });
  eng.schedule_at(0.6, [&] { times.push_back(eng.now()); });
  eng.schedule_at(1.0, [&] { times.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 0.5);
  EXPECT_DOUBLE_EQ(times[1], 1.0);
  EXPECT_DOUBLE_EQ(times[2], 1.0);
}

TEST(Engine, StatsAreConsistent) {
  core::Engine eng;
  for (int i = 0; i < 20; ++i) eng.schedule_at(i, [] {});
  auto h = eng.schedule_at(30.0, [] {});
  eng.cancel(h);
  eng.run();
  EXPECT_EQ(eng.stats().scheduled, 21u);
  EXPECT_EQ(eng.stats().executed, 20u);
  EXPECT_EQ(eng.stats().cancelled, 1u);
}

// --- determinism ----------------------------------------------------------

namespace {

// A stochastic cascade model: every event schedules 0-2 children with random
// delays. Returns the (time, seq) trace.
std::vector<std::pair<double, core::EventId>> run_cascade(core::QueueKind kind,
                                                          std::uint64_t seed) {
  std::vector<std::pair<double, core::EventId>> trace;
  EventProbe probe([&](double t, core::EventId id) { trace.emplace_back(t, id); });
  core::Engine eng({.queue = kind, .seed = seed});
  eng.set_probe(&probe);
  auto& rng = eng.rng("cascade");
  int budget = 2000;
  std::function<void()> node = [&] {
    if (--budget <= 0) return;
    const int kids = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < kids + 1; ++i) {
      eng.schedule_in(rng.exponential(1.0), node);
    }
  };
  for (int i = 0; i < 10; ++i) eng.schedule_at(0.0, node);
  eng.run_until(1e9);
  return trace;
}

}  // namespace

TEST(EngineDeterminism, SameSeedSameTrace) {
  const auto a = run_cascade(core::QueueKind::kBinaryHeap, 1);
  const auto b = run_cascade(core::QueueKind::kBinaryHeap, 1);
  EXPECT_EQ(a, b);
}

TEST(EngineDeterminism, DifferentSeedDifferentTrace) {
  const auto a = run_cascade(core::QueueKind::kBinaryHeap, 1);
  const auto b = run_cascade(core::QueueKind::kBinaryHeap, 2);
  EXPECT_NE(a, b);
}

class EngineQueueDeterminism : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(EngineQueueDeterminism, TraceIndependentOfQueueStructure) {
  // The pending-set implementation is an engine detail: the executed event
  // trace must be identical whichever structure is plugged in.
  const auto ref = run_cascade(core::QueueKind::kBinaryHeap, 99);
  const auto got = run_cascade(GetParam(), 99);
  EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(AllStructures, EngineQueueDeterminism,
                         ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

// --- slab slot reuse, fuzzed ----------------------------------------------

namespace {

using Trace = std::vector<std::pair<double, core::EventId>>;

// A seeded mix of schedule, cancel (of live, fired, running and stale
// handles, whose slot has often been handed to a newer event), reserve /
// schedule_reserved and windowed runs that requeue the first key past each
// window. Cancel must succeed exactly for queued events, so the bookkeeping
// below mirrors the engine's and checks every return value. Returns the
// executed (time, seq) trace.
Trace run_slot_fuzz(core::QueueKind kind, std::uint64_t seed) {
  enum class State : char { kQueued, kRunning, kRan, kCancelled, kReserved };
  Trace trace;
  std::vector<core::EventHandle> handles;  // every queued handle, in issue order
  std::vector<core::EventHandle> reserved;  // keys not queued yet
  std::unordered_map<core::EventId, State> state;
  std::unordered_map<std::uint32_t, core::EventId> slot_owner;  // slot -> queued event
  std::uint64_t cancels = 0, stale_slot_cancels = 0;
  int budget = 4000;
  EventProbe probe([&](double t, core::EventId id) {
    trace.emplace_back(t, id);
    EXPECT_EQ(state[id], State::kQueued) << "seq " << id << " ran but was not queued";
    state[id] = State::kRunning;
  });
  core::Engine eng({.queue = kind, .seed = seed});
  eng.set_probe(&probe);
  auto& rng = eng.rng("slot-fuzz");

  std::function<void()> body;
  const auto issue = [&](core::EventHandle h) {
    EXPECT_NE(h.slot, core::kNoSlot);
    state[h.id] = State::kQueued;
    slot_owner[h.slot] = h.id;
    handles.push_back(h);
  };
  const auto try_cancel = [&](const core::EventHandle& h) {
    // A stale handle whose slot now holds another queued event: the engine
    // must refuse it and leave the occupant to run (the final state check
    // catches an occupant that never ran).
    const auto it = slot_owner.find(h.slot);
    if (it != slot_owner.end() && it->second != h.id && state[it->second] == State::kQueued) {
      ++stale_slot_cancels;
    }
    const bool expect = state[h.id] == State::kQueued;
    const bool got = eng.cancel(h);
    EXPECT_EQ(got, expect) << "seq " << h.id << " slot " << h.slot;
    if (got) {
      ++cancels;
      state[h.id] = State::kCancelled;
      slot_owner.erase(h.slot);
    }
  };
  const auto act = [&] {
    const auto ops = rng.uniform_int(1, 5);
    for (std::int64_t op = 0; op < ops; ++op) {
      switch (rng.uniform_int(0, 7)) {
        case 0:
        case 1:
        case 6:
        case 7:  // schedule, sometimes at this very instant
          if (budget-- > 0) {
            const double dt = rng.uniform_int(0, 3) == 0 ? 0.0 : rng.exponential(1.0);
            issue(eng.schedule_in(dt, body));
          }
          break;
        case 2:  // cancel any handle ever issued: live, fired, cancelled or stale
          if (!handles.empty()) {
            try_cancel(handles[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(handles.size()) - 1))]);
          }
          break;
        case 3:  // cancel one of the newest handles, mostly still queued
          if (!handles.empty()) {
            const auto back = std::min<std::int64_t>(3, static_cast<std::int64_t>(handles.size()) - 1);
            try_cancel(handles[handles.size() - 1 - static_cast<std::size_t>(rng.uniform_int(0, back))]);
          }
          break;
        case 4:  // reserve a key; an unqueued reservation is not cancellable
          if (budget-- > 0) {
            const auto key = eng.reserve_at(eng.now() + rng.exponential(2.0));
            state[key.id] = State::kReserved;
            EXPECT_FALSE(eng.cancel(key));
            reserved.push_back(key);
          }
          break;
        case 5:  // queue a reservation, or drop it once its time has passed
          if (!reserved.empty()) {
            const core::EventHandle key = reserved.front();
            reserved.erase(reserved.begin());
            if (key.time >= eng.now()) issue(eng.schedule_reserved(key, body));
          }
          break;
      }
    }
  };
  body = [&] {
    const core::EventId self = trace.back().second;
    act();
    // The running event cannot cancel itself.
    for (const auto& h : handles) {
      if (h.id == self) {
        EXPECT_FALSE(eng.cancel(h));
        break;
      }
    }
    state[self] = State::kRan;
  };

  for (int i = 0; i < 16; ++i) act();
  double t = 0;
  while (eng.pending() > 0) {
    t += rng.uniform(0.05, 2.0);
    eng.run_window(t, rng.uniform_int(0, 1) == 1);
    act();
  }
  EXPECT_EQ(eng.tombstone_count(), 0u);
  EXPECT_EQ(eng.stats().cancelled, cancels);
  EXPECT_EQ(eng.stats().executed, trace.size());
  EXPECT_GT(cancels, 100u);
  EXPECT_GT(stale_slot_cancels, 10u);
  for (const auto& [id, st] : state) {
    EXPECT_TRUE(st == State::kRan || st == State::kCancelled || st == State::kReserved)
        << "seq " << id;
  }
  return trace;
}

}  // namespace

TEST(EngineSlab, SlotReuseFuzzAgreesAcrossQueueKinds) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Trace ref = run_slot_fuzz(core::QueueKind::kBinaryHeap, seed);
    EXPECT_GT(ref.size(), 1000u);
    for (core::QueueKind kind : core::kAllQueueKinds) {
      SCOPED_TRACE(core::to_string(kind));
      EXPECT_EQ(run_slot_fuzz(kind, seed), ref) << "seed " << seed;
    }
  }
}

// --- probe queue-timing stride ---------------------------------------------

namespace {

class CountingProbe final : public core::EngineProbe {
 public:
  explicit CountingProbe(std::uint32_t stride) : stride_(stride) {}
  void on_event(core::SimTime, core::EventId) override { ++events; }
  void on_queue_push(std::uint64_t, std::size_t) override { ++pushes; }
  void on_queue_pop(std::uint64_t) override { ++pops; }
  std::uint32_t queue_stride() const override { return stride_; }

  std::uint64_t events = 0;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;

 private:
  std::uint32_t stride_;
};

// The cascade model, observed, stopped at a horizon so that pushes and pops
// differ (events left pending). Returns the number of events left pending,
// the one held in front of the queue included.
std::size_t run_probed(core::QueueKind kind, core::EngineProbe& probe) {
  core::Engine eng({.queue = kind, .seed = 5});
  eng.set_probe(&probe);
  auto& rng = eng.rng("cascade");
  int budget = 3000;
  std::function<void()> node = [&] {
    if (--budget <= 0) return;
    const int kids = static_cast<int>(rng.uniform_int(0, 2));
    for (int i = 0; i < kids + 1; ++i) {
      auto h = eng.schedule_in(rng.exponential(1.0), node);
      if (rng.uniform_int(0, 9) == 0) eng.cancel(h);
    }
  };
  for (int i = 0; i < 10; ++i) eng.schedule_at(0.0, node);
  for (int step = 1; step <= 24; ++step) eng.run_until(0.25 * step);
  eng.set_probe(nullptr);
  return eng.pending();
}

}  // namespace

TEST(EngineProbe, QueueStrideSamplesPushesAndPopsSeparately) {
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    CountingProbe every(1);
    const std::size_t pending = run_probed(kind, every);
    ASSERT_GT(pending, 0u);
    // The event the last run_until stopped at was popped and is held, not
    // requeued.
    EXPECT_EQ(every.pushes - every.pops + 1, pending);
    ASSERT_GT(every.pops, 64u * 10);

    CountingProbe sampled(64);
    run_probed(kind, sampled);
    EXPECT_EQ(sampled.pushes, every.pushes / 64);
    EXPECT_EQ(sampled.pops, every.pops / 64);
  }
}

TEST(EngineProbe, StrideZeroSeesEveryEventAndNoQueueOperation) {
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    CountingProbe events_only(0);
    core::Engine eng({.queue = kind});
    eng.set_probe(&events_only);
    for (int i = 0; i < 100; ++i) {
      const auto h = eng.schedule_at(i % 7, [] {});
      if (i % 10 == 0) eng.cancel(h);
    }
    eng.run();
    EXPECT_EQ(eng.stats().executed, 90u);
    EXPECT_EQ(events_only.events, 90u);
    EXPECT_EQ(events_only.pushes, 0u);
    EXPECT_EQ(events_only.pops, 0u);
  }
}

TEST(EngineProbe, DefaultProbeSeesEveryQueueOperation) {
  struct DefaultProbe final : core::EngineProbe {
    void on_event(core::SimTime, core::EventId) override {}
    void on_queue_push(std::uint64_t, std::size_t) override { ++pushes; }
    void on_queue_pop(std::uint64_t) override { ++pops; }
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
  } probe;
  EXPECT_EQ(probe.queue_stride(), 1u);
  core::Engine eng;
  eng.set_probe(&probe);
  for (int i = 0; i < 100; ++i) eng.schedule_at(i, [] {});
  eng.run();
  EXPECT_EQ(probe.pushes, 100u);
  EXPECT_EQ(probe.pops, 100u);
}

// --- named RNG streams -----------------------------------------------------

TEST(EngineRng, StreamsAreIndependentByName) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 7});
  auto& a = eng.rng("arrivals");
  // Interleaving draws from another stream must not perturb "arrivals".
  core::Engine eng2({.queue = core::QueueKind::kBinaryHeap, .seed = 7});
  auto& a2 = eng2.rng("arrivals");
  auto& b2 = eng2.rng("sizes");
  for (int i = 0; i < 100; ++i) {
    const double x = a.uniform();
    b2.uniform();  // extra draws on an unrelated stream
    EXPECT_DOUBLE_EQ(x, a2.uniform());
  }
}

TEST(EngineRng, SameNameIsSameStream) {
  core::Engine eng;
  auto& a = eng.rng("s");
  auto& b = eng.rng("s");
  EXPECT_EQ(&a, &b);
}

// --- entities ----------------------------------------------------------

namespace {

class Echo final : public core::Entity {
 public:
  using core::Entity::Entity;
  std::vector<std::pair<double, int>> received;
  void on_message(core::Message& msg) override { received.emplace_back(engine_.now(), msg.kind); }
};

class PingPong final : public core::Entity {
 public:
  PingPong(core::Engine& eng, std::string name, int limit)
      : core::Entity(eng, std::move(name)), limit_(limit) {}
  core::EntityId peer = 0;
  int count = 0;
  void on_message(core::Message& msg) override {
    ++count;
    if (msg.u0 < static_cast<std::uint64_t>(limit_)) {
      core::Message next;
      next.kind = msg.kind;
      next.u0 = msg.u0 + 1;
      send(peer, next, 1.0);
    }
  }

 private:
  int limit_;
};

}  // namespace

TEST(Entity, SendDeliversWithDelay) {
  core::Engine eng;
  Echo a(eng, "a"), b(eng, "b");
  core::Message m;
  m.kind = 42;
  a.send(b, m, 2.5);
  eng.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_DOUBLE_EQ(b.received[0].first, 2.5);
  EXPECT_EQ(b.received[0].second, 42);
  EXPECT_TRUE(a.received.empty());
}

TEST(Entity, PingPongRoundTrips) {
  core::Engine eng;
  PingPong a(eng, "a", 10), b(eng, "b", 10);
  a.peer = b.id();
  b.peer = a.id();
  core::Message m;
  m.u0 = 0;
  b.send(a, m, 0);  // kick off: a receives u0=0
  eng.run();
  EXPECT_EQ(a.count + b.count, 11);  // u0 = 0..10 inclusive
  EXPECT_DOUBLE_EQ(eng.now(), 10.0);
}

TEST(Entity, SendToDestroyedEntityIsDropped) {
  core::Engine eng;
  Echo a(eng, "a");
  {
    Echo b(eng, "b");
    core::Message m;
    a.send(b, m, 1.0);
  }  // b destroyed before delivery
  eng.run();  // must not crash
  EXPECT_EQ(eng.stats().executed, 1u);
}

TEST(Entity, SelfMessageTimer) {
  core::Engine eng;
  Echo a(eng, "a");
  core::Message m;
  m.kind = 1;
  a.send_self(m, 3.0);
  eng.run();
  ASSERT_EQ(a.received.size(), 1u);
  EXPECT_DOUBLE_EQ(a.received[0].first, 3.0);
}

TEST(Entity, RegistryCountsLiveEntities) {
  core::Engine eng;
  auto a = std::make_unique<Echo>(eng, "a");
  auto b = std::make_unique<Echo>(eng, "b");
  EXPECT_EQ(eng.entity_count(), 2u);
  b.reset();
  EXPECT_EQ(eng.entity_count(), 1u);
}

// --- choice points (exhaustive exploration hook) ---------------------------

namespace {

// Schedule three events tied at t=1 plus a lone one at t=2; record the
// execution order of the tied batch by label.
std::string run_tied_batch(core::Engine& eng, std::string& order) {
  for (char c : {'a', 'b', 'c'}) {
    eng.schedule_at(1.0, [&order, c] { order.push_back(c); });
  }
  eng.schedule_at(2.0, [&order] { order.push_back('z'); });
  eng.run();
  return order;
}

}  // namespace

TEST(ChoiceHook, IndexZeroReproducesDefaultOrder) {
  std::string plain_order, hooked_order;
  std::vector<std::pair<double, core::EventId>> plain_trace, hooked_trace;
  EventProbe plain_probe([&](double t, core::EventId id) { plain_trace.emplace_back(t, id); });
  EventProbe hooked_probe([&](double t, core::EventId id) { hooked_trace.emplace_back(t, id); });
  core::Engine plain, hooked;
  plain.set_probe(&plain_probe);
  hooked.set_probe(&hooked_probe);
  hooked.set_choice_hook([](double, const std::vector<core::Engine::TiedEvent>&) { return 0u; });
  run_tied_batch(plain, plain_order);
  run_tied_batch(hooked, hooked_order);
  EXPECT_EQ(plain_order, "abcz");
  EXPECT_EQ(hooked_order, "abcz");
  EXPECT_EQ(plain_trace, hooked_trace);  // byte-identical (time, seq) schedule
}

TEST(ChoiceHook, SurfacesTiesAscendingAndReorders) {
  core::Engine eng;
  std::vector<std::vector<core::Engine::TiedEvent>> calls;
  eng.set_choice_hook([&](double, const std::vector<core::Engine::TiedEvent>& tied) {
    calls.push_back(tied);
    return tied.size() - 1;  // always run the newest tied event first
  });
  std::string order;
  run_tied_batch(eng, order);
  EXPECT_EQ(order, "cbaz");
  // Called once per multi-way tie: {a,b,c} then {a,b}; never for singletons.
  // Tags are off, so every tied event's tag reads 0.
  using Tied = core::Engine::TiedEvent;
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_EQ(calls[0], (std::vector<Tied>{{1, 0}, {2, 0}, {3, 0}}));
  EXPECT_EQ(calls[1], (std::vector<Tied>{{1, 0}, {2, 0}}));
}

TEST(ChoiceHook, RequeuedTiesKeepSeqAndStayCancellable) {
  core::Engine eng;
  std::string order;
  eng.set_choice_hook(
      [](double, const std::vector<core::Engine::TiedEvent>& tied) { return tied.size() - 1; });
  core::EventHandle a, b;
  a = eng.schedule_at(1.0, [&] { order.push_back('a'); });
  b = eng.schedule_at(1.0, [&] {
    order.push_back('b');
    eng.cancel(a);  // cancel a not-chosen, requeued tie
  });
  eng.run();
  EXPECT_EQ(order, "b");
}

TEST(EventTags, InheritanceAndScopes) {
  core::Engine eng;
  eng.enable_event_tags();
  core::EventHandle root, child, scoped;
  std::uint32_t running_tag = 0;
  {
    core::TagScope scope(eng, 7);
    root = eng.schedule_at(1.0, [&] {
      running_tag = eng.current_tag();
      EXPECT_EQ(eng.event_tag(root), 0u);  // a running event's tag is current_tag()
      // Events scheduled during execution inherit the executing tag.
      child = eng.schedule_at(2.0, [] {});
      {
        core::TagScope inner(eng, 9);
        scoped = eng.schedule_at(2.0, [] {});
      }
    });
  }
  EXPECT_EQ(eng.current_tag(), 0u);  // scope restored
  EXPECT_EQ(eng.event_tag(root), 7u);  // pending
  eng.step();
  EXPECT_EQ(running_tag, 7u);
  EXPECT_EQ(eng.current_tag(), 0u);
  EXPECT_EQ(eng.event_tag(root), 0u);  // ran
  EXPECT_EQ(eng.event_tag(child), 7u);
  EXPECT_EQ(eng.event_tag(scoped), 9u);
  ASSERT_TRUE(eng.cancel(scoped));
  EXPECT_EQ(eng.event_tag(scoped), 0u);  // cancelled
  eng.run();
  EXPECT_EQ(eng.event_tag(child), 0u);  // tags retire with their event
}

TEST(EventTags, OffByDefault) {
  core::Engine eng;
  core::TagScope scope(eng, 5);
  const auto h = eng.schedule_at(1.0, [] {});
  EXPECT_EQ(eng.event_tag(h), 0u);  // not recorded while disabled
}

TEST(EventTags, ReusedSlotCarriesItsOwnTag) {
  core::Engine eng;
  eng.enable_event_tags();
  core::EventHandle tagged;
  {
    core::TagScope scope(eng, 4);
    tagged = eng.schedule_at(1.0, [] {});
  }
  ASSERT_TRUE(eng.cancel(tagged));
  std::uint32_t seen = 99;
  const auto untagged = eng.schedule_at(1.0, [&] { seen = eng.current_tag(); });
  ASSERT_EQ(untagged.slot, tagged.slot);  // the freed slot is reused
  EXPECT_EQ(eng.event_tag(tagged), 0u);
  EXPECT_EQ(eng.event_tag(untagged), 0u);
  eng.run();
  EXPECT_EQ(seen, 0u);
}

TEST(EventTags, ChoiceHookSeesEachTiedEventsTag) {
  using Tied = core::Engine::TiedEvent;
  core::Engine eng;
  eng.enable_event_tags();
  std::vector<Tied> first_tie;
  eng.set_choice_hook([&](double, const std::vector<Tied>& tied) -> std::size_t {
    if (first_tie.empty()) first_tie = tied;
    return 0;
  });
  for (std::uint32_t tag : {3u, 0u, 5u}) {
    core::TagScope scope(eng, tag);
    eng.schedule_at(1.0, [] {});
  }
  eng.run();
  EXPECT_EQ(first_tie, (std::vector<Tied>{{1, 3}, {2, 0}, {3, 5}}));
}
