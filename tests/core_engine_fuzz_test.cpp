// Reference-model fuzzer for core::Engine's scheduling contract.
//
// RefEngine below restates what engine.hpp documents as plainly as it can:
// an ordered set of queued (time, seq) keys, some of them tombstones of
// cancelled events, plus a map from seq to the live event's body and entity
// tag. A seeded random program drives a real Engine and a RefEngine side by
// side. Event handlers schedule, reserve (some keys are never queued),
// queue reservations, cancel live, already-run, stale and twice-cancelled
// handles, open TagScopes and stop the engine; the program between handlers
// drives run_until, run_window (open and closed), step, run and
// next_event_time, with heavy timestamp ties, time quanta and event
// budgets. After every top-level step the two must agree on everything
// they have shown: the executed (time, seq, current_tag()) trace, every
// handle, event_tag() and return value, the clock, the pending set and
// Stats. Under a probe, on_event must see that same trace, tags included,
// and a probe of stride 0 no queue operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/probe.hpp"

using namespace lsds;
using core::EventHandle;
using core::EventId;
using core::SimTime;

namespace {

class RefEngine {
 public:
  explicit RefEngine(const core::Engine::Config& cfg)
      : quantum_(cfg.time_quantum), max_events_(cfg.max_events) {}

  void enable_event_tags() { tags_on_ = true; }
  std::uint32_t current_tag() const { return tag_; }
  void set_current_tag(std::uint32_t tag) { tag_ = tag; }

  SimTime now() const { return now_; }

  EventHandle reserve_at(SimTime t) {
    if (t < now_) {
      ++stats_.past_clamped;
      t = now_;
    }
    if (quantum_ > 0) t = std::ceil(t / quantum_) * quantum_;
    return EventHandle{next_seq_++, t, core::kNoSlot};
  }

  EventHandle schedule_reserved(const EventHandle& key, std::function<void()> fn) {
    keys_.emplace(key.time, key.id);
    live_[key.id] = Body{std::move(fn), tags_on_ ? tag_ : 0};
    ++stats_.scheduled;
    return EventHandle{key.id, key.time, 0};
  }

  EventHandle schedule_at(SimTime t, std::function<void()> fn) {
    return schedule_reserved(reserve_at(t), std::move(fn));
  }
  EventHandle schedule_in(SimTime dt, std::function<void()> fn) {
    return schedule_at(now_ + dt, std::move(fn));
  }

  std::uint32_t event_tag(const EventHandle& h) const {
    const auto it = live_.find(h.id);
    return it == live_.end() ? 0 : it->second.tag;
  }

  /// Only a queued, not yet running event can be cancelled; its key stays
  /// queued as a tombstone until it reaches the front.
  bool cancel(const EventHandle& h) {
    if (live_.erase(h.id) == 0) return false;
    ++tombstones_;
    ++stats_.cancelled;
    return true;
  }

  bool step() {
    drop_front_tombstones();
    if (keys_.empty()) return false;
    const auto [t, seq] = *keys_.begin();
    keys_.erase(keys_.begin());
    auto it = live_.find(seq);
    Body body = std::move(it->second);
    live_.erase(it);  // a running event is no longer cancellable
    now_ = t;
    ++stats_.executed;
    if (tags_on_) tag_ = body.tag;
    body.fn();
    if (tags_on_) tag_ = 0;
    return true;
  }

  void run() {
    while (!stopped_ && step()) check_budget();
  }

  std::uint64_t run_until(SimTime t_end) {
    const std::uint64_t before = stats_.executed;
    run_window(t_end, true);
    return stats_.executed - before;
  }

  SimTime run_window(SimTime t_end, bool inclusive) {
    while (!stopped_) {
      drop_front_tombstones();
      if (keys_.empty()) break;
      const SimTime t = keys_.begin()->first;
      if (inclusive ? t > t_end : t >= t_end) break;
      step();
      check_budget();
    }
    if (!stopped_) now_ = std::max(now_, t_end);
    return next_event_time();
  }

  /// The earliest live event: cancelled keys at the front are dropped.
  SimTime next_event_time() {
    drop_front_tombstones();
    return keys_.empty() ? core::kInfTime : keys_.begin()->first;
  }
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  void clear_stop() { stopped_ = false; }
  const core::Engine::Stats& stats() const { return stats_; }
  std::size_t pending() const { return keys_.size(); }
  std::size_t tombstone_count() const { return tombstones_; }

 private:
  struct Body {
    std::function<void()> fn;
    std::uint32_t tag = 0;
  };

  void drop_front_tombstones() {
    while (!keys_.empty() && !live_.count(keys_.begin()->second)) {
      keys_.erase(keys_.begin());
      --tombstones_;
    }
  }
  void check_budget() const {
    if (max_events_ && stats_.executed >= max_events_) throw core::EventBudgetExceeded(max_events_);
  }

  std::set<std::pair<SimTime, EventId>> keys_;
  std::map<EventId, Body> live_;
  std::size_t tombstones_ = 0;
  SimTime now_ = 0;
  EventId next_seq_ = 1;
  bool stopped_ = false;
  bool tags_on_ = false;
  std::uint32_t tag_ = 0;
  double quantum_;
  std::uint64_t max_events_;
  core::Engine::Stats stats_;
};

/// One observable fact of a program run.
struct Entry {
  // x executed, h handle, r reservation, c cancel, u run_until, w run_window,
  // p step, n next_event_time, t event_tag, b event budget exceeded, s clock /
  // pending set / Stats
  char what;
  SimTime time;
  std::uint64_t a;
  std::uint64_t b;
  bool operator==(const Entry&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Entry& e) {
  return os << e.what << "(t=" << e.time << ", " << e.a << ", " << e.b << ")";
}

/// splitmix64: the program's own randomness, independent of core::RngStream.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  bool chance(unsigned percent) { return below(100) < percent; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// A delay drawn so that most events tie with others: a handful of grid
/// values, zero included, plus the odd arbitrary double and the rare far
/// one (which stretches the ladder queue's rungs, so that a dense cluster
/// spawns a second, finer rung).
SimTime tie_heavy_delay(Rng& rng) {
  static constexpr SimTime kGrid[] = {0, 0, 0, 0.25, 0.5, 0.5, 1, 1, 1.5, 3};
  if (rng.chance(3)) return 10 + rng.uniform() * 40;
  if (rng.chance(15)) return rng.uniform() * 3;
  return kGrid[rng.below(std::size(kGrid))];
}

/// Runs one seeded program against an engine E (core::Engine or RefEngine)
/// and logs what the engine shows. Two drivers with equal seeds make equal
/// choices for as long as their engines behave alike.
template <class E>
class Driver {
 public:
  Driver(E& eng, std::uint64_t seed, int budget) : eng_(eng), rng_(seed), budget_(budget) {}

  std::vector<Entry> log;

  void setup(int events) {
    for (int i = 0; i < events; ++i) {
      if (rng_.chance(40)) {
        with_tag(static_cast<std::uint32_t>(rng_.below(4)), [&] { schedule(false); });
      } else {
        schedule(false);
      }
    }
  }

  /// One top-level step of the program: a few scheduling actions from
  /// outside any handler, then one drain call. Returns false once drained.
  bool segment() {
    for (std::uint64_t n = rng_.below(3); n > 0; --n) act();
    const SimTime horizon = eng_.now() + tie_heavy_delay(rng_) * (rng_.chance(10) ? -1 : 2);
    try {
      switch (rng_.below(10)) {
        case 0:
        case 1:
        case 2:
          log.push_back({'u', horizon, eng_.run_until(horizon), 0});
          break;
        case 3:
        case 4:
        case 5: {
          const bool inclusive = rng_.chance(50);
          log.push_back({'w', eng_.run_window(horizon, inclusive), inclusive, 0});
          break;
        }
        case 6:
        case 7:
          log.push_back({'p', 0, eng_.step(), 0});
          break;
        case 8:
          if (rng_.chance(20)) eng_.run();
          break;
        default:
          eng_.stop();
          break;
      }
    } catch (const core::EventBudgetExceeded&) {
      log.push_back({'b', eng_.now(), eng_.stats().executed, 0});
    }
    if (eng_.stopped() && rng_.chance(70)) eng_.clear_stop();
    log_state();
    return eng_.pending() > 0;
  }

  /// Drain what is left with step(), which neither stop() nor the event
  /// budget holds back.
  void drain() {
    while (eng_.step()) {
    }
    log_state();
  }

 private:
  template <class F>
  void with_tag(std::uint32_t tag, F&& f) {
    const std::uint32_t prev = eng_.current_tag();
    eng_.set_current_tag(tag);
    f();
    eng_.set_current_tag(prev);
  }

  void log_state() {
    const auto& s = eng_.stats();
    log.push_back({'s', eng_.now(), eng_.pending(), eng_.tombstone_count()});
    log.push_back({'s', eng_.next_event_time(), s.scheduled, s.executed});
    log.push_back({'s', 0, s.cancelled, s.past_clamped});
  }

  void issue(std::size_t idx, EventHandle h) {
    handles_[idx] = h;
    log.push_back({'h', h.time, h.id, 0});
  }

  void schedule(bool relative) {
    const std::size_t idx = handles_.size();
    handles_.emplace_back();
    const auto body = [this, idx] { fire(idx); };
    if (relative) {
      issue(idx, eng_.schedule_in(tie_heavy_delay(rng_), body));
    } else {
      // Now and then a time in the past, which the engine clamps to now.
      const SimTime t = eng_.now() + (rng_.chance(5) ? -0.5 : tie_heavy_delay(rng_));
      issue(idx, eng_.schedule_at(t, body));
    }
  }

  void reserve() {
    const EventHandle key = eng_.reserve_at(eng_.now() + tie_heavy_delay(rng_));
    log.push_back({'r', key.time, key.id, 0});
    reservations_.push_back(key);
  }

  void queue_reservation() {
    if (reservations_.empty()) return;
    const std::size_t r = rng_.below(reservations_.size());
    const EventHandle key = reservations_[r];
    reservations_.erase(reservations_.begin() + static_cast<std::ptrdiff_t>(r));
    if (key.time < eng_.now()) return;  // its time has passed: never queued
    const std::size_t idx = handles_.size();
    handles_.emplace_back();
    issue(idx, eng_.schedule_reserved(key, [this, idx] { fire(idx); }));
  }

  void cancel(const EventHandle& h) { log.push_back({'c', h.time, h.id, eng_.cancel(h)}); }

  void act() {
    const std::uint64_t pick = rng_.below(100);
    if (pick < 35) {
      schedule(false);
    } else if (pick < 47) {
      schedule(true);
    } else if (pick < 57) {
      with_tag(static_cast<std::uint32_t>(rng_.below(4)), [&] { schedule(rng_.chance(50)); });
    } else if (pick < 63) {
      reserve();
    } else if (pick < 71) {
      queue_reservation();
    } else if (pick < 87) {
      if (!handles_.empty()) cancel(handles_[rng_.below(handles_.size())]);
    } else if (pick < 90) {
      if (!handles_.empty()) {
        const EventHandle h = handles_[rng_.below(handles_.size())];
        cancel(h);
        cancel(h);
      }
    } else if (pick < 93) {
      if (!reservations_.empty()) cancel(reservations_[rng_.below(reservations_.size())]);
    } else if (pick < 96) {
      log.push_back({'n', eng_.next_event_time(), eng_.pending(), 0});
    } else if (pick < 97) {
      if (!handles_.empty()) {
        const EventHandle h = handles_[rng_.below(handles_.size())];
        log.push_back({'t', h.time, h.id, eng_.event_tag(h)});
      }
    } else if (pick < 98) {
      eng_.stop();
    }
  }

  void fire(std::size_t idx) {
    log.push_back({'x', eng_.now(), handles_[idx].id, eng_.current_tag()});
    if (--budget_ < 0) return;
    for (std::uint64_t n = 1 + rng_.below(3); n > 0; --n) act();
  }

  E& eng_;
  Rng rng_;
  int budget_;  // handler firings left that may act
  std::vector<EventHandle> handles_;       // every queued handle, by issue order
  std::vector<EventHandle> reservations_;  // reserved keys not queued yet
};

/// Records what the engine shows an attached probe, the running event's
/// tag included.
class RecordingProbe final : public core::EngineProbe {
 public:
  explicit RecordingProbe(std::uint32_t stride) : stride_(stride) {}
  void on_event(SimTime t, EventId seq) override {
    events.push_back({'x', t, seq, engine->current_tag()});
  }
  void on_queue_push(std::uint64_t, std::size_t) override { ++pushes; }
  void on_queue_pop(std::uint64_t) override { ++pops; }
  std::uint32_t queue_stride() const override { return stride_; }

  const core::Engine* engine = nullptr;
  std::vector<Entry> events;
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;

 private:
  std::uint32_t stride_;
};

/// Compares the logs past `from`, reporting the first difference.
::testing::AssertionResult same_log(const std::vector<Entry>& got, const std::vector<Entry>& want,
                                    std::size_t from) {
  const std::size_t n = std::min(got.size(), want.size());
  for (std::size_t i = from; i < n; ++i) {
    if (!(got[i] == want[i])) {
      return ::testing::AssertionFailure()
             << "entry " << i << ": engine " << got[i] << ", reference " << want[i];
    }
  }
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "engine logged " << got.size() << " entries, reference " << want.size();
  }
  return ::testing::AssertionSuccess();
}

struct Program {
  std::uint64_t seed;
  core::Engine::Config cfg;
  bool tags;
};

Program make_program(core::QueueKind kind, std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  Program p{seed, {.queue = kind, .seed = seed}, rng.chance(50)};
  const std::uint64_t q = rng.below(10);
  if (q < 2) p.cfg.time_quantum = 0.25;
  if (q == 2) p.cfg.time_quantum = 0.1;  // not exact in binary
  if (rng.chance(25)) p.cfg.max_events = 100 + rng.below(900);
  return p;
}

/// Runs one program on both engines in lockstep. `probe` may be null.
void check_program(const Program& p, RecordingProbe* probe) {
  core::Engine eng(p.cfg);
  RefEngine ref(p.cfg);
  if (p.tags) {
    eng.enable_event_tags();
    ref.enable_event_tags();
  }
  if (probe) {
    probe->engine = &eng;
    eng.set_probe(probe);
  }
  constexpr int kBudget = 600;
  Driver<core::Engine> got(eng, p.seed, kBudget);
  Driver<RefEngine> want(ref, p.seed, kBudget);
  got.setup(12);
  want.setup(12);
  std::size_t checked = 0;
  ASSERT_TRUE(same_log(got.log, want.log, checked));
  for (int seg = 0; seg < 400; ++seg) {
    const bool more = got.segment();
    want.segment();
    ASSERT_TRUE(same_log(got.log, want.log, checked)) << "segment " << seg;
    checked = got.log.size();
    if (!more) break;
  }
  got.drain();
  want.drain();
  ASSERT_TRUE(same_log(got.log, want.log, checked)) << "final drain";
  EXPECT_EQ(eng.pending(), 0u);
  if (probe) {
    std::vector<Entry> executed;
    std::copy_if(got.log.begin(), got.log.end(), std::back_inserter(executed),
                 [](const Entry& e) { return e.what == 'x'; });
    EXPECT_TRUE(same_log(probe->events, executed, 0)) << "probe events";
    if (probe->queue_stride() == 0) {
      EXPECT_EQ(probe->pushes + probe->pops, 0u);
    } else if (probe->queue_stride() == 1) {
      EXPECT_EQ(probe->pushes, probe->pops);
    }
  }
}

class EngineFuzz : public ::testing::TestWithParam<core::QueueKind> {};

TEST_P(EngineFuzz, MatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const Program p = make_program(GetParam(), seed);
    SCOPED_TRACE("seed " + std::to_string(seed) + (p.tags ? ", tags" : "") +
                 ", quantum " + std::to_string(p.cfg.time_quantum) + ", max_events " +
                 std::to_string(p.cfg.max_events));
    check_program(p, nullptr);
    if (HasFatalFailure()) return;
  }
}

TEST_P(EngineFuzz, MatchesReferenceModelUnderProbe) {
  for (std::uint64_t seed = 101; seed <= 160; ++seed) {
    const Program p = make_program(GetParam(), seed);
    static constexpr std::uint32_t kStrides[] = {0, 1, 64};
    RecordingProbe probe(kStrides[seed % 3]);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", stride " +
                 std::to_string(probe.queue_stride()));
    check_program(p, &probe);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(AllStructures, EngineFuzz, ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

}  // namespace
