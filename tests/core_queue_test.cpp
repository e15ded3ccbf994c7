// Pending-event-set tests: each of the five implementations must be a
// drop-in replacement for the others. The parameterized suites run every
// structure through the same workloads (the DES contract: timestamps pushed
// are never below the last popped timestamp) and compare against a
// reference ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/event_queue.hpp"
#include "core/rng.hpp"

namespace core = lsds::core;

namespace {

struct PopRecord {
  double time;
  core::EventId seq;
};

/// A queue and an ordered reference set driven in lockstep: every pop must
/// return the reference's minimum (time, seq) key.
class Checked {
 public:
  explicit Checked(core::QueueKind kind) : q_(core::make_event_queue(kind)) {}

  void push(double t) {
    q_->push({t, seq_});
    ref_.emplace(t, seq_);
    ++seq_;
  }
  /// Pops one key and checks it. Returns its time.
  double pop() {
    EXPECT_FALSE(ref_.empty());
    const auto want = *ref_.begin();
    ref_.erase(ref_.begin());
    EXPECT_EQ(q_->min_time(), want.first);
    const auto got = q_->pop();
    EXPECT_EQ(got.time, want.first);
    EXPECT_EQ(got.seq, want.second);
    return got.time;
  }
  void drain() {
    while (!ref_.empty() && !::testing::Test::HasFailure()) pop();
    EXPECT_TRUE(q_->empty());
    EXPECT_EQ(q_->min_time(), core::kInfTime);
  }
  std::size_t size() const { return ref_.size(); }

 private:
  std::unique_ptr<core::EventQueue> q_;
  std::set<std::pair<double, core::EventId>> ref_;
  core::EventId seq_ = 1;
};

std::vector<PopRecord> drain(core::EventQueue& q) {
  std::vector<PopRecord> out;
  while (!q.empty()) {
    auto ev = q.pop();
    out.push_back({ev.time, ev.seq});
  }
  return out;
}

}  // namespace

class QueueTest : public ::testing::TestWithParam<core::QueueKind> {
 protected:
  std::unique_ptr<core::EventQueue> make() { return core::make_event_queue(GetParam()); }
};

TEST_P(QueueTest, EmptyInitially) {
  auto q = make();
  EXPECT_TRUE(q->empty());
  EXPECT_EQ(q->size(), 0u);
  EXPECT_EQ(q->min_time(), core::kInfTime);
}

TEST_P(QueueTest, SingleElement) {
  auto q = make();
  q->push({3.5, 1});
  EXPECT_EQ(q->size(), 1u);
  EXPECT_DOUBLE_EQ(q->min_time(), 3.5);
  auto ev = q->pop();
  EXPECT_DOUBLE_EQ(ev.time, 3.5);
  EXPECT_EQ(ev.seq, 1u);
  EXPECT_TRUE(q->empty());
}

TEST_P(QueueTest, PushThenPopAllSorted) {
  auto q = make();
  core::RngStream rng(12345);
  std::vector<PopRecord> expected;
  for (core::EventId i = 1; i <= 1000; ++i) {
    const double t = rng.uniform(0, 1e6);
    q->push({t, i});
    expected.push_back({t, i});
  }
  std::sort(expected.begin(), expected.end(), [](const PopRecord& a, const PopRecord& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  });
  const auto got = drain(*q);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i].time, expected[i].time) << "at index " << i;
    EXPECT_EQ(got[i].seq, expected[i].seq) << "at index " << i;
  }
}

TEST_P(QueueTest, FifoAmongSimultaneous) {
  auto q = make();
  for (core::EventId i = 1; i <= 100; ++i) q->push({7.0, i});
  for (core::EventId i = 1; i <= 100; ++i) {
    auto ev = q->pop();
    EXPECT_EQ(ev.seq, i);
  }
}

TEST_P(QueueTest, HoldModelNeverDecreases) {
  // Classic hold model: pop one, push one at popped_time + increment.
  auto q = make();
  core::RngStream rng(777);
  core::EventId seq = 1;
  for (int i = 0; i < 64; ++i) q->push({rng.exponential(10.0), seq++});
  double last = -1;
  for (int i = 0; i < 20000; ++i) {
    auto ev = q->pop();
    EXPECT_GE(ev.time, last) << "non-monotonic pop at step " << i;
    last = ev.time;
    q->push({ev.time + rng.exponential(10.0), seq++});
  }
  EXPECT_EQ(q->size(), 64u);
}

TEST_P(QueueTest, HoldModelSkewedIncrements) {
  // Heavy-tailed (Pareto) increments stress calendar bucket-width tuning
  // and ladder rung spawning.
  auto q = make();
  core::RngStream rng(4242);
  core::EventId seq = 1;
  for (int i = 0; i < 128; ++i) q->push({rng.pareto(0.01, 1.2), seq++});
  double last = -1;
  for (int i = 0; i < 20000; ++i) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
    q->push({ev.time + rng.pareto(0.01, 1.2), seq++});
  }
}

TEST_P(QueueTest, GrowShrinkCycles) {
  auto q = make();
  core::RngStream rng(9);
  core::EventId seq = 1;
  double clock = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    // Grow to 2000 pending, then drain to 10, always pushing >= clock.
    while (q->size() < 2000) q->push({clock + rng.exponential(1.0), seq++});
    while (q->size() > 10) {
      auto ev = q->pop();
      ASSERT_GE(ev.time, clock);
      clock = ev.time;
    }
  }
}

TEST_P(QueueTest, SimultaneousBurstsMixedWithSpread) {
  // Many equal timestamps interleaved with spread ones (barrier-like models).
  auto q = make();
  core::RngStream rng(31337);
  core::EventId seq = 1;
  double clock = 0;
  for (int round = 0; round < 50; ++round) {
    const double barrier = clock + 1.0;
    for (int i = 0; i < 40; ++i) q->push({barrier, seq++});
    for (int i = 0; i < 10; ++i) q->push({clock + rng.uniform(0.0, 1.0), seq++});
    // Drain half.
    for (int i = 0; i < 25; ++i) {
      auto ev = q->pop();
      ASSERT_GE(ev.time, clock);
      clock = ev.time;
    }
  }
  // Drain rest; monotonicity holds throughout.
  double last = clock;
  while (!q->empty()) {
    auto ev = q->pop();
    ASSERT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST_P(QueueTest, MinTimeMatchesPop) {
  auto q = make();
  core::RngStream rng(5150);
  core::EventId seq = 1;
  for (int i = 0; i < 300; ++i) q->push({rng.uniform(0, 100), seq++});
  // Interleave pops with pushes at the clock, just past it (below the tail
  // of the ladder queue's Bottom), anywhere in the pending range, and far
  // beyond everything pending (its Top). Every so often a burst packs one
  // narrow window, so the ladder splits buckets into finer rungs.
  double clock = 0;
  for (int step = 0; step < 3000; ++step) {
    const double mt = q->min_time();
    auto ev = q->pop();
    ASSERT_DOUBLE_EQ(ev.time, mt) << "step " << step;
    ASSERT_GE(ev.time, clock);
    clock = ev.time;
    if (step % 500 == 250) {
      for (int i = 0; i < 120; ++i) q->push({clock + 1 + rng.uniform(0, 0.1), seq++});
    }
    for (std::int64_t n = rng.uniform_int(0, 2); n > 0; --n) {
      switch (rng.uniform_int(0, 3)) {
        case 0: q->push({clock, seq++}); break;
        case 1: q->push({clock + rng.uniform(0, 0.01), seq++}); break;
        case 2: q->push({clock + rng.uniform(0, 100), seq++}); break;
        default: q->push({clock + 1000 + rng.uniform(0, 100), seq++}); break;
      }
    }
  }
  while (!q->empty()) {
    const double mt = q->min_time();
    auto ev = q->pop();
    EXPECT_DOUBLE_EQ(ev.time, mt);
  }
  EXPECT_EQ(q->min_time(), core::kInfTime);
}

TEST_P(QueueTest, CrossImplementationEquivalence) {
  // Every structure must produce the identical pop sequence as the binary
  // heap on a randomized hold-model workload.
  auto q = make();
  auto ref = core::make_event_queue(core::QueueKind::kBinaryHeap);
  core::RngStream rng_a(2024), rng_b(2024);
  core::EventId seq = 1;
  for (int i = 0; i < 97; ++i) {
    const double t = rng_a.uniform(0, 50);
    rng_b.uniform(0, 50);
    q->push({t, seq});
    ref->push({t, seq});
    ++seq;
  }
  for (int i = 0; i < 5000; ++i) {
    auto a = q->pop();
    auto b = ref->pop();
    ASSERT_DOUBLE_EQ(a.time, b.time) << "step " << i;
    ASSERT_EQ(a.seq, b.seq) << "step " << i;
    const double nt = a.time + rng_a.exponential(3.0);
    rng_b.exponential(3.0);
    q->push({nt, seq});
    ref->push({nt, seq});
    ++seq;
  }
}

TEST_P(QueueTest, NonMonotonePushAfterPop) {
  // The windowed-run idiom: pop an event past a horizon, requeue it, then
  // schedule events EARLIER than the requeued one (e.g. cross-LP deliveries
  // at the next window boundary). The calendar queue's dequeue cursor used
  // to stay anchored on the far-future day and return events in bucket
  // order instead of time order.
  auto q = make();
  q->push({100.0, 0});
  auto far = q->pop();
  q->push(std::move(far));  // requeue beyond the horizon
  q->push({30.0, 2});  // earlier than the last popped priority
  q->push({21.0, 3});
  EXPECT_DOUBLE_EQ(q->min_time(), 21.0);
  EXPECT_DOUBLE_EQ(q->pop().time, 21.0);
  EXPECT_DOUBLE_EQ(q->pop().time, 30.0);
  EXPECT_DOUBLE_EQ(q->pop().time, 100.0);
  EXPECT_TRUE(q->empty());
}

TEST_P(QueueTest, WindowedRequeueFuzzMatchesReference) {
  // The conservative parallel engine's per-LP pattern, fuzzed: drain every
  // event below a window end, pop the first event past it and requeue it,
  // then deliver a batch of messages at or after the window end — often
  // earlier than the requeued event, and sometimes enough of them to resize
  // the calendar (new bucket width, cursor re-anchored). The pop sequence
  // must equal a binary heap's.
  for (std::uint64_t seed = 2020; seed < 2028; ++seed) {
    auto q = make();
    auto ref = core::make_event_queue(core::QueueKind::kBinaryHeap);
    core::RngStream rng(seed);
    core::EventId seq = 0;
    const auto push_both = [&](double t) {
      q->push({t, seq});
      ref->push({t, seq});
      ++seq;
    };
    for (int i = 0; i < 8; ++i) push_both(rng.uniform(0.0, 40.0));
    double window_end = 0;
    for (int window = 0; window < 400; ++window) {
      window_end += rng.uniform(0.1, 3.0);
      while (!ref->empty() && ref->min_time() < window_end) {
        const auto want = ref->pop();
        ASSERT_FALSE(q->empty());
        const auto got = q->pop();
        ASSERT_EQ(got.seq, want.seq) << "seed " << seed << " window " << window
                                     << ": want t=" << want.time << ", got t=" << got.time;
      }
      if (!q->empty()) {
        auto past = q->pop();
        auto want = ref->pop();
        ASSERT_EQ(past.seq, want.seq) << "seed " << seed << " window " << window;
        ref->push(std::move(want));
        q->push(std::move(past));
      }
      const auto batch =
          rng.uniform_int(0, 9) == 0 ? rng.uniform_int(20, 80) : rng.uniform_int(0, 4);
      for (std::int64_t k = 0; k < batch; ++k) push_both(window_end + rng.exponential(5.0));
    }
    EXPECT_EQ(q->size(), ref->size()) << "seed " << seed;
  }
}

TEST_P(QueueTest, BimodalTiesAndSpreadMatchReference) {
  // The MONARC tier population: a dense near-term cluster full of exact
  // ties (transfers and jobs chained at or just after the clock) beside
  // production events spaced 40 s apart. A calendar width sized for either
  // half is wrong for the other.
  Checked q(GetParam());
  core::RngStream rng(4040);
  for (int i = 0; i < 60; ++i) q.push(40.0 * i);
  double clock = 0;
  for (int step = 0; step < 20000 && !HasFailure(); ++step) {
    clock = q.pop();
    if (step % 40 == 0) q.push(clock + 40.0 * 60);  // the spread half
    for (std::int64_t n = rng.uniform_int(0, 2); n > 0 && q.size() < 400; --n) {
      switch (rng.uniform_int(0, 3)) {
        case 0: q.push(clock); break;  // an exact tie with the clock
        case 1: q.push(clock + 0.25 * static_cast<double>(rng.uniform_int(1, 4))); break;
        case 2: q.push(clock + rng.uniform(0, 1e-3)); break;
        default: q.push(clock + rng.uniform(0, 2.0)); break;
      }
    }
  }
  q.drain();
}

TEST_P(QueueTest, HugeAndInfiniteTimesBesideTinyWidths) {
  // A cluster 1e-9 s apart shrinks a calendar day to its minimum width, so
  // 1e300 and kInfTime lie ~1e309 days out: their day numbers must saturate,
  // not overflow, and still order after everything finite.
  Checked q(GetParam());
  for (int round = 0; round < 4; ++round) {
    const double base = round * 1e-6;
    for (int i = 0; i < 200; ++i) q.push(base + i * 1e-9);
    q.push(core::kInfTime);
    q.push(1e300);
    q.push(core::kInfTime);
    q.push(1e300);
    q.push(1e290);
    for (int i = 0; i < 150; ++i) q.pop();
  }
  q.drain();
}

TEST_P(QueueTest, OneInfiniteKeyBesideTenThousandFinite) {
  // One kInfTime key pending beside a finite population: a ladder rung
  // spanned over [min, inf] would put every finite key in one bucket. The
  // infinite key must still pop last, after holds that refill the set.
  Checked q(GetParam());
  core::RngStream rng(4242);
  q.push(core::kInfTime);
  double t = 0;
  for (int i = 0; i < 10000; ++i) q.push(t += rng.exponential(1.0));
  for (int i = 0; i < 5000; ++i) {
    const double now = q.pop();
    q.push(now + rng.exponential(100.0));
  }
  q.push(core::kInfTime);
  for (int i = 0; i < 2000; ++i) q.pop();
  q.drain();
}

TEST_P(QueueTest, RequeueBelowCurrentDayAfterResize) {
  // Pop into a day, then push enough far events to resize the calendar
  // (new width, new current day) and requeue keys below that day: the popped
  // event itself and one earlier than everything pending.
  for (int grow : {10, 100, 1000}) {
    SCOPED_TRACE(grow);
    auto q = make();
    auto ref = core::make_event_queue(core::QueueKind::kBinaryHeap);
    core::EventId seq = 1;
    const auto push_both = [&](core::EventRecord ev) {
      q->push(ev);
      ref->push(ev);
    };
    for (int i = 0; i < 8; ++i) push_both({10.0 + i, seq++});
    const auto first = q->pop();
    ASSERT_EQ(first.seq, ref->pop().seq);
    const auto past = q->pop();  // the event past a window bound
    ASSERT_EQ(past.seq, ref->pop().seq);
    for (int i = 0; i < grow; ++i) push_both({1000.0 + 0.5 * i, seq++});
    push_both(past);  // requeued below the current day
    push_both({first.time, seq++});  // earlier than anything pending
    push_both({past.time + 0.25, seq++});
    while (!ref->empty()) {
      ASSERT_EQ(q->min_time(), ref->min_time());
      const auto want = ref->pop();
      const auto got = q->pop();
      ASSERT_EQ(got.seq, want.seq) << "want t=" << want.time << ", got t=" << got.time;
    }
    EXPECT_TRUE(q->empty());
  }
}

TEST_P(QueueTest, NameIsStable) {
  auto q = make();
  EXPECT_STREQ(q->name(), core::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllStructures, QueueTest, ::testing::ValuesIn(core::kAllQueueKinds),
                         [](const ::testing::TestParamInfo<core::QueueKind>& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });
