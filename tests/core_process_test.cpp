// Process-oriented layer: coroutine delays, resources, channels, conditions.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/process.hpp"
#include "event_probe.hpp"

namespace core = lsds::core;
using core::Channel;
using core::Condition;
using core::Engine;
using core::Process;
using core::Resource;
using core::delay;

namespace {

Process sleeper(Engine& eng, double dt, std::vector<double>& out) {
  co_await delay(eng, dt);
  out.push_back(eng.now());
}

Process multi_sleeper(Engine& eng, std::vector<double>& out) {
  co_await delay(eng, 1.0);
  out.push_back(eng.now());
  co_await delay(eng, 2.0);
  out.push_back(eng.now());
  co_await delay(eng, 0.5);
  out.push_back(eng.now());
}

}  // namespace

TEST(Process, DelayResumesAtRightTime) {
  Engine eng;
  std::vector<double> out;
  sleeper(eng, 2.5, out);
  eng.run();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 2.5);
  EXPECT_EQ(eng.live_processes(), 0u);  // frame self-destroyed
}

TEST(Process, SequentialDelaysAccumulate) {
  Engine eng;
  std::vector<double> out;
  multi_sleeper(eng, out);
  eng.run();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
  EXPECT_DOUBLE_EQ(out[2], 3.5);
}

TEST(Process, ManyConcurrentProcesses) {
  Engine eng;
  std::vector<double> out;
  for (int i = 1; i <= 100; ++i) sleeper(eng, static_cast<double>(i), out);
  EXPECT_EQ(eng.live_processes(), 100u);
  eng.run();
  EXPECT_EQ(out.size(), 100u);
  EXPECT_DOUBLE_EQ(out.back(), 100.0);
  EXPECT_EQ(eng.live_processes(), 0u);
}

TEST(Process, EngineDestructionReclaimsSuspendedFrames) {
  std::vector<double> out;
  {
    Engine eng;
    for (int i = 0; i < 10; ++i) sleeper(eng, 100.0, out);
    eng.run_until(1.0);  // processes still suspended
    EXPECT_EQ(eng.live_processes(), 10u);
  }  // engine destructor must destroy the frames (asan would catch leaks)
  EXPECT_TRUE(out.empty());
}

namespace {

// Counts how often each process's frame-local object is destroyed.
struct DestroyCounter {
  std::vector<int>* counts;
  std::size_t id;
  ~DestroyCounter() { ++(*counts)[id]; }
};

Process counted_sleeper(Engine& eng, double dt, std::vector<int>& counts, std::size_t id) {
  DestroyCounter guard{&counts, id};
  co_await delay(eng, dt);
}

// A process whose frame-local destructor spawns another process: when the
// engine tears it down, the newcomer joins the registry mid-teardown.
Process spawning_sleeper(Engine& eng, std::vector<int>& counts, std::size_t id,
                         std::size_t child_id) {
  struct SpawnOnDestroy {
    Engine& eng;
    std::vector<int>& counts;
    std::size_t child_id;
    ~SpawnOnDestroy() { counted_sleeper(eng, 1.0, counts, child_id); }
  } spawner{eng, counts, child_id};
  DestroyCounter guard{&counts, id};
  co_await delay(eng, 1e9);
}

}  // namespace

TEST(ProcessRegistry, LiveCountFollowsSpawnCompletionAndTeardown) {
  constexpr std::size_t kProcs = 10000;
  std::vector<int> destroyed(kProcs, 0);
  {
    Engine eng;
    EXPECT_EQ(eng.live_processes(), 0u);
    for (std::size_t i = 0; i < kProcs; ++i) {
      counted_sleeper(eng, static_cast<double>(i + 1), destroyed, i);
      EXPECT_EQ(eng.live_processes(), i + 1);
    }
    eng.run_until(kProcs / 2.0);  // the first half completes
    EXPECT_EQ(eng.live_processes(), kProcs / 2);
    for (std::size_t i = 0; i < kProcs; ++i) {
      EXPECT_EQ(destroyed[i], i < kProcs / 2 ? 1 : 0) << i;
    }
  }  // the engine destroys the other half, each frame once
  for (std::size_t i = 0; i < kProcs; ++i) EXPECT_EQ(destroyed[i], 1) << i;
}

TEST(ProcessRegistry, TeardownDestroysFramesSpawnedByDestructors) {
  std::vector<int> destroyed(3, 0);
  {
    Engine eng;
    spawning_sleeper(eng, destroyed, 0, 1);
    counted_sleeper(eng, 1e9, destroyed, 2);
    EXPECT_EQ(eng.live_processes(), 2u);
  }  // destroying process 0 spawns process 1, which teardown then destroys
  EXPECT_EQ(destroyed, (std::vector<int>{1, 1, 1}));
}

// --- start_at ---------------------------------------------------------

namespace {

using Trace = std::vector<std::tuple<double, core::EventId, std::size_t>>;

// The body every variant runs once started: two holds, then a record.
Process job_body(Engine& eng, std::size_t id, std::vector<std::size_t>& done) {
  co_await delay(eng, 0.5);
  co_await delay(eng, 0.25 * static_cast<double>(id % 3));
  done.push_back(id);
}

// The pattern start_at() replaces: created now, first act a delay to `at`.
Process delay_first_job(Engine& eng, double at, std::size_t id, std::vector<std::size_t>& done) {
  co_await delay(eng, at - eng.now());
  co_await delay(eng, 0.5);
  co_await delay(eng, 0.25 * static_cast<double>(id % 3));
  done.push_back(id);
}

double submit_time(std::size_t i) { return 0.5 * static_cast<double>(i % 7) + 0.1 * i; }

// Submits jobs from..n-1, deferred or delay-first, from a process running
// at t = 1.3, so that start_at() keys a start from a clock past 0.
Process submitter(Engine& eng, bool deferred, std::size_t from, std::size_t n,
                  std::vector<std::size_t>& done) {
  co_await delay(eng, 1.3);
  for (std::size_t i = from; i < n; ++i) {
    if (deferred) {
      core::start_at(eng, 1.3 + submit_time(i),
                     [i, &done](Engine& e) { job_body(e, i, done); });
    } else {
      delay_first_job(eng, 1.3 + submit_time(i), i, done);
    }
  }
}

Trace run_jobs(bool deferred, std::vector<std::size_t>& done) {
  constexpr std::size_t kJobs = 200;
  Trace trace;
  Engine eng;
  lsds::testutil::EventProbe probe([&](double t, core::EventId id) {
    trace.emplace_back(t, id, eng.live_processes());
  });
  eng.set_probe(&probe);
  submitter(eng, deferred, kJobs / 2, kJobs, done);
  for (std::size_t i = 0; i < kJobs / 2; ++i) {
    if (deferred) {
      core::start_at(eng, submit_time(i), [i, &done](Engine& e) { job_body(e, i, done); });
    } else {
      delay_first_job(eng, submit_time(i), i, done);
    }
  }
  eng.run();
  EXPECT_EQ(eng.live_processes(), 0u);
  return trace;
}

}  // namespace

TEST(StartAt, SameTraceAndLiveCountAsDelayFirstProcess) {
  std::vector<std::size_t> done_deferred, done_direct;
  const Trace deferred = run_jobs(true, done_deferred);
  const Trace direct = run_jobs(false, done_direct);
  ASSERT_FALSE(direct.empty());
  EXPECT_EQ(deferred, direct);
  EXPECT_EQ(done_deferred, done_direct);
  EXPECT_EQ(done_direct.size(), 200u);
}

TEST(StartAt, PastTimeIsClampedAndCounted) {
  Engine eng;
  eng.run_until(5.0);
  std::vector<double> started;
  core::start_at(eng, 2.0, [&started](Engine& e) { started.push_back(e.now()); });
  EXPECT_EQ(eng.stats().past_clamped, 1u);
  EXPECT_EQ(eng.live_processes(), 1u);
  eng.run();
  EXPECT_EQ(started, (std::vector<double>{5.0}));
  EXPECT_EQ(eng.live_processes(), 0u);  // a factory that creates no frame still hands back
}

TEST(StartAt, HorizonCutTearsDownUnstartedStarts) {
  constexpr std::size_t kStarts = 10000;
  std::vector<int> destroyed(kStarts, 0);
  std::size_t created = 0;
  {
    Engine eng;
    for (std::size_t i = 0; i < kStarts; ++i) {
      core::start_at(eng, static_cast<double>(i), [i, &destroyed, &created](Engine& e) {
        ++created;
        counted_sleeper(e, 1e9, destroyed, i);
      });
    }
    EXPECT_EQ(eng.live_processes(), kStarts);
    eng.run_until(1000.5);  // starts at t <= 1000 fire; their frames stay suspended
    EXPECT_EQ(created, 1001u);
    EXPECT_EQ(eng.live_processes(), kStarts);
  }  // the engine destroys 1,001 frames and 8,999 unfired starts
  for (std::size_t i = 0; i < kStarts; ++i) EXPECT_EQ(destroyed[i], i <= 1000 ? 1 : 0) << i;
  EXPECT_EQ(created, 1001u);
}

// --- Resource ---------------------------------------------------------

namespace {

Process resource_user(Engine& eng, Resource& res, double hold, std::vector<double>& done) {
  co_await res.acquire(1);
  co_await delay(eng, hold);
  res.release(1);
  done.push_back(eng.now());
}

Process big_then_small_observer(Engine& eng, Resource& res, int id, double amount,
                                std::vector<int>& order) {
  co_await res.acquire(amount);
  order.push_back(id);
  co_await delay(eng, 1.0);
  res.release(amount);
}

}  // namespace

TEST(Resource, CapacityLimitsConcurrency) {
  Engine eng;
  Resource res(eng, 2);
  std::vector<double> done;
  for (int i = 0; i < 6; ++i) resource_user(eng, res, 10.0, done);
  eng.run();
  // 6 jobs, 2 at a time, 10s each -> completions at 10, 10, 20, 20, 30, 30.
  ASSERT_EQ(done.size(), 6u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
  EXPECT_DOUBLE_EQ(done[2], 20.0);
  EXPECT_DOUBLE_EQ(done[3], 20.0);
  EXPECT_DOUBLE_EQ(done[4], 30.0);
  EXPECT_DOUBLE_EQ(done[5], 30.0);
}

TEST(Resource, FifoNoOvertaking) {
  // A large request at the head must not be starved by small ones behind it.
  Engine eng;
  Resource res(eng, 4);
  std::vector<int> order;
  big_then_small_observer(eng, res, 0, 3, order);  // takes 3 of 4 immediately
  big_then_small_observer(eng, res, 1, 4, order);  // needs all 4: waits
  big_then_small_observer(eng, res, 2, 1, order);  // would fit, but must queue behind
  eng.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
  EXPECT_EQ(order[2], 2);
}

TEST(Resource, AccountingIsExact) {
  Engine eng;
  Resource res(eng, 5);
  std::vector<double> done;
  for (int i = 0; i < 20; ++i) resource_user(eng, res, 1.0, done);
  eng.schedule_at(0.5, [&] {
    EXPECT_DOUBLE_EQ(res.in_use(), 5.0);
    EXPECT_EQ(res.queue_length(), 15u);
  });
  eng.run();
  EXPECT_DOUBLE_EQ(res.in_use(), 0.0);
  EXPECT_EQ(res.queue_length(), 0u);
  EXPECT_EQ(done.size(), 20u);
}

// --- Channel ----------------------------------------------------------

namespace {

Process producer(Engine& eng, Channel<int>& ch, int n, double gap) {
  for (int i = 0; i < n; ++i) {
    co_await delay(eng, gap);
    ch.send(i);
  }
}

Process consumer(Engine& eng, Channel<int>& ch, int n, std::vector<std::pair<double, int>>& out) {
  for (int i = 0; i < n; ++i) {
    const int v = co_await ch.receive();
    out.emplace_back(eng.now(), v);
  }
}

}  // namespace

TEST(Channel, DeliversInOrder) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<std::pair<double, int>> out;
  consumer(eng, ch, 5, out);
  producer(eng, ch, 5, 1.0);
  eng.run();
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[i].second, i);
    EXPECT_DOUBLE_EQ(out[i].first, static_cast<double>(i + 1));
  }
}

TEST(Channel, BufferedSendsConsumeImmediately) {
  Engine eng;
  Channel<int> ch(eng);
  ch.send(1);
  ch.send(2);
  std::vector<std::pair<double, int>> out;
  consumer(eng, ch, 2, out);
  eng.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].second, 1);
  EXPECT_EQ(out[1].second, 2);
  EXPECT_DOUBLE_EQ(out[1].first, 0.0);
}

TEST(Channel, MultipleReceiversFifo) {
  Engine eng;
  Channel<int> ch(eng);
  std::vector<std::pair<double, int>> out_a, out_b;
  consumer(eng, ch, 1, out_a);  // first waiter
  consumer(eng, ch, 1, out_b);  // second waiter
  eng.schedule_at(1.0, [&] { ch.send(10); });
  eng.schedule_at(2.0, [&] { ch.send(20); });
  eng.run();
  ASSERT_EQ(out_a.size(), 1u);
  ASSERT_EQ(out_b.size(), 1u);
  EXPECT_EQ(out_a[0].second, 10);  // first waiter gets first item
  EXPECT_EQ(out_b[0].second, 20);
}

TEST(Channel, MixedBufferAndWaiters) {
  // Regression for the reserved-item race: a buffered item must not be
  // stolen from an already-scheduled receiver by a fast-path receive.
  Engine eng;
  Channel<int> ch(eng);
  std::vector<std::pair<double, int>> out_a, out_b;
  consumer(eng, ch, 1, out_a);  // waits
  ch.send(1);                   // reserves for A (resume scheduled)
  ch.send(2);                   // buffered
  consumer(eng, ch, 1, out_b);  // must get 2, not 1
  eng.run();
  ASSERT_EQ(out_a.size(), 1u);
  ASSERT_EQ(out_b.size(), 1u);
  EXPECT_EQ(out_a[0].second, 1);
  EXPECT_EQ(out_b[0].second, 2);
}

TEST(Channel, MoveOnlyPayload) {
  Engine eng;
  Channel<std::unique_ptr<std::string>> ch(eng);
  std::string got;
  [](Engine& e, Channel<std::unique_ptr<std::string>>& c, std::string& out) -> Process {
    auto p = co_await c.receive();
    out = *p;
    (void)e;
  }(eng, ch, got);
  ch.send(std::make_unique<std::string>("payload"));
  eng.run();
  EXPECT_EQ(got, "payload");
}

// --- Condition --------------------------------------------------------

namespace {

Process waiter_proc(Engine& eng, Condition& cond, std::vector<double>& out) {
  co_await cond.wait();
  out.push_back(eng.now());
}

}  // namespace

TEST(Condition, NotifyAllWakesEveryone) {
  Engine eng;
  Condition cond(eng);
  std::vector<double> out;
  for (int i = 0; i < 5; ++i) waiter_proc(eng, cond, out);
  eng.schedule_at(3.0, [&] { cond.notify_all(); });
  eng.run();
  ASSERT_EQ(out.size(), 5u);
  for (double t : out) EXPECT_DOUBLE_EQ(t, 3.0);
  EXPECT_EQ(cond.waiting(), 0u);
}

TEST(Condition, NotifyOneWakesOne) {
  Engine eng;
  Condition cond(eng);
  std::vector<double> out;
  for (int i = 0; i < 3; ++i) waiter_proc(eng, cond, out);
  eng.schedule_at(1.0, [&] { cond.notify_one(); });
  eng.schedule_at(2.0, [&] { cond.notify_one(); });
  eng.run();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  EXPECT_EQ(cond.waiting(), 1u);
}

TEST(Condition, NotifyWithNoWaitersIsNoop) {
  Engine eng;
  Condition cond(eng);
  cond.notify_one();
  cond.notify_all();
  eng.run();
  EXPECT_EQ(eng.stats().executed, 0u);
}

// --- integration: M/M/1-style pipeline built from primitives --------------

namespace {

Process pipeline_stage(Engine& eng, Channel<double>& in, Channel<double>& out, Resource& cpu) {
  for (;;) {
    const double work = co_await in.receive();
    co_await cpu.acquire(1);
    co_await delay(eng, work);
    cpu.release(1);
    out.send(eng.now());
  }
}

}  // namespace

TEST(ProcessIntegration, TwoStagePipeline) {
  Engine eng;
  Channel<double> stage1_in(eng), stage2_in(eng), done(eng);
  Resource cpu1(eng, 1), cpu2(eng, 1);
  // stage1 forwards into stage2.
  pipeline_stage(eng, stage1_in, stage2_in, cpu1);
  [](Engine& e, Channel<double>& in, Channel<double>& out, Resource& cpu) -> Process {
    for (;;) {
      co_await in.receive();
      co_await cpu.acquire(1);
      co_await delay(e, 2.0);
      cpu.release(1);
      out.send(e.now());
    }
  }(eng, stage2_in, done, cpu2);

  std::vector<double> finish;
  [](Engine& e, Channel<double>& done_ch, std::vector<double>& fin) -> Process {
    for (int i = 0; i < 3; ++i) fin.push_back(co_await done_ch.receive());
    e.stop();
  }(eng, done, finish);

  for (int i = 0; i < 3; ++i) stage1_in.send(1.0);
  eng.run();
  ASSERT_EQ(finish.size(), 3u);
  // Stage1 serializes at 1s each; stage2 at 2s each: completions 3,5,7.
  EXPECT_DOUBLE_EQ(finish[0], 3.0);
  EXPECT_DOUBLE_EQ(finish[1], 5.0);
  EXPECT_DOUBLE_EQ(finish[2], 7.0);
}
