// Time-driven and trace-driven DES modes, and the parallel engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/hash.hpp"
#include "core/parallel.hpp"
#include "core/time_driven.hpp"
#include "core/trace.hpp"

namespace core = lsds::core;

// --- time-driven ------------------------------------------------------

TEST(TimeDriven, CountsEmptyTicks) {
  core::Engine eng;
  int fired = 0;
  eng.schedule_at(2.5, [&] { ++fired; });
  eng.schedule_at(7.1, [&] { ++fired; });
  core::TimeDrivenRunner runner(eng, 1.0);
  const auto res = runner.run(10.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(res.ticks, 10u);
  EXPECT_EQ(res.events, 2u);
  EXPECT_EQ(res.empty_ticks, 8u);  // only ticks 3 and 8 contain events
}

TEST(TimeDriven, RejectsNonPositiveTick) {
  // Regression: tick <= 0 never advanced `t += tick_` and run() spun forever.
  core::Engine eng;
  EXPECT_THROW(core::TimeDrivenRunner(eng, 0.0), std::invalid_argument);
  EXPECT_THROW(core::TimeDrivenRunner(eng, -1.0), std::invalid_argument);
  EXPECT_THROW(core::TimeDrivenRunner(eng, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(core::TimeDrivenRunner(eng, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_NO_THROW(core::TimeDrivenRunner(eng, 1e-9));
}

TEST(TimeDriven, TickHandlersRunEveryTick) {
  core::Engine eng;
  std::vector<double> tick_times;
  core::TimeDrivenRunner runner(eng, 0.5);
  runner.add_tick_handler([&](double t) { tick_times.push_back(t); });
  runner.run(2.0);
  ASSERT_EQ(tick_times.size(), 4u);
  EXPECT_DOUBLE_EQ(tick_times[0], 0.5);
  EXPECT_DOUBLE_EQ(tick_times[3], 2.0);
}

TEST(TimeDriven, PartialFinalTick) {
  core::Engine eng;
  core::TimeDrivenRunner runner(eng, 3.0);
  const auto res = runner.run(7.0);  // ticks at 3, 6, 7(partial)
  EXPECT_EQ(res.ticks, 3u);
  EXPECT_DOUBLE_EQ(eng.now(), 7.0);
}

TEST(TimeDriven, EventDrivenDoesSameWorkWithoutTicks) {
  // The paper's efficiency claim in miniature: same model, the event-driven
  // run touches exactly 2 events while the time-driven run steps 1000 ticks.
  core::Engine ed;
  int n1 = 0;
  ed.schedule_at(2.5, [&] { ++n1; });
  ed.schedule_at(999.5, [&] { ++n1; });
  ed.run();
  EXPECT_EQ(ed.stats().executed, 2u);

  core::Engine td;
  int n2 = 0;
  td.schedule_at(2.5, [&] { ++n2; });
  td.schedule_at(999.5, [&] { ++n2; });
  core::TimeDrivenRunner runner(td, 1.0);
  const auto res = runner.run(1000.0);
  EXPECT_EQ(n2, n1);
  EXPECT_EQ(res.ticks, 1000u);
  EXPECT_GE(res.empty_ticks, 998u);
}

// --- trace-driven ---------------------------------------------------------

TEST(Trace, ParseBasic) {
  const auto events = core::TraceReader::parse_text(
      "# header comment\n"
      "0.5 job_arrival site=T1_FR cpu=1500 input=2GB\n"
      "1.25 transfer_start rate=1Gbps\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 0.5);
  EXPECT_EQ(events[0].kind, "job_arrival");
  EXPECT_EQ(*events[0].attr("site"), "T1_FR");
  EXPECT_DOUBLE_EQ(events[0].num("cpu", 0), 1500.0);
  EXPECT_DOUBLE_EQ(events[0].size("input", 0), 2e9);
  EXPECT_DOUBLE_EQ(events[1].rate("rate", 0), 1e9 / 8);
}

TEST(Trace, MissingAttrsUseDefaults) {
  const auto events = core::TraceReader::parse_text("1 x\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].attr("nope").has_value());
  EXPECT_DOUBLE_EQ(events[0].num("nope", 3.5), 3.5);
}

TEST(Trace, MalformedLinesThrow) {
  EXPECT_THROW(core::TraceReader::parse_text("notatime x\n"), std::runtime_error);
  EXPECT_THROW(core::TraceReader::parse_text("1.0\n"), std::runtime_error);
  EXPECT_THROW(core::TraceReader::parse_text("1.0 kind badattr\n"), std::runtime_error);
}

TEST(Trace, WriterReaderRoundTrip) {
  std::ostringstream out;
  core::TraceWriter w(out);
  w.write_comment("round trip");
  core::TraceEvent ev;
  ev.time = 12.5;
  ev.kind = "sample";
  ev.attrs = {{"site", "T0"}, {"util", "0.85"}};
  w.write(ev);
  const auto back = core::TraceReader::parse_text(out.str());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_DOUBLE_EQ(back[0].time, 12.5);
  EXPECT_EQ(back[0].kind, "sample");
  EXPECT_EQ(*back[0].attr("site"), "T0");
  EXPECT_DOUBLE_EQ(back[0].num("util", 0), 0.85);
}

TEST(Trace, DriverDispatchesAtTraceTimes) {
  core::Engine eng;
  const auto events = core::TraceReader::parse_text(
      "1 a\n"
      "2 b\n"
      "5 c\n");
  std::vector<std::pair<double, std::string>> seen;
  core::TraceDriver driver(eng, events, [&](const core::TraceEvent& ev) {
    seen.emplace_back(eng.now(), ev.kind);
  });
  driver.arm();
  eng.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<double, std::string>{1.0, "a"}));
  EXPECT_EQ(seen[2], (std::pair<double, std::string>{5.0, "c"}));
}

TEST(Trace, UnsortedTraceRejected) {
  core::Engine eng;
  const auto events = core::TraceReader::parse_text("2 a\n1 b\n");
  EXPECT_THROW(core::TraceDriver(eng, events, [](const core::TraceEvent&) {}),
               std::runtime_error);
}

// --- parallel engine -------------------------------------------------------

namespace {

// PHOLD-like workload: each LP starts `pop` messages; every message hop picks
// a destination LP from the LP's own RNG and reschedules at
// now + lookahead + exp(mean). Returns total events executed per LP.
std::vector<std::uint64_t> run_phold(unsigned num_lps, unsigned num_threads, double t_end,
                                     std::uint64_t seed) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = num_lps;
  cfg.num_threads = num_threads;
  cfg.lookahead = 1.0;
  cfg.seed = seed;
  core::ParallelEngine eng(cfg);

  // Hop closure: must be copyable and self-scheduling.
  std::function<void(unsigned)> hop = [&](unsigned lp_idx) {
    auto& lp = eng.lp(lp_idx);
    const auto dst = static_cast<unsigned>(lp.rng().uniform_int(0, num_lps - 1));
    const double t = lp.now() + cfg.lookahead + lp.rng().exponential(0.5);
    if (dst == lp_idx) {
      lp.schedule_at(t, [&hop, dst] { hop(dst); });
    } else {
      lp.send(dst, t, [&hop, dst] { hop(dst); });
    }
  };
  for (unsigned i = 0; i < num_lps; ++i) {
    for (int m = 0; m < 4; ++m) {
      eng.lp(i).schedule_at(0.0, [&hop, i] { hop(i); });
    }
  }
  eng.run_until(t_end);
  std::vector<std::uint64_t> out;
  for (unsigned i = 0; i < num_lps; ++i) out.push_back(eng.lp(i).events_executed());
  return out;
}

}  // namespace

TEST(ParallelEngine, RunsToHorizon) {
  const auto counts = run_phold(4, 2, 100.0, 7);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  // 16 messages, one hop per ~1.5s each, 100s horizon: ~1000 events.
  EXPECT_GT(total, 500u);
  EXPECT_LT(total, 2000u);
}

TEST(ParallelEngine, DeterministicAcrossThreadCounts) {
  // The whole point of the deterministic merge: thread count must not change
  // the simulation outcome.
  const auto a = run_phold(4, 1, 50.0, 99);
  const auto b = run_phold(4, 2, 50.0, 99);
  const auto c = run_phold(4, 4, 50.0, 99);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(ParallelEngine, SeedChangesOutcome) {
  const auto a = run_phold(4, 2, 50.0, 1);
  const auto b = run_phold(4, 2, 50.0, 2);
  EXPECT_NE(a, b);
}

TEST(ParallelEngine, LookaheadViolationsClampedAndCounted) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 1;
  cfg.lookahead = 5.0;
  core::ParallelEngine eng(cfg);
  double delivered_at = -1;
  eng.lp(0).schedule_at(0.0, [&] {
    // Attempt to deliver "immediately": violates the 5s lookahead.
    eng.lp(0).send(1, 0.1, [&] { delivered_at = eng.lp(1).now(); });
  });
  const auto stats = eng.run_until(20.0);
  EXPECT_EQ(stats.lookahead_violations, 1u);
  EXPECT_GE(delivered_at, 5.0);  // clamped to the sender's clock + lookahead
  EXPECT_EQ(stats.past_clamped, 0u);
}

TEST(ParallelEngine, StopsWhenDrained) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  int count = 0;
  eng.lp(0).schedule_at(0.5, [&] { ++count; });
  eng.lp(1).schedule_at(1.5, [&] { ++count; });
  const auto stats = eng.run_until(1e9);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_LT(stats.windows, 10u);  // terminates early, not at the horizon
  EXPECT_EQ(stats.past_clamped, 0u);
}

TEST(ParallelEngine, CancelledFrontOpensNoWindow) {
  // An LP whose earliest key is cancelled must not bid that key's time for
  // the next round's horizons: one live event, one round.
  for (core::QueueKind kind : core::kAllQueueKinds) {
    SCOPED_TRACE(core::to_string(kind));
    core::ParallelEngine::Config cfg;
    cfg.num_lps = 2;
    cfg.num_threads = 2;
    cfg.lookahead = 1.0;
    cfg.queue = kind;
    core::ParallelEngine eng(cfg);
    int count = 0;
    eng.lp(0).engine().cancel(eng.lp(0).engine().schedule_at(0.5, [&] { ++count; }));
    eng.lp(1).schedule_at(3.5, [&] { ++count; });
    const auto stats = eng.run_until(10.0);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(stats.events, 1u);
    EXPECT_EQ(stats.windows, 1u);
  }
}

TEST(ParallelEngine, CrossMessagesCounted) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 1;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  int received = 0;
  eng.lp(0).schedule_at(0.0, [&] {
    for (int i = 0; i < 5; ++i) {
      eng.lp(0).send(1, 2.0 + i, [&] { ++received; });
    }
  });
  const auto stats = eng.run_until(100.0);
  EXPECT_EQ(received, 5);
  EXPECT_EQ(stats.cross_messages, 5u);
  EXPECT_EQ(stats.past_clamped, 0u);
}

TEST(ParallelEngine, PastSchedulesClampedAndCounted) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 1;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  std::vector<double> ran_at;  // LP 0 only
  int received = 0;
  eng.lp(0).schedule_at(5.0, [&] {
    // Schedule into the LP's own past, through the Lp and through its
    // engine: both clamped to now, both counted in stats.
    eng.lp(0).schedule_at(2.0, [&] { ran_at.push_back(eng.lp(0).now()); });
    eng.lp(0).engine().schedule_at(1.0, [&] { ran_at.push_back(eng.lp(0).now()); });
    eng.lp(0).send(1, 10.0, [&] { ++received; });
  });
  const auto stats = eng.run_until(20.0);
  EXPECT_EQ(stats.past_clamped, 2u);
  EXPECT_EQ(ran_at, (std::vector<double>{5.0, 5.0}));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(stats.cross_messages, 1u);
  EXPECT_EQ(stats.events, 4u);
}

TEST(ParallelEngine, HostedEnginesCountPastClamps) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  int ran = 0;
  eng.lp(0).engine().schedule_at(3.0, [&] {
    eng.lp(0).engine().schedule_at(1.0, [&] { ++ran; });  // past: clamped by the engine
    eng.lp(0).send(1, 10.0, [&] { ++ran; });
  });
  const auto stats = eng.run_until(20.0);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(stats.past_clamped, 1u);
  EXPECT_EQ(stats.cross_messages, 1u);
  EXPECT_EQ(stats.events, 3u);
}

TEST(ParallelEngine, PerLpEventCountsSumToTotal) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 3;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  for (unsigned i = 0; i < 3; ++i) {
    for (int k = 0; k <= static_cast<int>(i); ++k) {
      eng.lp(i).schedule_at(0.5 + k, [] {});
    }
  }
  const auto stats = eng.run_until(10.0);
  ASSERT_EQ(stats.per_lp_events.size(), 3u);
  EXPECT_EQ(stats.per_lp_events[0], 1u);
  EXPECT_EQ(stats.per_lp_events[1], 2u);
  EXPECT_EQ(stats.per_lp_events[2], 3u);
  EXPECT_EQ(stats.events, 6u);
}

// --- cross-LP message path property test ------------------------------------
//
// Randomized sends fuzzed across the lookahead bound. Invariants:
//   1. a message intended for time t executes at exactly t when t clears the
//      sender's clock plus the lookahead, and strictly later (the clamp)
//      when it does not —
//      lookahead_violations counts EXACTLY the clamped sends;
//   2. same-timestamp deliveries at one LP execute in (src_lp, src_seq)
//      order — the deterministic merge;
//   3. the whole observation log is invariant across worker thread counts.

namespace {

struct Delivery {
  double exec_time;
  double intended;
  unsigned src;
  int seq;
  bool operator==(const Delivery& o) const {
    return exec_time == o.exec_time && intended == o.intended && src == o.src && seq == o.seq;
  }
};

std::vector<Delivery> run_fuzzed_cross_sends(unsigned num_threads, std::uint64_t seed) {
  constexpr unsigned kSenders = 3;
  constexpr int kSendsEach = 50;
  core::ParallelEngine::Config cfg;
  cfg.num_lps = kSenders + 1;  // LP 0 receives, LPs 1..kSenders send
  cfg.num_threads = num_threads;
  cfg.lookahead = 2.0;
  core::ParallelEngine eng(cfg);

  // Pre-drawn plan (identical for every thread count): each sender fires at
  // a random time and targets a random intended delivery time around its own
  // clock — before, inside and beyond the 2.0 s lookahead, all three cases.
  struct Planned {
    double fire_at;
    double intended;
  };
  core::RngStream rng(seed);
  std::vector<std::vector<Planned>> plan(kSenders);
  for (auto& sends : plan) {
    for (int i = 0; i < kSendsEach; ++i) {
      const double fire = rng.uniform(0.0, 40.0);
      sends.push_back({fire, fire + rng.uniform(-1.0, 6.0)});
    }
  }

  std::vector<Delivery> log;
  // Per-sender send counter, stamped when the send is issued — this mirrors
  // the src_seq the deterministic merge orders by. Each slot is only ever
  // touched by its own LP.
  std::vector<int> sends_issued(kSenders + 1, 0);
  for (unsigned s = 0; s < kSenders; ++s) {
    for (int i = 0; i < kSendsEach; ++i) {
      const Planned& p = plan[s][i];
      const unsigned src_lp = s + 1;
      eng.lp(src_lp).schedule_at(p.fire_at, [&eng, &log, &sends_issued, p, src_lp] {
        const int seq = sends_issued[src_lp]++;
        eng.lp(src_lp).send(0, p.intended, [&eng, &log, p, src_lp, seq] {
          log.push_back({eng.lp(0).now(), p.intended, src_lp, seq});
        });
      });
    }
  }
  const auto stats = eng.run_until(100.0);
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kSenders) * kSendsEach);
  EXPECT_EQ(stats.past_clamped, 0u);

  // Invariant 1: violations == exactly the sends observed later than asked.
  std::uint64_t clamped = 0;
  for (const auto& d : log) {
    EXPECT_GE(d.exec_time, d.intended);
    if (d.exec_time > d.intended) ++clamped;
  }
  EXPECT_EQ(stats.lookahead_violations, clamped);
  EXPECT_GT(clamped, 0u) << "fuzz plan never sent inside the lookahead";
  EXPECT_LT(clamped, static_cast<std::uint64_t>(kSenders) * kSendsEach)
      << "fuzz plan never sent beyond the lookahead";

  // Invariant 2: equal-time deliveries are merged in (src_lp, src_seq)
  // order. Intended times and clamp bounds (fire time + lookahead) are
  // continuous draws, so equal execution times only arise within one
  // delivery batch and the full lexicographic order applies.
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LE(log[i - 1].exec_time, log[i].exec_time);
    if (log[i - 1].exec_time == log[i].exec_time) {
      EXPECT_TRUE(log[i - 1].src < log[i].src ||
                  (log[i - 1].src == log[i].src && log[i - 1].seq < log[i].seq))
          << "merge order violated at log index " << i << ": prev(t=" << log[i - 1].exec_time
          << " intended=" << log[i - 1].intended << " src=" << log[i - 1].src
          << " seq=" << log[i - 1].seq << ") cur(t=" << log[i].exec_time
          << " intended=" << log[i].intended << " src=" << log[i].src
          << " seq=" << log[i].seq << ")";
    }
  }
  return log;
}

}  // namespace

TEST(ParallelEngine, FuzzedCrossSendsClampedSortedAndThreadInvariant) {
  for (std::uint64_t seed : {11u, 23u, 47u}) {
    const auto one = run_fuzzed_cross_sends(1, seed);
    const auto two = run_fuzzed_cross_sends(2, seed);
    const auto four = run_fuzzed_cross_sends(4, seed);
    EXPECT_EQ(one, two) << "seed " << seed;
    EXPECT_EQ(one, four) << "seed " << seed;
  }
}

TEST(ParallelEngine, EventBudgetThrowsInRawMode) {
  // Spinning through the Lp's own schedule_in, as a model written against
  // the Lp interface does.
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  cfg.max_events = 50;
  core::ParallelEngine eng(cfg);
  std::function<void()> spin = [&] { eng.lp(1).schedule_in(0, spin); };
  eng.lp(1).schedule_at(0, spin);
  eng.lp(0).schedule_at(0.5, [] {});
  EXPECT_THROW(eng.run_until(10.0), core::EventBudgetExceeded);
}

TEST(ParallelEngine, EventBudgetThrowsInHostedMode) {
  // Spinning straight through the LP's engine, as a hosted facade does.
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  cfg.max_events = 50;
  core::ParallelEngine eng(cfg);
  core::Engine& lp1 = eng.lp(1).engine();
  std::function<void()> spin = [&] { lp1.schedule_in(0, spin); };
  lp1.schedule_at(0, spin);
  eng.lp(0).engine().schedule_at(0.5, [] {});
  EXPECT_THROW(eng.run_until(10.0), core::EventBudgetExceeded);
}

TEST(ParallelEngine, EventBudgetZeroMeansUnlimited) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  std::atomic<int> n = 0;  // both LP threads count into it
  for (int i = 0; i < 200; ++i) eng.lp(i % 2).schedule_at(0.1 * i, [&n] { ++n; });
  EXPECT_NO_THROW(eng.run_until(100.0));
  EXPECT_EQ(n, 200);
}

TEST(ParallelEngine, HonestModelsUnderBudgetUnaffected) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = 1.0;
  cfg.max_events = 1000;
  core::ParallelEngine eng(cfg);
  std::atomic<int> n = 0;  // both LP threads count into it
  for (int i = 0; i < 100; ++i) eng.lp(i % 2).schedule_at(0.1 * i, [&n] { ++n; });
  const auto stats = eng.run_until(100.0);
  EXPECT_EQ(n, 100);
  EXPECT_EQ(stats.events, 100u);
}

// --- declared channels --------------------------------------------------------

TEST(ParallelEngine, ConnectRejectsBadChannels) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 3;
  cfg.num_threads = 1;
  core::ParallelEngine eng(cfg);
  EXPECT_FALSE(eng.channels_declared());
  EXPECT_THROW(eng.connect(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(eng.connect(1, 1, 1.0), std::invalid_argument);
  for (double d : {0.0, -1.0, std::nan("")}) {
    EXPECT_THROW(eng.connect(0, 1, d), std::invalid_argument) << d;
  }
  EXPECT_FALSE(eng.channels_declared());
  eng.connect(0, 1, 1.0);
  EXPECT_TRUE(eng.channels_declared());
}

TEST(ParallelEngine, UndeclaredSendThrowsLogicError) {
  // Once one channel is declared, the others are gone: a send on any other
  // pair throws in every build type, at every thread count.
  for (unsigned threads : {1u, 2u}) {
    core::ParallelEngine::Config cfg;
    cfg.num_lps = 2;
    cfg.num_threads = threads;
    core::ParallelEngine eng(cfg);
    eng.connect(0, 1, 1.0);
    int delivered = 0;
    eng.lp(0).schedule_at(0.5, [&] { eng.lp(0).send(1, 2.0, [&] { ++delivered; }); });
    eng.lp(1).schedule_at(0.5, [&] { eng.lp(1).send(0, 2.0, [] {}); });
    try {
      eng.run_until(10.0);
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("no channel from LP 1 to LP 0"), std::string::npos) << what;
    }
  }
}

TEST(ParallelEngine, DeclaredSendsClampToTheirChannelDelay) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 1;
  core::ParallelEngine eng(cfg);
  eng.connect(0, 1, 3.0);
  eng.connect(0, 1, 2.0);  // a repeated pair keeps the smaller delay
  std::vector<double> at;
  eng.lp(0).schedule_at(1.0, [&] {
    eng.lp(0).send(1, 2.5, [&] { at.push_back(eng.lp(1).now()); });  // below 1 + 2
    eng.lp(0).send(1, 3.0, [&] { at.push_back(eng.lp(1).now()); });  // exactly 1 + 2
  });
  const auto stats = eng.run_until(10.0);
  EXPECT_EQ(at, (std::vector<double>{3.0, 3.0}));
  EXPECT_EQ(stats.lookahead_violations, 1u);
}

TEST(ParallelEngine, UnreachableLpRunsToTheHorizonInOneRound) {
  // A star out of LP 0: nothing can reach LP 0, so it drains in the first
  // round; the leaves wait for it, then drain in the second.
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 4;
  cfg.num_threads = 1;
  core::ParallelEngine eng(cfg);
  for (unsigned leaf = 1; leaf < 4; ++leaf) eng.connect(0, leaf, 0.5);
  std::vector<int> got(4, 0);  // slot i touched by LP i only
  for (int k = 0; k < 50; ++k) {
    eng.lp(0).schedule_at(k, [&eng, &got, k] {
      ++got[0];
      eng.lp(0).send(1 + k % 3, k + 0.5, [&got, k] { ++got[1 + k % 3]; });
    });
  }
  for (unsigned leaf = 1; leaf < 4; ++leaf) eng.lp(leaf).schedule_at(0.25, [] {});
  const auto stats = eng.run_until(core::kInfTime);
  EXPECT_EQ(got, (std::vector<int>{50, 17, 17, 16}));
  EXPECT_EQ(stats.windows, 2u);
  EXPECT_EQ(stats.cross_messages, 50u);
  EXPECT_EQ(stats.lookahead_violations, 0u);
  EXPECT_EQ(stats.past_clamped, 0u);
  // Drained to the last event, not to the infinite horizon.
  EXPECT_EQ(eng.lp(0).now(), 49.0);
}

// --- configuration validation -----------------------------------------------

TEST(ParallelEngine, RejectsZeroLps) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 0;
  EXPECT_THROW(core::ParallelEngine{cfg}, std::invalid_argument);
}

TEST(ParallelEngine, RejectsZeroNegativeAndNanLookahead) {
  // A window that does not move forward would make run_until loop forever.
  for (double la : {0.0, -1.0, std::nan("")}) {
    core::ParallelEngine::Config cfg;
    cfg.lookahead = la;
    EXPECT_THROW(core::ParallelEngine{cfg}, std::invalid_argument) << la;
  }
}

// --- round loop: inline path, persistent helpers, next-time cache -----------

TEST(ParallelEngine, InfiniteLookaheadRunsOneClosedWindow) {
  // The serial-fallback shape: an unbounded window and horizon is one final
  // (closed) window that drains every LP.
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 2;
  cfg.num_threads = 2;
  cfg.lookahead = core::kInfTime;
  core::ParallelEngine eng(cfg);
  eng.lp(0).schedule_at(1.0, [] {});
  eng.lp(1).schedule_at(2.0, [] {});
  eng.lp(1).schedule_at(3.0, [] {});
  const auto stats = eng.run_until(core::kInfTime);
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.windows, 1u);
}

namespace {

// PHOLD on one engine driven through successive run_until() horizons.
// Returns, per LP, the FNV-1a digest of every hop's (time, destination) in
// execution order, followed by the engine's window and event totals.
std::vector<std::uint64_t> phold_digests(unsigned num_threads,
                                         std::initializer_list<double> horizons,
                                         std::uint64_t seed) {
  constexpr unsigned kLps = 6;
  core::ParallelEngine::Config cfg;
  cfg.num_lps = kLps;
  cfg.num_threads = num_threads;
  cfg.lookahead = 1.0;
  cfg.seed = seed;
  // LPs requeue the first event past each window and then receive earlier
  // deliveries: the calendar queue's hardest pattern.
  cfg.queue = core::QueueKind::kCalendarQueue;
  core::ParallelEngine eng(cfg);
  std::vector<core::StateHash> digest(kLps);  // slot i touched by LP i only

  std::function<void(unsigned)> hop = [&](unsigned lp_idx) {
    auto& lp = eng.lp(lp_idx);
    const auto dst = static_cast<unsigned>(lp.rng().uniform_int(0, kLps - 1));
    const double t = lp.now() + cfg.lookahead + lp.rng().exponential(0.5);
    digest[lp_idx].mix(lp.now()).mix(static_cast<std::uint64_t>(dst));
    if (dst == lp_idx) {
      lp.schedule_at(t, [&hop, dst] { hop(dst); });
    } else {
      lp.send(dst, t, [&hop, dst] { hop(dst); });
    }
  };
  for (unsigned i = 0; i < kLps; ++i) {
    for (int m = 0; m < 4; ++m) eng.lp(i).schedule_at(0.0, [&hop, i] { hop(i); });
  }
  core::ParallelEngine::Stats stats;
  for (double t_end : horizons) stats = eng.run_until(t_end);
  EXPECT_EQ(stats.lookahead_violations, 0u);
  EXPECT_EQ(stats.past_clamped, 0u);
  std::vector<std::uint64_t> out;
  for (const auto& d : digest) out.push_back(d.value());
  out.push_back(stats.windows);
  out.push_back(stats.events);
  return out;
}

}  // namespace

TEST(ParallelEngine, HostedDeterministicAcrossThreadCounts) {
  // Per-LP hop digests, then windows (57) and events (993), recorded before
  // the bare-queue LP mode was removed: it and engine-hosted LPs both
  // produced exactly these values.
  const std::vector<std::uint64_t> pinned = {
      0x7e8334a0113dba6dull, 0xae9d2cc726c6a80dull, 0xa108c19de3f0a046ull,
      0xe60f5b0315267f0full, 0x7421006615ea66ceull, 0x5666031b739e05cbull, 57, 993};
  for (unsigned threads : {1u, 2u, 4u}) {
    EXPECT_EQ(phold_digests(threads, {60.0}, 5), pinned) << threads << " threads";
  }
}

TEST(ParallelEngine, RunUntilResumesWithPersistentHelpers) {
  // Two calls on one 4-thread engine: the helpers started by the constructor
  // serve both, and the second call continues exactly where the first
  // stopped — same hops as one call, and the same as the inline 1-thread run.
  const auto split = phold_digests(4, {17.5, 60.0}, 9);
  EXPECT_EQ(split, phold_digests(1, {17.5, 60.0}, 9));
  const auto whole = phold_digests(4, {60.0}, 9);
  const std::size_t hops = whole.size() - 2;  // per-LP digests, then windows, events
  EXPECT_TRUE(std::equal(split.begin(), split.begin() + hops, whole.begin()));
  EXPECT_EQ(split.back(), whole.back());
}

TEST(ParallelEngine, EventsScheduledBetweenRunsAreSeen) {
  // The next-time cache is rebuilt at each run_until(): an event scheduled
  // directly between calls, earlier than anything the LP had pending, runs
  // at its own time.
  core::ParallelEngine::Config cfg;
  cfg.num_lps = 3;
  cfg.num_threads = 4;
  cfg.lookahead = 1.0;
  core::ParallelEngine eng(cfg);
  std::vector<double> ran;  // LP 2 only
  eng.lp(2).schedule_at(50.0, [&] { ran.push_back(eng.lp(2).now()); });
  eng.lp(0).schedule_at(1.0, [] {});
  eng.lp(1).schedule_at(1.5, [] {});
  eng.run_until(10.0);
  EXPECT_TRUE(ran.empty());
  eng.lp(2).engine().schedule_at(12.0, [&] { ran.push_back(eng.lp(2).now()); });
  const auto stats = eng.run_until(100.0);
  EXPECT_EQ(ran, (std::vector<double>{12.0, 50.0}));
  EXPECT_EQ(stats.events, 4u);
}

TEST(ParallelEngine, LowestIndexExceptionRethrownAtEveryThreadCount) {
  // LPs 1 and 2 both fail in the first window, one by tripping the event
  // budget and one with a model exception. Whichever has the lower index is
  // rethrown, on the inline 1-thread path as on the handed-off one.
  for (unsigned threads : {1u, 4u}) {
    for (bool budget_first : {true, false}) {
      core::ParallelEngine::Config cfg;
      cfg.num_lps = 3;
      cfg.num_threads = threads;
      cfg.lookahead = 1.0;
      cfg.max_events = 50;
      core::ParallelEngine eng(cfg);
      const unsigned spinner = budget_first ? 1 : 2;
      const unsigned thrower = budget_first ? 2 : 1;
      std::function<void()> spin = [&] { eng.lp(spinner).schedule_in(0, spin); };
      eng.lp(spinner).schedule_at(0, spin);
      eng.lp(thrower).schedule_at(0.5, [] { throw std::logic_error("model bug"); });
      eng.lp(0).schedule_at(0.5, [] {});
      bool budget = false;
      bool model = false;
      try {
        eng.run_until(10.0);
      } catch (const core::EventBudgetExceeded&) {
        budget = true;
      } catch (const std::logic_error&) {
        model = true;
      }
      EXPECT_EQ(budget, budget_first) << threads << " threads";
      EXPECT_EQ(model, !budget_first) << threads << " threads";
    }
  }
}

TEST(ParallelEngine, SendToMissingLpThrowsOutOfRange) {
  // Both LPs 1 and 2 send past the last LP in the first window; the lower
  // index's exception is rethrown, naming its destination and num_lps().
  for (unsigned threads : {1u, 4u}) {
    core::ParallelEngine::Config cfg;
    cfg.num_lps = 3;
    cfg.num_threads = threads;
    cfg.lookahead = 1.0;
    core::ParallelEngine eng(cfg);
    eng.lp(0).schedule_at(0.5, [] {});
    eng.lp(1).schedule_at(0.5, [&] { eng.lp(1).send(3, 5.0, [] {}); });
    eng.lp(2).schedule_at(0.5, [&] { eng.lp(2).send(7, 5.0, [] {}); });
    try {
      eng.run_until(10.0);
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::out_of_range& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("dst_lp 3 "), std::string::npos) << what;
      EXPECT_NE(what.find("num_lps() = 3"), std::string::npos) << what;
    }
  }
}

TEST(ParallelEngine, IdleEnginesStartAndStopHelpersCleanly) {
  // Helpers are persistent threads: constructing and destroying engines that
  // never run must neither hang nor leave threads behind.
  const auto thread_count = [] {
    std::size_t n = 0;
    std::error_code ec;
    for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
         !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
      ++n;
    }
    return n;
  };
  const std::size_t before = thread_count();
  for (int i = 0; i < 200; ++i) {
    core::ParallelEngine::Config cfg;
    cfg.num_lps = 4;
    cfg.num_threads = 4;
    auto eng = std::make_unique<core::ParallelEngine>(cfg);
    if (i % 50 == 0) {
      EXPECT_EQ(eng->run_until(10.0).windows, 0u);
    }
  }
  // One engine's helpers would be 3 threads; the slack of 1 absorbs the
  // background thread a sanitizer runtime may start or retire meanwhile.
  EXPECT_LE(thread_count(), before + 1);  // 0 <= 1 where /proc is absent
}

TEST(ParallelEngine, EnginesStopRightAfterHandedOffWindows) {
  // A helper can still be claiming when run_until() returns and the engine
  // is destroyed at once; it must see the stop, never wait on it. More
  // threads than cores get helpers preempted inside that gap.
  for (int i = 0; i < 2000; ++i) {
    core::ParallelEngine::Config cfg;
    cfg.num_lps = 16;
    cfg.num_threads = 16;
    core::ParallelEngine eng(cfg);
    for (unsigned lp = 0; lp < 16; ++lp) {
      for (int k = 0; k < 3; ++k) eng.lp(lp).schedule_at(k, [] {});
    }
    ASSERT_EQ(eng.run_until(10.0).events, 48u);
  }
}

TEST(ParallelEngine, InlineWindowsAndBarrierWaitReported) {
  // One thread: every round is inline and the barrier clock is never read.
  const auto run = [](unsigned threads) {
    core::ParallelEngine::Config cfg;
    cfg.num_lps = 2;
    cfg.num_threads = threads;
    cfg.lookahead = 1.0;
    core::ParallelEngine eng(cfg);
    for (int i = 0; i < 20; ++i) {
      eng.lp(0).schedule_at(i, [] {});
      if (i % 2 == 0) eng.lp(1).schedule_at(i + 0.5, [] {});
    }
    return eng.run_until(100.0);
  };
  // Each round takes two of LP 0's events and one of LP 1's: LP 0 runs to
  // LP 1's next event + 1, LP 1 to LP 0's next event + 1.
  const auto one = run(1);
  EXPECT_EQ(one.windows, 10u);
  EXPECT_EQ(one.inline_windows, 10u);
  EXPECT_EQ(one.barrier_wait_s, 0.0);
  // Two threads: both LPs have work in every round, so each is handed off.
  const auto two = run(2);
  EXPECT_EQ(two.windows, 10u);
  EXPECT_EQ(two.inline_windows, 0u);
  EXPECT_GE(two.barrier_wait_s, 0.0);
}
