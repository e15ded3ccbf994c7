// Reference-model fuzzer for core::ParallelEngine's synchronisation.
//
// A seeded PHOLD-like program runs twice: on a ParallelEngine with 1, 2 or
// 4 LPs at 1 or 4 threads, and on one serial core::Engine that hosts every
// LP's events. Each event records (time, LP, payload) and spawns children
// whose destination, delay and payload are drawn from its own payload, never
// from a stream shared by several events. The set of executed events is then
// a function of the program alone, whatever order a legal schedule picks
// among simultaneous events, so the two engines must agree on it exactly:
// an LP that runs past a message it has not yet received executes that
// message late (a clamp) or a cancel too late, and the traces part.
//
// Messages leave at exactly the sender's clock plus the channel's delay, at
// a random later time, or aimed at a pending "anchor" event of the
// destination, so deliveries land before, at and after the event an LP
// window stopped at. Some messages cancel the destination's next pending
// anchor, which is often that held front event. Each case drives several
// run_until() horizons, one of them exactly on an anchor, and compares the
// trace after each.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel.hpp"
#include "core/rng.hpp"

using namespace lsds;
using core::SimTime;

namespace {

constexpr SimTime kInf = core::kInfTime;

/// Which LP pairs may send, and how soon. `delay[src * lps + dst]` is the
/// channel's minimum delay, kInf where there is none.
struct Graph {
  std::string name;
  unsigned lps = 1;
  std::vector<double> delay;

  double at(unsigned src, unsigned dst) const { return delay[src * lps + dst]; }
  Graph& edge(unsigned src, unsigned dst, double d) {
    delay[src * lps + dst] = d;
    return *this;
  }
};

Graph empty(std::string name, unsigned lps) {
  return Graph{std::move(name), lps, std::vector<double>(lps * lps, kInf)};
}

/// Every pair at one delay.
Graph complete(unsigned lps, double delay) {
  Graph g = empty("complete", lps);
  for (unsigned s = 0; s < lps; ++s) {
    for (unsigned d = 0; d < lps; ++d) {
      if (s != d) g.edge(s, d, delay);
    }
  }
  return g;
}

/// 0 -> 1 -> ... -> lps-1: each LP hears only from the one before it, which
/// may itself be idle until a message from further up arrives.
Graph chain(unsigned lps) {
  Graph g = empty("chain", lps);
  for (unsigned i = 0; i + 1 < lps; ++i) g.edge(i, i + 1, 0.4 + 0.3 * i);
  return g;
}

/// LP 0 exchanges with every other LP, which talk to no one else: the
/// broker shape, whose only cycles run through the hub.
Graph star(unsigned lps) {
  Graph g = empty("star", lps);
  for (unsigned i = 1; i < lps; ++i) g.edge(0, i, 0.5).edge(i, 0, 0.25 * i);
  return g;
}

/// 0 -> 1 -> ... -> 0 with delays that differ per channel, plus one chord
/// 0 -> 2 that is slower than the path through 1.
Graph cycle(unsigned lps) {
  Graph g = empty("cycle", lps);
  const double d[] = {0.3, 1.1, 0.45, 0.8};
  for (unsigned i = 0; i < lps; ++i) g.edge(i, (i + 1) % lps, d[i % 4]);
  if (lps > 2) g.edge(0, 2, 2.0);
  return g;
}

struct Record {
  SimTime time;
  std::uint64_t payload;
  bool operator<(const Record& o) const {
    return std::tie(time, payload) < std::tie(o.time, o.payload);
  }
  bool operator==(const Record& o) const { return time == o.time && payload == o.payload; }
};

/// The engine a Program runs on: one serial Engine for every LP, or the LPs
/// of a ParallelEngine.
class Host {
 public:
  virtual ~Host() = default;
  virtual SimTime now(unsigned lp) = 0;
  virtual core::EventHandle local(unsigned lp, SimTime t, core::EventFn fn) = 0;
  virtual void send(unsigned src, unsigned dst, SimTime t, core::EventFn fn) = 0;
  virtual bool cancel(unsigned lp, const core::EventHandle& h) = 0;
};

class SerialHost final : public Host {
 public:
  core::Engine engine{core::Engine::Config{.queue = core::QueueKind::kCalendarQueue}};
  SimTime now(unsigned) override { return engine.now(); }
  core::EventHandle local(unsigned, SimTime t, core::EventFn fn) override {
    return engine.schedule_at(t, std::move(fn));
  }
  void send(unsigned, unsigned, SimTime t, core::EventFn fn) override {
    engine.schedule_at(t, std::move(fn));
  }
  bool cancel(unsigned, const core::EventHandle& h) override { return engine.cancel(h); }
};

class ParallelHost final : public Host {
 public:
  ParallelHost(const Graph& g, unsigned threads)
      : pe(core::ParallelEngine::Config{.num_lps = g.lps,
                                         .num_threads = threads,
                                         .queue = core::QueueKind::kCalendarQueue}) {
    for (unsigned s = 0; s < g.lps; ++s) {
      for (unsigned d = 0; d < g.lps; ++d) {
        if (g.at(s, d) < kInf) pe.connect(s, d, g.at(s, d));
      }
    }
  }
  core::ParallelEngine pe;
  SimTime now(unsigned lp) override { return pe.lp(lp).now(); }
  core::EventHandle local(unsigned lp, SimTime t, core::EventFn fn) override {
    return pe.lp(lp).engine().schedule_at(t, std::move(fn));
  }
  void send(unsigned src, unsigned dst, SimTime t, core::EventFn fn) override {
    pe.lp(src).send(dst, t, std::move(fn));
  }
  bool cancel(unsigned lp, const core::EventHandle& h) override {
    return pe.lp(lp).engine().cancel(h);
  }
};

double unit(std::uint64_t& s) {
  return static_cast<double>(core::splitmix64(s) >> 11) * 0x1.0p-53;
}

double exp_draw(std::uint64_t& s, double mean) { return -mean * std::log1p(-unit(s)); }

/// The seeded program. All of an LP's state is touched only by events on
/// that LP.
class Program {
 public:
  struct Coverage {
    std::uint64_t exact_sends = 0;   // at sender clock + channel delay
    std::uint64_t aimed_hits = 0;    // sent to land exactly on an anchor's time
    std::uint64_t cancels = 0;       // anchors cancelled by a message
  };

  Program(const Graph& g, std::uint64_t seed, Host& host) : g_(g), host_(host), lp_(g.lps) {
    std::uint64_t s = seed;
    for (unsigned lp = 0; lp < g.lps; ++lp) {
      Lp& st = lp_[lp];
      st.targets.push_back(lp);
      for (unsigned d = 0; d < g.lps; ++d) {
        if (d != lp && g.at(lp, d) < kInf) st.targets.push_back(d);
      }
      for (int a = 0; a < 12; ++a) st.anchor_time.push_back(unit(s) * 14.0);
      std::sort(st.anchor_time.begin(), st.anchor_time.end());
    }
    // Anchors first, then roots, each LP in index order: both hosts queue
    // the same set whatever their sequence numbers.
    for (unsigned lp = 0; lp < g.lps; ++lp) {
      Lp& st = lp_[lp];
      st.pending.assign(st.anchor_time.size(), 1);
      for (std::size_t a = 0; a < st.anchor_time.size(); ++a) {
        const std::uint64_t payload = core::splitmix64(s);
        st.anchor.push_back(host_.local(lp, st.anchor_time[a], [this, lp, a, payload] {
          lp_[lp].pending[a] = 0;
          fire(lp, payload, 5, false);
        }));
      }
      for (int r = 0; r < 6; ++r) {
        const std::uint64_t payload = core::splitmix64(s);
        host_.local(lp, unit(s) * 3.0, [this, lp, payload] { fire(lp, payload, 7, false); });
      }
    }
  }

  /// Anchor times of `lp`, ascending: the horizons aim at them.
  const std::vector<SimTime>& anchors(unsigned lp) const { return lp_[lp].anchor_time; }

  /// Per-LP records so far, each sorted by (time, payload).
  std::vector<std::vector<Record>> records() const {
    std::vector<std::vector<Record>> out;
    for (const Lp& st : lp_) {
      out.push_back(st.records);
      std::sort(out.back().begin(), out.back().end());
    }
    return out;
  }

  /// Per-LP order-free digest of every record.
  std::vector<std::uint64_t> digests() const {
    std::vector<std::uint64_t> out;
    for (const Lp& st : lp_) out.push_back(st.digest);
    return out;
  }

  Coverage coverage() const {
    Coverage c;
    for (const Lp& st : lp_) {
      c.exact_sends += st.cov.exact_sends;
      c.aimed_hits += st.cov.aimed_hits;
      c.cancels += st.cov.cancels;
    }
    return c;
  }

 private:
  struct Lp {
    std::vector<unsigned> targets;  // itself, then every LP it may send to
    std::vector<SimTime> anchor_time;
    std::vector<core::EventHandle> anchor;
    std::vector<char> pending;      // [anchor]: neither run nor cancelled
    std::vector<Record> records;
    std::uint64_t digest = 0;
    Coverage cov;
  };

  void fire(unsigned lp, std::uint64_t payload, int ttl, bool cancels) {
    Lp& st = lp_[lp];
    const SimTime now = host_.now(lp);
    st.records.push_back({now, payload});
    std::uint64_t h = payload ^ std::bit_cast<std::uint64_t>(now);
    st.digest += core::splitmix64(h);  // a sum: independent of tie order
    if (cancels) {
      // The earliest anchor strictly after now: never one that ties with
      // this event, whose order against it a legal schedule may pick.
      for (std::size_t a = 0; a < st.anchor.size(); ++a) {
        if (!st.pending[a] || st.anchor_time[a] <= now) continue;
        if (host_.cancel(lp, st.anchor[a])) {
          st.pending[a] = 0;
          ++st.cov.cancels;
        }
        break;
      }
    }
    if (ttl == 0) return;
    std::uint64_t s = payload;
    const std::uint64_t shape = core::splitmix64(s);
    const int kids = static_cast<int>(shape % 4 == 0 ? 0 : shape % 4 == 1 ? 1 : 2);
    for (int k = 0; k < kids; ++k) {
      const std::uint64_t child = core::splitmix64(s);
      const unsigned dst = st.targets[child % st.targets.size()];
      if (dst == lp) {
        // A quarter of local children tie with their parent.
        const SimTime t = (child >> 20) % 4 == 0 ? now : now + exp_draw(s, 0.6);
        host_.local(lp, t, [this, lp, child, ttl] { fire(lp, child, ttl - 1, false); });
        continue;
      }
      const SimTime earliest = now + g_.at(lp, dst);
      SimTime t = earliest;
      bool cancel = false;
      switch ((child >> 20) % 4) {
        case 0:
          ++st.cov.exact_sends;
          break;
        case 1:
          t = earliest + exp_draw(s, 0.8);
          break;
        case 2: {
          // On the first anchor of dst at or after the earliest legal time:
          // the destination's front event, when its window stopped there.
          const auto& times = lp_[dst].anchor_time;
          const auto it = std::lower_bound(times.begin(), times.end(), earliest);
          if (it != times.end()) {
            t = *it;
            ++st.cov.aimed_hits;
          }
          break;
        }
        default:
          t = earliest + exp_draw(s, 0.3);
          cancel = true;
          break;
      }
      host_.send(lp, dst, t, [this, dst, child, ttl, cancel] {
        fire(dst, child, ttl - 1, cancel);
      });
    }
  }

  const Graph& g_;
  Host& host_;
  std::vector<Lp> lp_;
};

/// Horizons: an open one, one exactly on an anchor of the last LP, then
/// the drain.
std::vector<SimTime> horizons(const Program& p, unsigned lps, std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x9e3779b97f4a7c15ull;
  const auto& a = p.anchors(lps - 1);
  return {2.0 + unit(s) * 3.0, a[a.size() / 2], kInf};
}

struct Totals {
  Program::Coverage cov;
  std::uint64_t rounds = 0;
  std::uint64_t cross = 0;
};

void check_case(const Graph& g, unsigned threads, std::uint64_t seed, Totals& totals) {
  SCOPED_TRACE(g.name + " graph, " + std::to_string(g.lps) + " LPs, " +
               std::to_string(threads) + " threads, seed " + std::to_string(seed));
  SerialHost serial;
  Program ref(g, seed, serial);
  ParallelHost par(g, threads);
  Program run(g, seed, par);
  core::ParallelEngine::Stats stats;
  for (SimTime h : horizons(ref, g.lps, seed)) {
    serial.engine.run_until(h);
    stats = par.pe.run_until(h);
    const auto want = ref.records();
    const auto got = run.records();
    for (unsigned lp = 0; lp < g.lps; ++lp) {
      ASSERT_EQ(got[lp].size(), want[lp].size()) << "LP " << lp << " at horizon " << h;
      for (std::size_t i = 0; i < want[lp].size(); ++i) {
        ASSERT_EQ(got[lp][i], want[lp][i])
            << "LP " << lp << " record " << i << " at horizon " << h << ": parallel ran ("
            << got[lp][i].time << ", " << got[lp][i].payload << "), serial ("
            << want[lp][i].time << ", " << want[lp][i].payload << ")";
      }
    }
  }
  EXPECT_EQ(run.digests(), ref.digests());
  EXPECT_EQ(stats.events, serial.engine.stats().executed);
  EXPECT_EQ(stats.lookahead_violations, 0u);
  EXPECT_EQ(stats.past_clamped, 0u);
  const auto c = run.coverage();
  totals.cov.exact_sends += c.exact_sends;
  totals.cov.aimed_hits += c.aimed_hits;
  totals.cov.cancels += c.cancels;
  totals.rounds += stats.windows;
  totals.cross += stats.cross_messages;
}

void fuzz(const std::vector<Graph>& graphs, int seeds) {
  Totals totals;
  for (const Graph& g : graphs) {
    for (unsigned threads : {1u, 4u}) {
      for (int seed = 1; seed <= seeds; ++seed) {
        check_case(g, threads, static_cast<std::uint64_t>(seed) * 7919 + g.lps, totals);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The program must actually reach the cases it exists for.
  EXPECT_GT(totals.cov.exact_sends, 0u);
  EXPECT_GT(totals.cov.aimed_hits, 0u);
  EXPECT_GT(totals.cov.cancels, 0u);
  EXPECT_GT(totals.cross, 0u);
}

}  // namespace

TEST(ParallelFuzz, CompleteGraphMatchesSerial) {
  fuzz({complete(1, 1.0), complete(2, 0.75), complete(4, 0.5)}, 20);
}

TEST(ParallelFuzz, ChainMatchesSerial) { fuzz({chain(2), chain(4)}, 20); }

TEST(ParallelFuzz, StarMatchesSerial) { fuzz({star(2), star(4)}, 20); }

TEST(ParallelFuzz, NonUniformCycleMatchesSerial) { fuzz({cycle(2), cycle(4)}, 20); }
