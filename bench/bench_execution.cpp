// Experiment E3 — centralized vs distributed (threaded) execution
// (Section 3).
//
// Paper claims: "a pure serial simulation execution … can not be a reality
// when addressing the problem of simulating large scale distributed
// systems"; "Modern simulators make use of at least the threading
// mechanisms provided by the underlying operating system"; yet distributed
// simulation remains hard (Misra 1986, Fujimoto 1993).
//
// Workload: PHOLD — the standard parallel-DES benchmark. 16 LPs, 8
// messages per LP, exponential hop delays above the lookahead. The same
// model runs on the sequential Engine (centralized) and on the
// conservative ParallelEngine at 1, 2, 4 and 8 threads. The calling thread
// runs LPs itself; extra threads are persistent helpers that join rounds
// with more than one busy LP. PHOLD sends between every pair of LPs, so each
// LP's horizon is one lookahead past its neighbours' next events: ~5 events
// per LP per round, and the rows mostly measure the cost of synchronization,
// not speedup. The bench exits 1 with a FAIL line unless the event, round
// and cross-LP counts agree across thread counts and every parallel tier
// trace matches its serial reference. The tier sweep goes to
// BENCH_parallel.json.
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_record.hpp"
#include "core/engine.hpp"
#include "core/parallel.hpp"
#include "sim/parallel/tier_model.hpp"
#include "stats/table.hpp"
#include "util/strings.hpp"

namespace core = lsds::core;
namespace obs = lsds::obs;

namespace {

constexpr unsigned kLps = 16;
constexpr int kPopulationPerLp = 8;
constexpr double kLookahead = 1.0;
constexpr double kHorizon = 2000.0;

struct Outcome {
  double wall_ms = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t cross = 0;
};

// Sequential reference: same PHOLD logic on the centralized engine.
Outcome run_centralized() {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 42});
  auto& rng = eng.rng("phold");
  std::function<void()> hop = [&] {
    const double dt = kLookahead + rng.exponential(0.5);
    eng.schedule_in(dt, hop);
  };
  for (unsigned i = 0; i < kLps * kPopulationPerLp; ++i) eng.schedule_at(0.0, hop);
  const auto t0 = std::chrono::steady_clock::now();
  eng.run_until(kHorizon);
  const auto t1 = std::chrono::steady_clock::now();
  Outcome o;
  o.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  o.events = eng.stats().executed;
  return o;
}

Outcome run_parallel(unsigned threads) {
  core::ParallelEngine::Config cfg;
  cfg.num_lps = kLps;
  cfg.num_threads = threads;
  cfg.lookahead = kLookahead;
  cfg.seed = 42;
  core::ParallelEngine eng(cfg);
  std::function<void(unsigned)> hop = [&](unsigned lp_idx) {
    auto& lp = eng.lp(lp_idx);
    const auto dst = static_cast<unsigned>(lp.rng().uniform_int(0, kLps - 1));
    const double t = lp.now() + kLookahead + lp.rng().exponential(0.5);
    if (dst == lp_idx) {
      lp.schedule_at(t, [&hop, dst] { hop(dst); });
    } else {
      lp.send(dst, t, [&hop, dst] { hop(dst); });
    }
  };
  for (unsigned i = 0; i < kLps; ++i) {
    for (int m = 0; m < kPopulationPerLp; ++m) {
      eng.lp(i).schedule_at(0.0, [&hop, i] { hop(i); });
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto stats = eng.run_until(kHorizon);
  const auto t1 = std::chrono::steady_clock::now();
  Outcome o;
  o.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  o.events = stats.events;
  o.windows = stats.windows;
  o.cross = stats.cross_messages;
  return o;
}

// --- model-level sweep: the LHC tier scenario on ParallelGrid ---------------
//
// Serial vs parallel execution of the MONARC-style tier model (sites x
// threads), the workload the parallel Grid tier exists for. Every parallel
// cell is differentially checked against its serial reference trace.

struct TierCell {
  std::size_t sites = 0;
  unsigned threads = 0;   // 0 = serial reference
  double wall_ms = 0;
  double speedup = 1.0;   // serial wall / this wall
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t inline_windows = 0;  // windows the caller ran without helpers
  double barrier_wait_ms = 0;        // caller waiting for helpers
  std::uint64_t cross = 0;
  double lookahead = 0;
  bool identical = true;  // trace matches the serial reference
};

lsds::sim::monarc::Config tier_config(std::size_t num_t1, std::size_t t2_per_t1) {
  lsds::sim::monarc::Config cfg;
  cfg.num_t1 = num_t1;
  cfg.t2_per_t1 = t2_per_t1;
  cfg.num_files = 300;
  cfg.file_bytes = 20e9;
  cfg.production_interval = 40;
  cfg.t0_t1_bandwidth = 10e9 / 8;
  cfg.t2_fraction = 0.3;
  cfg.archive_to_tape = true;
  return cfg;
}

std::vector<TierCell> run_tier_sweep(std::size_t num_t1, std::size_t t2_per_t1) {
  namespace par = lsds::sim::parallel;
  const auto cfg = tier_config(num_t1, t2_per_t1);
  const std::size_t sites = 1 + num_t1 + num_t1 * t2_per_t1;
  std::vector<TierCell> cells;

  const auto s0 = std::chrono::steady_clock::now();
  const auto serial = par::run_tier(cfg, {});
  const auto s1 = std::chrono::steady_clock::now();
  const double serial_ms = std::chrono::duration<double, std::milli>(s1 - s0).count();
  const std::string ref = serial.trace();
  cells.push_back({sites, 0, serial_ms, 1.0, serial.exec.engine.events, 0, 0, 0, 0, 0, true});

  for (unsigned threads : {1u, 2u, 4u}) {
    lsds::hosts::ExecutionSpec spec;
    spec.parallel = true;
    spec.threads = threads;
    spec.lps = 4;  // fixed decomposition: only the worker count varies
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = par::run_tier(cfg, spec);
    const auto t1 = std::chrono::steady_clock::now();
    TierCell c;
    c.sites = sites;
    c.threads = threads;
    c.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    c.speedup = serial_ms / c.wall_ms;
    c.events = r.exec.engine.events;
    c.windows = r.exec.engine.windows;
    c.inline_windows = r.exec.engine.inline_windows;
    c.barrier_wait_ms = r.exec.engine.barrier_wait_s * 1e3;
    c.cross = r.exec.engine.cross_messages;
    c.lookahead = r.exec.lookahead;
    c.identical = (r.trace() == ref);
    cells.push_back(c);
  }
  return cells;
}

obs::Json record(const std::vector<TierCell>& cells) {
  auto doc = obs::Json::object();
  doc.set("benchmark", "parallel_tier_sweep");
  doc.set("hardware_threads", std::thread::hardware_concurrency());
  auto& arr = doc["cells"] = obs::Json::array();
  for (const TierCell& c : cells) {
    auto o = obs::Json::object();
    o.set("sites", c.sites);
    o.set("mode", c.threads == 0 ? "serial" : "parallel");
    o.set("threads", c.threads == 0 ? 1 : c.threads);
    o.set("wall_ms", c.wall_ms);
    o.set("speedup", c.speedup);
    o.set("events", c.events);
    o.set("windows", c.windows);
    o.set("inline_windows", c.inline_windows);
    o.set("barrier_wait_ms", c.barrier_wait_ms);
    o.set("cross_messages", c.cross);
    o.set("lookahead_s", c.lookahead);
    o.set("identical_to_serial", c.identical);
    arr.push(std::move(o));
  }
  return doc;
}

}  // namespace

int main() {
  std::printf("== Experiment E3: centralized vs threaded (conservative LP) execution ==\n");
  std::printf("PHOLD: %u LPs x %d messages, lookahead %.1f, horizon %.0f s\n", kLps,
              kPopulationPerLp, kLookahead, kHorizon);
  std::printf("host hardware threads: %u\n\n", std::thread::hardware_concurrency());

  lsds::stats::AsciiTable t(
      {"engine", "threads", "wall [ms]", "events", "windows", "cross-LP msgs", "ev/ms"});
  {
    const auto o = run_centralized();
    t.row().cell(std::string("centralized")).cell(std::uint64_t{1}).cell(o.wall_ms)
        .cell(o.events).cell(std::string("-")).cell(std::string("-"))
        .cell(o.events / o.wall_ms);
  }
  bool phold_identical = true;
  Outcome first;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto o = run_parallel(threads);
    t.row().cell(std::string("parallel LP")).cell(std::uint64_t{threads}).cell(o.wall_ms)
        .cell(o.events).cell(o.windows).cell(o.cross).cell(o.events / o.wall_ms);
    if (threads == 1) first = o;
    phold_identical = phold_identical && o.events == first.events &&
                      o.windows == first.windows && o.cross == first.cross;
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("determinism: parallel event, window and cross-LP totals %s across thread\n"
              "counts, the property that makes the threaded tier usable for science.\n\n",
              phold_identical ? "are identical" : "DIFFER");

  std::printf("== Parallel Grid: LHC tier scenario, serial vs parallel (sites x threads) ==\n");
  std::printf("4 LPs, horizons over the model's declared channels; every parallel cell\n"
              "differentially checked against the serial reference trace.\n\n");
  lsds::stats::AsciiTable sweep({"sites", "mode", "threads", "wall [ms]", "speedup", "events",
                                 "windows", "inline", "barrier [ms]", "cross msgs",
                                 "identical"});
  std::vector<TierCell> all;
  bool all_identical = true;
  for (const auto& [t1s, t2s] : std::vector<std::pair<std::size_t, std::size_t>>{
           {3, 4}, {9, 6}}) {  // 16-site and 64-site tiers
    for (const auto& c : run_tier_sweep(t1s, t2s)) {
      sweep.row()
          .cell(std::uint64_t{c.sites})
          .cell(std::string(c.threads == 0 ? "serial" : "parallel"))
          .cell(std::uint64_t{c.threads == 0 ? 1 : c.threads})
          .cell(c.wall_ms)
          .cell(c.speedup)
          .cell(c.events)
          .cell(c.threads == 0 ? std::string("-") : std::to_string(c.windows))
          .cell(c.threads == 0 ? std::string("-") : std::to_string(c.inline_windows))
          .cell(c.threads == 0 ? std::string("-") : lsds::util::strformat("%.1f", c.barrier_wait_ms))
          .cell(c.threads == 0 ? std::string("-") : std::to_string(c.cross))
          .cell(std::string(c.identical ? "yes" : "NO"));
      all_identical = all_identical && c.identical;
      all.push_back(c);
    }
  }
  std::printf("%s\n", sweep.render().c_str());
  lsds::bench::SelfCheck check;
  check.expect(phold_identical, "PHOLD totals differ across thread counts");
  check.expect(all_identical, "a parallel tier trace differs from its serial reference");
  check.write(record(all), "BENCH_parallel.json");
  std::printf("NOTE: `windows` counts rounds. The 64-site cut keeps each T1 with its\n"
              "T2s, so its LPs form a star out of T0's LP: 2 rounds, T0's LP alone in\n"
              "the first. The 16-site tier's T1 clusters (5 sites) exceed the 4-site\n"
              "cap, so its cut crosses T1--T2 links and each round covers ~2 events.\n"
              "`inline` rounds (one busy LP, or one thread) run on the caller with no\n"
              "hand-off; the others wake helpers and wait `barrier` ms for them in\n"
              "total. The `identical` column is the point: the decomposition changes\n"
              "wall time only.\n");
  return check.ok ? 0 : 1;
}
