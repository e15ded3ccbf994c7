// Experiment E1 — pending-event-set structures (Section 3).
//
// Paper claims under test:
//   "A system using an O(1) structure for the event list will behave better
//    than another one using an O(log n) queuing structure."
//   "There is not a single unanimity accepted queuing structure that
//    performs best … they all tend to behave different depending on various
//    parameters."
//
// Workloads:
//   * hold model (pop one, push one) at pending-set sizes 1e2..1e5, with
//     exponential increments — the classic DES steady state;
//   * skewed (Pareto) increments — stresses calendar bucket tuning;
//   * ramp (pure push then pure pop) — insertion-heavy phase behavior.
//
// google-benchmark reports ns per operation pair. After the table the bench
// checks itself and exits 1 with a FAIL: line if one check fails: a hold
// beside one pending kInfTime event (a model's "never" timer) must cost at
// most 3x the plain exponential hold on every O(1) / O(log n) structure.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "core/event_queue.hpp"
#include "core/rng.hpp"

namespace core = lsds::core;

namespace {

core::QueueKind kind_of(int idx) { return core::kAllQueueKinds[idx]; }

/// Initial fill in ascending time order: O(1) tail inserts even for the
/// sorted list, so setup cost never pollutes the measurement.
template <typename Increment>
void fill(core::EventQueue& q, std::size_t size, Increment&& increment, core::EventId& seq) {
  double t = 0;
  for (std::size_t i = 0; i < size; ++i) {
    t += increment() * 0.01;
    q.push({t, seq++});
  }
}

void bench_hold(benchmark::State& state, bool skewed) {
  const auto kind = kind_of(static_cast<int>(state.range(0)));
  const auto size = static_cast<std::size_t>(state.range(1));
  if (kind == core::QueueKind::kSortedList && size > 10000) {
    state.SkipWithError("O(n) structure unusable at this size");
    return;
  }
  auto q = core::make_event_queue(kind);
  core::RngStream rng(1234);
  auto increment = [&] { return skewed ? rng.pareto(0.01, 1.1) : rng.exponential(1.0); };
  core::EventId seq = 1;
  fill(*q, size, increment, seq);
  for (auto _ : state) {
    auto ev = q->pop();
    q->push({ev.time + increment(), seq++});
    benchmark::DoNotOptimize(q);
  }
  state.SetLabel(core::to_string(kind));
  state.counters["pending"] = static_cast<double>(size);
}

void bench_hold_exp(benchmark::State& state) { bench_hold(state, false); }
void bench_hold_pareto(benchmark::State& state) { bench_hold(state, true); }

void bench_ramp(benchmark::State& state) {
  const auto kind = kind_of(static_cast<int>(state.range(0)));
  const auto size = static_cast<std::size_t>(state.range(1));
  if (kind == core::QueueKind::kSortedList && size > 10000) {
    state.SkipWithError("O(n) structure unusable at this size");
    return;
  }
  core::RngStream rng(99);
  for (auto _ : state) {
    state.PauseTiming();
    auto q = core::make_event_queue(kind);
    state.ResumeTiming();
    core::EventId seq = 1;
    for (std::size_t i = 0; i < size; ++i) q->push({rng.uniform(0, 1e6), seq++});
    while (!q->empty()) benchmark::DoNotOptimize(q->pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size) * 2);
  state.SetLabel(core::to_string(kind));
}

void args_for_all(benchmark::internal::Benchmark* b) {
  for (int k = 0; k < 5; ++k) {
    for (std::int64_t n : {100, 1000, 10000, 100000}) b->Args({k, n});
  }
  // E16 operating point: the ladder queue carrying a million pending events
  // (the million-peer churn workload of bench_p2p_churn holds one
  // maintenance timer per live peer).
  b->Args({4, 1000000});
}

void ramp_args(benchmark::internal::Benchmark* b) {
  for (int k = 0; k < 5; ++k) {
    for (std::int64_t n : {1000, 50000}) b->Args({k, n});
  }
}

BENCHMARK(bench_hold_exp)->Apply(args_for_all)->ArgNames({"queue", "pending"});
BENCHMARK(bench_hold_pareto)->Apply(args_for_all)->ArgNames({"queue", "pending"});
BENCHMARK(bench_ramp)->Apply(ramp_args)->ArgNames({"queue", "n"});

/// Wall ns per exponential hold (pop one, push one) at `size` pending, with
/// or without one kInfTime event pending beside them; the best of 3 passes.
double hold_ns(core::QueueKind kind, std::size_t size, bool inf_pending) {
  constexpr int kOps = 200000;
  double best = 0;
  for (int pass = 0; pass < 3; ++pass) {
    auto q = core::make_event_queue(kind);
    core::RngStream rng(1234);
    auto increment = [&] { return rng.exponential(1.0); };
    core::EventId seq = 1;
    if (inf_pending) q->push({core::kInfTime, seq++});
    fill(*q, size, increment, seq);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kOps; ++i) {
      const auto ev = q->pop();
      q->push({ev.time + increment(), seq++});
    }
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count() /
        kOps;
    benchmark::DoNotOptimize(q);
    best = pass == 0 ? ns : std::min(best, ns);
  }
  return best;
}

/// The infinite-key check (file comment). The sorted list is O(n) per hold
/// either way and is not checked.
bool check_infinite_key_hold() {
  constexpr std::size_t kPending = 10000;
  constexpr double kMaxRatio = 3.0;
  bool ok = true;
  std::printf("\nhold with one kInfTime event pending, %zu pending:\n", kPending);
  for (core::QueueKind kind : core::kAllQueueKinds) {
    if (kind == core::QueueKind::kSortedList) continue;
    const double plain = hold_ns(kind, kPending, false);
    const double with_inf = hold_ns(kind, kPending, true);
    std::printf("  %-14s plain %7.1f ns  with inf %7.1f ns  ratio %.2f\n", core::to_string(kind),
                plain, with_inf, with_inf / plain);
    if (with_inf > kMaxRatio * plain) {
      std::printf("FAIL: %s hold beside one kInfTime event costs %.1fx the plain hold (max %.0fx)\n",
                  core::to_string(kind), with_inf / plain, kMaxRatio);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return check_infinite_key_hold() ? 0 : 1;
}
