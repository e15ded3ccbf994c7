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
// google-benchmark reports ns per operation pair; bench also prints an
// ASCII summary table at exit via a plain main wrapper.
#include <benchmark/benchmark.h>

#include "core/event_queue.hpp"
#include "core/rng.hpp"

namespace core = lsds::core;

namespace {

core::QueueKind kind_of(int idx) { return core::kAllQueueKinds[idx]; }

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
  // Initial fill in ascending time order: O(1) tail inserts even for the
  // sorted list, so setup cost never pollutes the measurement.
  double fill_t = 0;
  for (std::size_t i = 0; i < size; ++i) {
    fill_t += increment() * 0.01;
    q->push({fill_t, seq++});
  }
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

}  // namespace

BENCHMARK_MAIN();
