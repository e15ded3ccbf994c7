// Economy scheduling example (GridSim facade): deadline-and-budget
// constrained brokering over priced heterogeneous resources.
//
//   ./economy_scheduling --jobs=60 --budget=500 --deadline=100
//                        [--strategy=cost|time]
#include <cstdio>

#include "core/engine.hpp"
#include "sim/gridsim/gridsim.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

using namespace lsds;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);

  sim::gridsim::Config cfg;
  cfg.num_jobs = static_cast<std::size_t>(flags.get_int("jobs", 60));
  cfg.budget = flags.get_double("budget", 1e18);
  cfg.deadline = flags.get_double("deadline", 1e18);
  const std::string strat = util::to_lower(flags.get_string("strategy", "cost"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 8));
  flags.reject_unread();
  if (strat == "time") {
    cfg.strategy = middleware::DbcStrategy::kTimeOptimization;
  } else if (strat == "cost") {
    cfg.strategy = middleware::DbcStrategy::kCostOptimization;
  } else {
    std::fprintf(stderr, "unknown --strategy=%s (use cost|time)\n", strat.c_str());
    return 1;
  }

  core::Engine engine({.queue = core::QueueKind::kBinaryHeap, .seed = seed});
  const auto res = sim::gridsim::run(engine, cfg);

  std::printf("strategy:       %s\n", middleware::to_string(cfg.strategy));
  std::printf("resources:      %zu (speeds %g..%g, price ~ speed^%g)\n", cfg.num_resources,
              cfg.speed_min, cfg.speed_max, cfg.price_exponent);
  std::printf("jobs accepted:  %llu\n", static_cast<unsigned long long>(res.accepted));
  std::printf("jobs rejected:  %llu\n", static_cast<unsigned long long>(res.rejected));
  std::printf("jobs completed: %llu\n", static_cast<unsigned long long>(res.completed));
  std::printf("total spend:    %.2f\n", res.cost);
  std::printf("makespan:       %.2f s\n", res.makespan);
  std::printf("mean response:  %.2f s\n", res.response_times.mean());
  if (cfg.deadline < 1e18) {
    std::printf("deadline %.2f s: %s\n", cfg.deadline, res.deadline_met ? "met" : "MISSED");
  }
  return 0;
}
