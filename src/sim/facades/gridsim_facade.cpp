// Registry adapter for the GridSim facade, including the [execution]
// parallel opt-in (priced bag on ParallelGrid).
#include <cstdio>

#include "middleware/broker.hpp"
#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "sim/gridsim/gridsim.hpp"
#include "sim/parallel/bag_model.hpp"
#include "sim/parallel/execution.hpp"

namespace lsds::sim {

namespace {

FacadeRegistry::Study parse_gridsim(const util::IniConfig& ini) {
  gridsim::Config cfg;
  cfg.num_jobs = ini.get_count("gridsim", "jobs", 60);
  cfg.budget = facades::get_non_negative(ini, "gridsim", "budget", 1e18);
  cfg.deadline = ini.get_duration("gridsim", "deadline", 1e18);
  const std::string strategy = ini.get_string("gridsim", "strategy", "cost");
  if (strategy == "cost") {
    cfg.strategy = middleware::DbcStrategy::kCostOptimization;
  } else if (strategy == "time") {
    cfg.strategy = middleware::DbcStrategy::kTimeOptimization;
  } else {
    throw util::ConfigError("unknown strategy: " + strategy + " (cost|time)");
  }
  const auto exec = facades::parse_exec_spec(ini);

  return [cfg, exec](core::Engine& eng, obs::RunReport& report) {
    if (exec.parallel) {
      auto seeded = exec;
      seeded.seed = eng.seed();
      const auto res = gridsim::run_parallel(cfg, seeded);
      std::printf("gridsim(%s): accepted %llu rejected %llu, spend %.1f, makespan %.2f s\n",
                  middleware::to_string(cfg.strategy),
                  static_cast<unsigned long long>(res.accepted),
                  static_cast<unsigned long long>(res.rejected), res.cost, res.makespan);
      std::printf("%s", parallel::describe(res.exec).c_str());
      res.to_report(report);
      return 0;
    }
    const auto res = gridsim::run(eng, cfg);
    std::printf("gridsim(%s): accepted %llu rejected %llu, spend %.1f, makespan %.2f s\n",
                middleware::to_string(cfg.strategy),
                static_cast<unsigned long long>(res.accepted),
                static_cast<unsigned long long>(res.rejected), res.cost, res.makespan);
    res.to_report(report);
    return 0;
  };
}

}  // namespace

void register_gridsim_facade(FacadeRegistry& reg) { reg.add({"gridsim", parse_gridsim}); }

}  // namespace lsds::sim
