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

int run_gridsim(core::Engine& eng, const util::IniConfig& ini, obs::RunReport& report) {
  gridsim::Config cfg;
  cfg.num_jobs = static_cast<std::size_t>(ini.get_int("gridsim", "jobs", 60));
  cfg.budget = ini.get_double("gridsim", "budget", 1e18);
  cfg.deadline = ini.get_duration("gridsim", "deadline", 1e18);
  cfg.strategy = ini.get_string("gridsim", "strategy", "cost") == "time"
                     ? middleware::DbcStrategy::kTimeOptimization
                     : middleware::DbcStrategy::kCostOptimization;

  const auto exec = facades::parse_exec_spec(ini);
  if (exec.parallel) {
    const auto res = gridsim::run_parallel(cfg, exec);
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
}

}  // namespace

void register_gridsim_facade(FacadeRegistry& reg) {
  FacadeRegistry::Entry e;
  e.name = "gridsim";
  e.run = run_gridsim;
  e.keys["gridsim"] = {"jobs", "budget", "deadline", "strategy"};
  e.keys["execution"] = facades::execution_keys();
  reg.add(std::move(e));
}

}  // namespace lsds::sim
