// Registry adapter for the SimGrid facade.
#include <cstdio>

#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "sim/simg/simg.hpp"

namespace lsds::sim {

namespace {

int run_simg(core::Engine& eng, const util::IniConfig& ini, obs::RunReport& report) {
  simg::Config cfg;
  cfg.num_workers = static_cast<std::size_t>(ini.get_int("simg", "workers", 4));
  cfg.num_tasks = static_cast<std::size_t>(ini.get_int("simg", "tasks", 64));
  cfg.estimate_error = ini.get_double("simg", "estimate_error", 0.3);
  cfg.mode = ini.get_string("simg", "mode", "runtime") == "compile-time"
                 ? simg::SchedulingMode::kCompileTime
                 : simg::SchedulingMode::kRuntime;
  const auto res = simg::run(eng, cfg);
  std::printf("simg(%s): %llu tasks, makespan %.2f s\n", to_string(cfg.mode),
              static_cast<unsigned long long>(res.tasks), res.makespan);
  res.to_report(report);
  return 0;
}

}  // namespace

void register_simg_facade(FacadeRegistry& reg) {
  FacadeRegistry::Entry e;
  e.name = "simg";
  e.run = run_simg;
  e.keys["simg"] = {"workers", "tasks", "estimate_error", "mode"};
  reg.add(std::move(e));
}

}  // namespace lsds::sim
