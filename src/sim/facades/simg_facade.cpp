// Registry adapter for the SimGrid facade.
#include <cstdio>

#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "sim/simg/simg.hpp"

namespace lsds::sim {

namespace {

constexpr simg::SchedulingMode kModes[] = {simg::SchedulingMode::kRuntime,
                                           simg::SchedulingMode::kCompileTime};

FacadeRegistry::Study parse_simg(const util::IniConfig& ini) {
  simg::Config cfg;
  cfg.num_workers = ini.get_count("simg", "workers", 4, 1);
  cfg.num_tasks = ini.get_count("simg", "tasks", 64);
  cfg.estimate_error = facades::get_probability(ini, "simg", "estimate_error", 0.3);
  facades::parse_enum("scheduling mode", ini.get_string("simg", "mode", "runtime"), kModes,
                      cfg.mode);
  return [cfg](core::Engine& eng, obs::RunReport& report) {
    const auto res = simg::run(eng, cfg);
    std::printf("simg(%s): %llu tasks, makespan %.2f s\n", to_string(cfg.mode),
                static_cast<unsigned long long>(res.tasks), res.makespan);
    res.to_report(report);
    return 0;
  };
}

}  // namespace

void register_simg_facade(FacadeRegistry& reg) { reg.add({"simg", parse_simg}); }

}  // namespace lsds::sim
