// Registry adapter for the Bricks facade: [bricks] INI -> Config; the study
// runs it, prints the one-line summary and fills the report.
#include <cstdio>

#include "obs/report.hpp"
#include "sim/bricks/bricks.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"

namespace lsds::sim {

namespace {

FacadeRegistry::Study parse_bricks(const util::IniConfig& ini) {
  bricks::Config cfg;
  cfg.num_clients = ini.get_count("bricks", "clients", 8);
  cfg.jobs_per_client = ini.get_count("bricks", "jobs_per_client", 20);
  cfg.mean_interarrival = ini.get_duration("bricks", "interarrival", 10);
  cfg.mean_ops = facades::get_positive(ini, "bricks", "mean_ops", 2000);
  cfg.input_bytes = ini.get_size("bricks", "input", 10e6);
  cfg.output_bytes = ini.get_size("bricks", "output", 1e6);
  cfg.server_cores = static_cast<unsigned>(ini.get_count("bricks", "server_cores", 4, 1));
  cfg.client_bw = ini.get_rate("bricks", "client_bw", 12.5e6);
  cfg.failures = facades::parse_resume_failures(ini);
  cfg.storage_sharing = facades::parse_storage(ini);
  return [cfg](core::Engine& eng, obs::RunReport& report) {
    const auto res = bricks::run(eng, cfg);
    std::printf("bricks: %llu jobs, mean response %.2f s, server util %.1f%%, makespan %.1f s\n",
                static_cast<unsigned long long>(res.jobs), res.response_times.mean(),
                res.server_utilization * 100, res.makespan);
    res.to_report(report);
    return 0;
  };
}

}  // namespace

void register_bricks_facade(FacadeRegistry& reg) { reg.add({"bricks", parse_bricks}); }

}  // namespace lsds::sim
