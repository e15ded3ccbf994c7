// Registry adapter for the Bricks facade: [bricks] INI -> Config, run,
// print the one-line summary, fill the report.
#include <cstdio>

#include "obs/report.hpp"
#include "sim/bricks/bricks.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"

namespace lsds::sim {

namespace {

int run_bricks(core::Engine& eng, const util::IniConfig& ini, obs::RunReport& report) {
  bricks::Config cfg;
  cfg.num_clients = static_cast<std::size_t>(ini.get_int("bricks", "clients", 8));
  cfg.jobs_per_client = static_cast<std::size_t>(ini.get_int("bricks", "jobs_per_client", 20));
  cfg.mean_interarrival = ini.get_duration("bricks", "interarrival", 10);
  cfg.mean_ops = ini.get_double("bricks", "mean_ops", 2000);
  cfg.input_bytes = ini.get_size("bricks", "input", 10e6);
  cfg.output_bytes = ini.get_size("bricks", "output", 1e6);
  cfg.server_cores = static_cast<unsigned>(ini.get_int("bricks", "server_cores", 4));
  cfg.client_bw = ini.get_rate("bricks", "client_bw", 12.5e6);
  cfg.failures = facades::parse_resume_failures(ini);
  cfg.storage_sharing = facades::parse_storage(ini);
  const auto res = bricks::run(eng, cfg);
  std::printf("bricks: %llu jobs, mean response %.2f s, server util %.1f%%, makespan %.1f s\n",
              static_cast<unsigned long long>(res.jobs), res.response_times.mean(),
              res.server_utilization * 100, res.makespan);
  res.to_report(report);
  return 0;
}

}  // namespace

void register_bricks_facade(FacadeRegistry& reg) {
  FacadeRegistry::Entry e;
  e.name = "bricks";
  e.run = run_bricks;
  e.keys["bricks"] = {"clients",      "jobs_per_client", "interarrival", "mean_ops",
                      "input",        "output",          "server_cores", "client_bw"};
  e.keys["failures"] = facades::failures_keys();
  e.keys["storage"] = facades::storage_keys();
  reg.add(std::move(e));
}

}  // namespace lsds::sim
