// Registry adapter for the OptorSim facade.
#include <cstdio>

#include "apps/workload.hpp"
#include "middleware/replication.hpp"
#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "sim/optorsim/optorsim.hpp"
#include "util/units.hpp"

namespace lsds::sim {

namespace {

int run_optorsim(core::Engine& eng, const util::IniConfig& ini, obs::RunReport& report) {
  optorsim::Config cfg;
  cfg.num_sites = static_cast<std::size_t>(ini.get_int("optorsim", "sites", 6));
  cfg.cache_fraction = ini.get_double("optorsim", "cache_fraction", 0.2);
  const std::string policy = ini.get_string("optorsim", "policy", "lru");
  facades::parse_enum("replication policy", policy, middleware::kAllReplicationPolicies,
                      cfg.policy);
  cfg.workload.num_jobs = static_cast<std::size_t>(ini.get_int("optorsim", "jobs", 300));
  cfg.workload.num_files = static_cast<std::size_t>(ini.get_int("optorsim", "files", 60));
  cfg.workload.zipf_exponent = ini.get_double("optorsim", "zipf", 1.0);
  cfg.workload.mean_interarrival = ini.get_duration("optorsim", "interarrival", 1.5);
  cfg.workload.file_bytes = {apps::SizeDist::kConstant,
                             ini.get_size("optorsim", "file_size", 50e6), 0};
  cfg.failures = facades::parse_resume_failures(ini);
  cfg.storage_sharing = facades::parse_storage(ini);
  cfg.zones = static_cast<std::size_t>(ini.get_int("optorsim", "zones", 0));
  cfg.zone_backbone_bw = ini.get_rate("optorsim", "zone_backbone_bw", cfg.zone_backbone_bw);
  cfg.zone_backbone_latency =
      ini.get_duration("optorsim", "zone_backbone_latency", cfg.zone_backbone_latency);
  const auto res = optorsim::run(eng, cfg);
  std::printf(
      "optorsim(%s): %llu jobs, mean job time %.2f s, hit ratio %.2f, network %s, "
      "%llu replications\n",
      policy.c_str(), static_cast<unsigned long long>(res.jobs), res.mean_job_time(),
      res.local_hit_ratio(), util::format_size(res.network_bytes).c_str(),
      static_cast<unsigned long long>(res.replications));
  res.to_report(report);
  return 0;
}

}  // namespace

void register_optorsim_facade(FacadeRegistry& reg) {
  FacadeRegistry::Entry e;
  e.name = "optorsim";
  e.run = run_optorsim;
  e.keys["optorsim"] = {"sites",     "cache_fraction", "policy",
                        "jobs",      "files",          "zipf",
                        "interarrival", "file_size",   "zones",
                        "zone_backbone_bw", "zone_backbone_latency"};
  e.keys["failures"] = facades::failures_keys();
  e.keys["storage"] = facades::storage_keys();
  reg.add(std::move(e));
}

}  // namespace lsds::sim
