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

FacadeRegistry::Study parse_optorsim(const util::IniConfig& ini) {
  optorsim::Config cfg;
  cfg.num_sites = ini.get_count("optorsim", "sites", 6);
  cfg.cache_fraction = facades::get_probability(ini, "optorsim", "cache_fraction", 0.2);
  const std::string policy = ini.get_string("optorsim", "policy", "lru");
  facades::parse_enum("replication policy", policy, middleware::kAllReplicationPolicies,
                      cfg.policy);
  cfg.workload.num_jobs = ini.get_count("optorsim", "jobs", 300);
  cfg.workload.num_files = ini.get_count("optorsim", "files", 60);
  cfg.workload.zipf_exponent = facades::get_positive(ini, "optorsim", "zipf", 1.0);
  cfg.workload.mean_interarrival = ini.get_duration("optorsim", "interarrival", 1.5);
  cfg.workload.file_bytes = {apps::SizeDist::kConstant,
                             ini.get_size("optorsim", "file_size", 50e6), 0};
  cfg.failures = facades::parse_resume_failures(ini);
  cfg.storage_sharing = facades::parse_storage(ini);
  cfg.zones = ini.get_count("optorsim", "zones", 0);
  cfg.zone_backbone_bw = ini.get_rate("optorsim", "zone_backbone_bw", cfg.zone_backbone_bw);
  cfg.zone_backbone_latency =
      ini.get_duration("optorsim", "zone_backbone_latency", cfg.zone_backbone_latency);
  return [cfg, policy](core::Engine& eng, obs::RunReport& report) {
    const auto res = optorsim::run(eng, cfg);
    std::printf(
        "optorsim(%s): %llu jobs, mean job time %.2f s, hit ratio %.2f, network %s, "
        "%llu replications\n",
        policy.c_str(), static_cast<unsigned long long>(res.jobs), res.mean_job_time(),
        res.local_hit_ratio(), util::format_size(res.network_bytes).c_str(),
        static_cast<unsigned long long>(res.replications));
    res.to_report(report);
    return 0;
  };
}

}  // namespace

void register_optorsim_facade(FacadeRegistry& reg) { reg.add({"optorsim", parse_optorsim}); }

}  // namespace lsds::sim
