// Registry adapter for the ChicagoSim facade.
#include <cstdio>

#include "obs/report.hpp"
#include "sim/chicsim/chicsim.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "util/units.hpp"

namespace lsds::sim {

namespace {

FacadeRegistry::Study parse_chicsim(const util::IniConfig& ini) {
  chicsim::Config cfg;
  cfg.num_sites = ini.get_count("chicsim", "sites", 6);
  const std::string jp = ini.get_string("chicsim", "job_policy", "job-data-present");
  facades::parse_enum("job policy", jp, chicsim::kAllJobPolicies, cfg.job_policy);
  const std::string dp = ini.get_string("chicsim", "data_policy", "data-cache");
  facades::parse_enum("data policy", dp, chicsim::kAllDataPolicies, cfg.data_policy);
  cfg.workload.num_jobs = ini.get_count("chicsim", "jobs", 400);
  cfg.workload.zipf_exponent = facades::get_positive(ini, "chicsim", "zipf", 0.9);
  cfg.failures = facades::parse_resume_failures(ini);
  cfg.storage_sharing = facades::parse_storage(ini);
  return [cfg, jp, dp](core::Engine& eng, obs::RunReport& report) {
    const auto res = chicsim::run(eng, cfg);
    std::printf("chicsim(%s,%s): %llu jobs, mean response %.2f s, locality %.2f, network %s\n",
                jp.c_str(), dp.c_str(), static_cast<unsigned long long>(res.jobs),
                res.response_times.mean(), res.locality(),
                util::format_size(res.network_bytes).c_str());
    res.to_report(report);
    return 0;
  };
}

}  // namespace

void register_chicsim_facade(FacadeRegistry& reg) { reg.add({"chicsim", parse_chicsim}); }

}  // namespace lsds::sim
