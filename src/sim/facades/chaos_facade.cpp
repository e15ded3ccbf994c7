// Registry adapter for the chaos facade: fail-stop bag-of-tasks under a
// recovery policy. `[chaos]` sizes the farm and the bag, `[failures]`
// drives the injector (semantics defaults to stop here) and picks the
// policy.
#include <cstdio>

#include "obs/report.hpp"
#include "sim/chaos/chaos.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"

namespace lsds::sim {

namespace {

FacadeRegistry::Study parse_chaos(const util::IniConfig& ini) {
  chaos::Config cfg;
  cfg.num_hosts = ini.get_count("chaos", "hosts", 8);
  cfg.cores = static_cast<unsigned>(ini.get_count("chaos", "cores", 1));
  cfg.cpu_speed = facades::get_positive(ini, "chaos", "cpu_speed", 1000);
  cfg.num_jobs = ini.get_count("chaos", "jobs", 1000);
  cfg.mean_ops = facades::get_positive(ini, "chaos", "mean_ops", 2000);

  const std::string h = ini.get_string("chaos", "heuristic", "fifo");
  facades::parse_enum("heuristic", h, middleware::kAllHeuristics, cfg.heuristic);

  const std::string policy = ini.get_string("failures", "policy", "retry");
  facades::parse_enum("recovery policy", policy, middleware::kAllRecoveryPolicies,
                      cfg.recovery.policy);
  cfg.recovery.backoff_base = ini.get_duration("failures", "backoff", cfg.recovery.backoff_base);
  cfg.recovery.max_attempts = ini.get_count("failures", "max_attempts", 0);
  cfg.recovery.blacklist_duration =
      ini.get_duration("failures", "blacklist", cfg.recovery.blacklist_duration);
  cfg.recovery.checkpoint_interval_ops =
      ini.get_double("failures", "checkpoint_interval_ops", cfg.mean_ops / 4);
  cfg.recovery.checkpoint_overhead_ops =
      ini.get_double("failures", "checkpoint_overhead_ops", cfg.mean_ops / 50);
  cfg.recovery.replicas = ini.get_count("failures", "replicas", 2);
  cfg.failures = facades::parse_failures(ini);

  return [cfg, policy](core::Engine& eng, obs::RunReport& report) {
    const auto res = chaos::run(eng, cfg);
    std::printf("chaos(%s/%s): %llu done, %llu lost, %llu kills, makespan %.1f s\n",
                middleware::to_string(cfg.heuristic), policy.c_str(),
                static_cast<unsigned long long>(res.completed),
                static_cast<unsigned long long>(res.lost),
                static_cast<unsigned long long>(res.kills), res.makespan);
    std::printf("%s", res.dependability.report(res.makespan).c_str());
    res.to_report(report);
    return res.lost == 0 ? 0 : 1;
  };
}

}  // namespace

void register_chaos_facade(FacadeRegistry& reg) { reg.add({"chaos", parse_chaos}); }

}  // namespace lsds::sim
