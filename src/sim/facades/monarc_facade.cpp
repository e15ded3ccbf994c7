// Registry adapter for the MONARC facade, including the [execution]
// parallel opt-in (tier model on ParallelGrid).
#include <cstdio>

#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "sim/monarc/monarc.hpp"
#include "sim/parallel/execution.hpp"
#include "sim/parallel/tier_model.hpp"
#include "util/units.hpp"

namespace lsds::sim {

namespace {

FacadeRegistry::Study parse_monarc(const util::IniConfig& ini) {
  monarc::Config cfg;
  cfg.num_t1 = ini.get_count("monarc", "t1", 4);
  cfg.t0_t1_bandwidth = ini.get_rate("monarc", "link", util::gbps(2.5));
  cfg.num_files = ini.get_count("monarc", "files", 60);
  cfg.file_bytes = ini.get_size("monarc", "file_size", 20e9);
  cfg.production_interval = ini.get_duration("monarc", "interval", 40);
  cfg.run_analysis = ini.get_bool("monarc", "analysis", true);
  cfg.t2_per_t1 = ini.get_count("monarc", "t2_per_t1", 0);
  cfg.t2_fraction = facades::get_probability(ini, "monarc", "t2_fraction", 0.3);
  cfg.archive_to_tape = ini.get_bool("monarc", "archive", false);
  cfg.failures = facades::parse_resume_failures(ini);
  cfg.storage_sharing = facades::parse_storage(ini);

  const auto exec = facades::parse_exec_spec(ini);
  if (exec.parallel) parallel::check_supported(cfg);

  return [cfg, exec](core::Engine& eng, obs::RunReport& report) {
    if (exec.parallel) {
      auto seeded = exec;
      seeded.seed = eng.seed();
      const auto res = monarc::run_parallel(cfg, seeded);
      std::printf(
          "monarc: link %s, %llu files -> %llu replicas (%llu archived), "
          "backlog@prod-end %s, mean lag %.1f s, %llu jobs, makespan %.1f s\n",
          util::format_rate(cfg.t0_t1_bandwidth).c_str(),
          static_cast<unsigned long long>(res.files_produced),
          static_cast<unsigned long long>(res.replicas_delivered),
          static_cast<unsigned long long>(res.files_archived),
          util::format_size(res.backlog_at_production_end).c_str(), res.replication_lag.mean(),
          static_cast<unsigned long long>(res.jobs.size()), res.makespan);
      std::printf("%s", parallel::describe(res.exec).c_str());
      res.to_report(report);
      return 0;
    }
    const auto res = monarc::run(eng, cfg);
    std::printf(
        "monarc: link %s, util %.0f%%, backlog@prod-end %s, mean lag %.1f s -> %s\n",
        util::format_rate(cfg.t0_t1_bandwidth).c_str(), res.link_utilization * 100,
        util::format_size(res.backlog_at_production_end).c_str(), res.replication_lag.mean(),
        res.sustainable() ? "keeps up" : "INSUFFICIENT");
    res.to_report(report);
    return 0;
  };
}

}  // namespace

void register_monarc_facade(FacadeRegistry& reg) { reg.add({"monarc", parse_monarc}); }

}  // namespace lsds::sim
