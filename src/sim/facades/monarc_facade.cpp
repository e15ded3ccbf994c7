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

int run_monarc(core::Engine& eng, const util::IniConfig& ini, obs::RunReport& report) {
  monarc::Config cfg;
  cfg.num_t1 = static_cast<std::size_t>(ini.get_int("monarc", "t1", 4));
  cfg.t0_t1_bandwidth = ini.get_rate("monarc", "link", util::gbps(2.5));
  cfg.num_files = static_cast<std::size_t>(ini.get_int("monarc", "files", 60));
  cfg.file_bytes = ini.get_size("monarc", "file_size", 20e9);
  cfg.production_interval = ini.get_duration("monarc", "interval", 40);
  cfg.run_analysis = ini.get_bool("monarc", "analysis", true);
  cfg.t2_per_t1 = static_cast<std::size_t>(ini.get_int("monarc", "t2_per_t1", 0));
  cfg.t2_fraction = ini.get_double("monarc", "t2_fraction", 0.3);
  cfg.archive_to_tape = ini.get_bool("monarc", "archive", false);
  cfg.failures = facades::parse_resume_failures(ini);
  cfg.storage_sharing = facades::parse_storage(ini);

  const auto exec = facades::parse_exec_spec(ini);
  if (exec.parallel) {
    const auto res = monarc::run_parallel(cfg, exec);
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
}

}  // namespace

void register_monarc_facade(FacadeRegistry& reg) {
  FacadeRegistry::Entry e;
  e.name = "monarc";
  e.run = run_monarc;
  e.keys["monarc"] = {"t1",       "link",     "files",    "file_size", "interval",
                      "analysis", "t2_per_t1", "t2_fraction", "archive"};
  e.keys["failures"] = facades::failures_keys();
  e.keys["storage"] = facades::storage_keys();
  e.keys["execution"] = facades::execution_keys();
  reg.add(std::move(e));
}

}  // namespace lsds::sim
