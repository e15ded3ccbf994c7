// LHC tier-model example (MONARC facade): reproduce the T0/T1 data
// replication study interactively.
//
//   ./lhc_tier_model --link=2.5Gbps --t1=4 --files=60 --file-size=20GB
//                    --interval=40
//
// Prints the replication-agent outcome for one link capacity.
#include <cstdio>

#include "core/engine.hpp"
#include "sim/monarc/monarc.hpp"
#include "util/flags.hpp"
#include "util/units.hpp"

using namespace lsds;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);

  sim::monarc::Config cfg;
  cfg.t0_t1_bandwidth = flags.get_rate("link", util::gbps(2.5));
  cfg.num_t1 = static_cast<std::size_t>(flags.get_int("t1", 4));
  cfg.num_files = static_cast<std::size_t>(flags.get_int("files", 60));
  cfg.file_bytes = flags.get_size("file-size", 20e9);
  cfg.production_interval = flags.get_double("interval", 40.0);
  cfg.run_analysis = true;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2005));
  flags.reject_unread();

  core::Engine engine({.queue = core::QueueKind::kCalendarQueue, .seed = seed});
  const auto res = sim::monarc::run(engine, cfg);

  const double offered =
      cfg.file_bytes / cfg.production_interval;  // bytes/s per T0-T1 link
  std::printf("tier model: T0 + %zu T1s, link %s, offered %s per link\n", cfg.num_t1,
              util::format_rate(cfg.t0_t1_bandwidth).c_str(),
              util::format_rate(offered).c_str());
  std::printf("files produced:        %llu\n",
              static_cast<unsigned long long>(res.files_produced));
  std::printf("replicas delivered:    %llu\n",
              static_cast<unsigned long long>(res.replicas_delivered));
  std::printf("link utilization:      %.1f%%\n", res.link_utilization * 100);
  std::printf("peak backlog:          %s\n", util::format_size(res.peak_backlog_bytes).c_str());
  std::printf("mean backlog:          %s\n",
              util::format_size(res.backlog.time_weighted_mean(res.backlog.last_t())).c_str());
  std::printf("backlog at prod. end:  %s\n",
              util::format_size(res.backlog_at_production_end).c_str());
  std::printf("mean replication lag:  %s\n",
              util::format_duration(res.replication_lag.mean()).c_str());
  std::printf("post-production drain: %s\n", util::format_duration(res.drain_time).c_str());
  std::printf("mean analysis delay:   %s\n",
              util::format_duration(res.analysis_delays.mean()).c_str());
  std::printf("verdict:               %s\n",
              res.sustainable() ? "replication keeps up" : "link capacity INSUFFICIENT");
  return 0;
}
