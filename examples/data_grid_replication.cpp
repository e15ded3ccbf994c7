// Data-grid replication example (OptorSim facade): compare replica
// optimization strategies on one workload.
//
//   ./data_grid_replication --sites=6 --jobs=300 --zipf=1.0
//                           [--policy=lru|lfu|economic|none|all]
#include <cstdio>

#include "core/engine.hpp"
#include "middleware/replication.hpp"
#include "sim/optorsim/optorsim.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

using namespace lsds;

namespace {

sim::optorsim::Config read_config(const util::Flags& flags) {
  sim::optorsim::Config cfg;
  cfg.num_sites = static_cast<std::size_t>(flags.get_int("sites", 6));
  cfg.cache_fraction = flags.get_double("cache", 0.2);
  cfg.workload.num_jobs = static_cast<std::size_t>(flags.get_int("jobs", 300));
  cfg.workload.num_files = static_cast<std::size_t>(flags.get_int("files", 60));
  cfg.workload.files_per_job = 2;
  cfg.workload.mean_interarrival = flags.get_double("interarrival", 1.5);
  cfg.workload.zipf_exponent = flags.get_double("zipf", 1.0);
  cfg.workload.file_bytes = {apps::SizeDist::kConstant, flags.get_size("file-size", 50e6), 0};
  return cfg;
}

sim::optorsim::Result run_policy(sim::optorsim::Config cfg, middleware::ReplicationPolicy policy,
                                 std::uint64_t seed) {
  core::Engine engine({.queue = core::QueueKind::kCalendarQueue, .seed = seed});
  cfg.policy = policy;
  return sim::optorsim::run(engine, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::string which = util::to_lower(flags.get_string("policy", "all"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 4242));
  const sim::optorsim::Config cfg = read_config(flags);
  flags.reject_unread();

  stats::AsciiTable t({"strategy", "mean job time [s]", "hit ratio", "network", "replications",
                       "evictions", "makespan [s]"});
  for (auto policy : middleware::kAllReplicationPolicies) {
    if (which != "all" && which != middleware::to_string(policy)) continue;
    const auto r = run_policy(cfg, policy, seed);
    t.row()
        .cell(std::string(middleware::to_string(policy)))
        .cell(r.mean_job_time())
        .cell(r.local_hit_ratio())
        .cell(util::format_size(r.network_bytes))
        .cell(r.replications)
        .cell(r.evictions)
        .cell(r.makespan);
  }
  if (t.num_rows() == 0) {
    std::fprintf(stderr, "unknown --policy=%s (use none|lru|lfu|economic|all)\n", which.c_str());
    return 1;
  }
  std::printf("%s", t.render().c_str());
  return 0;
}
