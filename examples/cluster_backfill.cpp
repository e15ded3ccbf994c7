// Cluster batch scheduling example: FCFS vs EASY backfilling on an
// SWF-shaped workload.
//
//   ./cluster_backfill --cores=64 --jobs=300 [--swf=trace.swf] [--export=out.swf]
//
// With --swf, replays a Standard Workload Format trace (Parallel Workloads
// Archive); otherwise generates a synthetic SWF-like workload (and can
// export it with --export for reuse).
#include <cstdio>
#include <fstream>

#include "apps/swf.hpp"
#include "core/engine.hpp"
#include "middleware/batch_queue.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"

using namespace lsds;

namespace {

struct Outcome {
  double makespan;
  double mean_wait;
  double p95_wait;
  double utilization;
  std::uint64_t backfilled;
};

Outcome replay(const std::vector<apps::SwfJob>& jobs, unsigned cores,
               middleware::BatchPolicy policy, std::uint64_t seed) {
  core::Engine eng({.queue = core::QueueKind::kCalendarQueue, .seed = seed});
  middleware::BatchQueue q(eng, cores, policy);
  for (const auto& j : jobs) {
    eng.schedule_at(j.submit_time, [&q, job = j.job] { q.submit(job); });
  }
  eng.run();
  Outcome o;
  o.makespan = eng.now();
  o.mean_wait = q.waits().mean();
  o.p95_wait = q.waits().p95();
  o.utilization = q.utilization(eng.now());
  o.backfilled = q.backfilled();
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto cores = static_cast<unsigned>(flags.get_int("cores", 64));
  const auto n_jobs = static_cast<std::size_t>(flags.get_int("jobs", 300));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 17));
  const std::string swf_path = flags.get_string("swf", "");
  const std::string export_path = flags.get_string("export", "");
  flags.reject_unread();

  std::vector<apps::SwfJob> jobs;
  if (!swf_path.empty()) {
    jobs = apps::load_swf(swf_path);
    std::printf("replaying %zu jobs from %s\n\n", jobs.size(), swf_path.c_str());
  } else {
    core::RngStream rng(seed);
    jobs = apps::generate_swf_like(rng, n_jobs, /*mean_interarrival=*/8.0,
                                   /*mean_runtime=*/120.0, cores);
    std::printf("synthetic SWF-like workload: %zu jobs on %u cores\n\n", jobs.size(), cores);
  }
  if (!export_path.empty()) {
    std::ofstream f(export_path);
    f << apps::to_swf(jobs);
    std::printf("exported workload to %s\n\n", export_path.c_str());
  }

  stats::AsciiTable t({"policy", "makespan [s]", "mean wait [s]", "p95 wait [s]",
                       "utilization", "backfilled"});
  for (auto policy : {middleware::BatchPolicy::kFcfs, middleware::BatchPolicy::kEasyBackfill}) {
    const auto o = replay(jobs, cores, policy, seed);
    t.row()
        .cell(std::string(middleware::to_string(policy)))
        .cell(o.makespan)
        .cell(o.mean_wait)
        .cell(o.p95_wait)
        .cell(o.utilization)
        .cell(o.backfilled);
  }
  std::printf("%s", t.render().c_str());
  std::printf("EASY fills the holes FCFS leaves in front of wide jobs — higher\n"
              "utilization and shorter queue waits from the identical workload.\n");
  return 0;
}
