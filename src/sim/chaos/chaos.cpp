#include "sim/chaos/chaos.hpp"

#include <memory>
#include <string>
#include <vector>

#include "hosts/cpu.hpp"
#include "hosts/job.hpp"
#include "obs/report.hpp"

namespace lsds::sim::chaos {

Result run(core::Engine& eng, const Config& cfg) {
  std::vector<std::unique_ptr<hosts::CpuResource>> farm;
  std::vector<hosts::CpuResource*> cpus;
  for (std::size_t i = 0; i < cfg.num_hosts; ++i) {
    farm.push_back(std::make_unique<hosts::CpuResource>(eng, "host" + std::to_string(i),
                                                        cfg.cores, cfg.cpu_speed,
                                                        hosts::SharingPolicy::kSpaceShared));
    cpus.push_back(farm.back().get());
  }

  middleware::FailureSpec spec = cfg.failures;
  spec.enabled = true;  // facade = chaos implies chaos
  if (spec.horizon <= 0) spec.horizon = 1e6;
  middleware::FailureInjector inject(eng);
  for (auto* cpu : cpus) inject.add_cpu(*cpu);
  inject.start_weibull(spec.weibull_shape, spec.mtbf, spec.mttr, spec.horizon);

  // The scheduler flips every resource to kFailStop and owns recovery.
  middleware::FaultTolerantScheduler sched(eng, cpus, cfg.heuristic, cfg.recovery);
  auto& rng = eng.rng("chaos-workload");
  for (std::size_t j = 0; j < cfg.num_jobs; ++j) {
    hosts::Job job;
    job.id = j + 1;
    job.ops = rng.exponential(cfg.mean_ops);
    sched.submit(std::move(job));
  }
  // Stop the clock when the bag is fully accounted for — otherwise the
  // injector keeps the engine alive until its horizon and the post-bag
  // outages would pollute the availability window.
  std::size_t settled = 0;
  const std::size_t num_jobs = cfg.num_jobs;
  const auto on_settled = [&](const hosts::Job&) {
    if (++settled == num_jobs) eng.stop();
  };
  sched.run(on_settled, on_settled);
  eng.run();

  Result res;
  res.makespan = sched.makespan();
  sched.finalize_availability(res.makespan);
  res.completed = sched.completed();
  res.lost = sched.lost();
  res.kills = sched.kills();
  res.response_times = sched.response_times();
  res.dependability = sched.dependability();
  return res;
}

void Result::to_report(obs::RunReport& report) const {
  report.set_result_core(completed, makespan, 0);
  auto& r = report.result();
  r.set("jobs_lost", lost);
  r.set("kills", kills);
  r.set("mean_response_s", response_times.mean());
  report.add_dependability(dependability, makespan);
}

}  // namespace lsds::sim::chaos
