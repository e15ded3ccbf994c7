// Chaos on a grid: the dependability layer end-to-end.
//
// Four sites around a hub. The failure injector drives *correlated*
// site-wide outages (a site's CPU and its uplink fail together, Weibull
// lifetimes with infant mortality) under fail-stop semantics: an outage
// kills the jobs on the site. The fault-tolerant scheduler re-drives them
// under the chosen recovery policy and prints the dependability ledger.
//
//   ./chaos_grid [--policy=resubmit] [--jobs=500] [--mtbf=20] [--seed=42]
#include <cstdio>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "hosts/site.hpp"
#include "middleware/failures.hpp"
#include "middleware/recovery.hpp"
#include "util/flags.hpp"

using namespace lsds;

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto n_jobs = static_cast<std::size_t>(flags.get_int("jobs", 500));
  const double mtbf = flags.get_double("mtbf", 20.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const std::string policy_name = flags.get_string("policy", "resubmit");
  flags.reject_unread();

  middleware::RecoveryConfig rcfg;
  bool matched = false;
  for (auto p : middleware::kAllRecoveryPolicies) {
    if (policy_name == middleware::to_string(p)) {
      rcfg.policy = p;
      matched = true;
    }
  }
  if (!matched) {
    std::fprintf(stderr, "unknown policy '%s' (retry|resubmit|checkpoint|replicate)\n",
                 policy_name.c_str());
    return 2;
  }
  rcfg.checkpoint_interval_ops = 500;
  rcfg.checkpoint_overhead_ops = 25;
  rcfg.replicas = 2;

  core::Engine engine({.queue = core::QueueKind::kBinaryHeap, .seed = seed});

  // Four compute sites around a hub.
  hosts::Grid grid(engine);
  for (int s = 0; s < 4; ++s) {
    hosts::SiteSpec spec;
    spec.name = "site" + std::to_string(s);
    spec.cores = 2;
    spec.cpu_speed = 1000;
    grid.add_site(spec);
  }
  auto& topo = grid.topology();
  const net::NodeId hub = topo.add_node("hub", net::NodeKind::kRouter);
  std::vector<net::LinkId> uplinks;
  for (std::size_t s = 0; s < grid.site_count(); ++s) {
    uplinks.push_back(
        topo.add_link(grid.site(static_cast<hosts::SiteId>(s)).node(), hub, 125e6, 0.01));
  }
  grid.finalize();

  // Correlated chaos: each site is one failure target — its CPU and its
  // uplink die and come back together. Weibull shape < 1: young nodes die
  // disproportionately often (the empirical grid-node lifetime shape).
  middleware::FailureInjector chaos(engine);
  for (std::size_t s = 0; s < grid.site_count(); ++s) {
    chaos.add_site({&grid.site(static_cast<hosts::SiteId>(s)).cpu()}, &grid.net(),
                   {uplinks[s]});
  }
  chaos.start_weibull(/*shape=*/0.7, mtbf, /*mttr=*/2.0, /*t_end=*/1e6);

  // Fail-stop + recovery: the scheduler flips every CPU to kFailStop.
  std::vector<hosts::CpuResource*> cpus;
  for (std::size_t s = 0; s < grid.site_count(); ++s) {
    cpus.push_back(&grid.site(static_cast<hosts::SiteId>(s)).cpu());
  }
  middleware::FaultTolerantScheduler sched(engine, cpus, middleware::Heuristic::kSjf, rcfg);
  auto& rng = engine.rng("bag");
  for (std::size_t j = 0; j < n_jobs; ++j) {
    hosts::Job job;
    job.id = j + 1;
    job.ops = rng.exponential(2000.0);
    sched.submit(std::move(job));
  }
  std::size_t settled = 0;
  const auto on_settled = [&](const hosts::Job&) {
    if (++settled == n_jobs) engine.stop();
  };
  sched.run(on_settled, on_settled);
  engine.run();

  const double t_end = sched.makespan();
  sched.finalize_availability(t_end);
  std::printf("policy %s, %zu jobs, MTBF %.0f s: makespan %.1f s, %llu kills, %llu lost\n",
              middleware::to_string(rcfg.policy), n_jobs, mtbf, t_end,
              static_cast<unsigned long long>(sched.kills()),
              static_cast<unsigned long long>(sched.lost()));
  std::printf("%llu site outages injected, %.1f s total downtime\n",
              static_cast<unsigned long long>(chaos.outages_started()),
              chaos.total_downtime());
  std::printf("%s", sched.dependability().report(t_end).c_str());
  return 0;
}
