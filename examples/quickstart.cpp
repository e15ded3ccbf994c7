// Quickstart: the LSDS-Sim public API in ~80 lines.
//
// Builds a two-site mini-grid, runs compute jobs as coroutine processes
// that fetch input over the simulated network, and prints the statistics.
//
//   ./quickstart [--jobs=20] [--seed=42]
#include <cstdio>

#include "core/engine.hpp"
#include "core/process.hpp"
#include "hosts/site.hpp"
#include "sim/common.hpp"
#include "stats/summary.hpp"
#include "util/flags.hpp"
#include "util/units.hpp"

using namespace lsds;

namespace {

struct World {
  hosts::Grid* grid;
  stats::SampleSet* response_times;
  int jobs_left;
};

// One job: pull 100 MB of input from the data site, compute, report.
core::Process job(core::Engine& eng, World& w, hosts::JobId id, double ops) {
  const double t0 = eng.now();
  auto& data_site = w.grid->site(0);
  auto& compute_site = w.grid->site(1);

  co_await sim::transfer(w.grid->net(), data_site.node(), compute_site.node(), 100e6);
  co_await sim::compute(compute_site.cpu(), id, ops);

  w.response_times->add(eng.now() - t0);
  if (--w.jobs_left == 0) {
    std::printf("last job done at t=%s\n", util::format_duration(eng.now()).c_str());
  }
}

// A user submitting jobs with exponential think times.
core::Process user(core::Engine& eng, World& w, int n_jobs) {
  auto& rng = eng.rng("user");
  for (int i = 1; i <= n_jobs; ++i) {
    co_await core::delay(eng, rng.exponential(5.0));
    job(eng, w, static_cast<hosts::JobId>(i), rng.exponential(2000.0));
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int n_jobs = static_cast<int>(flags.get_int("jobs", 20));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  flags.reject_unread();

  // 1. An engine: the clock + pending event set (pluggable structure).
  core::Engine engine({.queue = core::QueueKind::kCalendarQueue, .seed = seed});

  // 2. A grid: sites (CPU farm + storage) wired by a network.
  hosts::Grid grid(engine);
  hosts::SiteSpec data;
  data.name = "data-site";
  grid.add_site(data);
  hosts::SiteSpec compute;
  compute.name = "compute-site";
  compute.cores = 4;
  compute.cpu_speed = 1000;
  grid.add_site(compute);
  grid.topology().add_link(grid.site(0).node(), grid.site(1).node(), util::gbps(1), 0.01);
  grid.finalize();

  // 3. Model behavior as coroutine processes, then run.
  stats::SampleSet response_times;
  World world{&grid, &response_times, n_jobs};
  user(engine, world, n_jobs);
  engine.run();

  std::printf("jobs: %zu  mean response: %s  p95: %s  events executed: %llu\n",
              response_times.count(), util::format_duration(response_times.mean()).c_str(),
              util::format_duration(response_times.p95()).c_str(),
              static_cast<unsigned long long>(engine.stats().executed));
  return 0;
}
