// Experiment E5 — validation against queueing theory (Sections 3 and 5).
//
// Paper claims: "Validation … represents a measure of the reliability
// offered to the end-user"; "the formalism provided by the queuing models
// is important for the definition and validation of the simulation
// stochastic models"; only Bricks, MONARC and SimGrid present validation
// studies, SimGrid's being a comparison "with the ones obtained
// analytically on a mathematically tractable … problem" (Casanova 2001).
//
// Five sim-vs-closed-form comparisons:
//   1. M/M/1 FCFS mean sojourn       (space-shared CPU, 1 core)
//   2. M/M/c FCFS mean wait          (space-shared CPU, c cores, Erlang C)
//   3. M/M/1-PS mean sojourn         (time-shared CPU — processor sharing)
//   4. M/D/1 FCFS mean wait          (deterministic service, Pollaczek-Khinchine)
//   5. max-min dumbbell completion   (flow network vs n*S/C)
//
// The bench judges its own run: a queueing row more than 5% off its closed
// form (60k jobs put the sampling error at 0.5-2.5% for these seeds), or a
// dumbbell row off n*S/C by more than 1e-9 relative, prints a FAIL line and
// exits 1.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_record.hpp"
#include "core/engine.hpp"
#include "hosts/cpu.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "stats/analytical.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/strings.hpp"

namespace core = lsds::core;
namespace hosts = lsds::hosts;
namespace net = lsds::net;
namespace stats = lsds::stats;

namespace {

constexpr int kJobs = 60000;
constexpr double kQueueTolerance = 0.05;  // relative, sampling error
constexpr double kFlowTolerance = 1e-9;   // relative, exact law

// Generic M/G/c queue simulation on a CpuResource. `deterministic_service`
// switches the service law from Exp(1/mu) to the constant 1/mu.
double sim_queue_metric(unsigned cores, hosts::SharingPolicy policy, double lambda, double mu,
                        bool wait_only, std::uint64_t seed,
                        bool deterministic_service = false) {
  core::Engine eng({.queue = core::QueueKind::kCalendarQueue, .seed = seed});
  hosts::CpuResource cpu(eng, "srv", cores, 1.0, policy);
  auto& arrivals = eng.rng("arrivals");
  auto& sizes = eng.rng("sizes");
  stats::Accumulator metric;
  double t = 0;
  auto submit_times = std::make_shared<std::vector<double>>(kJobs + 1, 0.0);
  auto services = std::make_shared<std::vector<double>>(kJobs + 1, 0.0);
  for (int i = 1; i <= kJobs; ++i) {
    t += arrivals.exponential(1.0 / lambda);
    const double ops = deterministic_service ? 1.0 / mu : sizes.exponential(1.0 / mu);
    (*services)[i] = ops;
    const auto id = static_cast<hosts::JobId>(i);
    eng.schedule_at(t, [&, id, ops] {
      (*submit_times)[id] = eng.now();
      cpu.submit(id, ops, [&, id](hosts::JobId) {
        const double sojourn = eng.now() - (*submit_times)[id];
        metric.add(wait_only ? sojourn - (*services)[id] : sojourn);
      });
    });
  }
  eng.run();
  return metric.mean();
}

double sim_dumbbell(std::size_t n) {
  core::Engine eng;
  auto topo = net::Topology::dumbbell(n, n, 1e9, 0, 1e6, 0);
  net::Routing routing(topo);
  net::FlowNetwork fn(eng, routing);
  double last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    fn.start_flow(static_cast<net::NodeId>(2 + i), static_cast<net::NodeId>(2 + n + i), 1e6,
                  [&](net::FlowId) { last = eng.now(); });
  }
  eng.run();
  return last;
}

}  // namespace

int main() {
  std::printf("== Experiment E5: simulation vs analytical queueing models ==\n");
  std::printf("%d jobs per queueing run\n\n", kJobs);

  stats::AsciiTable t({"system", "metric", "simulated", "analytic", "rel err"});
  lsds::bench::SelfCheck check;
  auto add = [&](const char* sys, const char* metric, double sim, double exact,
                 double tolerance = kQueueTolerance) {
    const double err = std::abs(sim - exact) / exact;
    t.row().cell(std::string(sys)).cell(std::string(metric)).cell(sim).cell(exact).cell(err);
    check.expect(err <= tolerance, "%s %s: simulated %.6g, analytic %.6g, rel err %.3g > %.3g",
                 sys, metric, sim, exact, err, tolerance);
  };

  {
    const stats::MM1 q{0.7, 1.0};
    const double sim =
        sim_queue_metric(1, hosts::SharingPolicy::kSpaceShared, q.lambda, q.mu, false, 11);
    add("M/M/1 FCFS (rho=0.7)", "mean sojourn", sim, q.mean_sojourn());
  }
  {
    const stats::MMc q{2.4, 1.0, 4};
    const double sim =
        sim_queue_metric(4, hosts::SharingPolicy::kSpaceShared, q.lambda, q.mu, true, 12);
    add("M/M/4 FCFS (rho=0.6)", "mean wait", sim, q.mean_wait());
  }
  {
    const stats::MM1PS q{0.6, 1.0};
    const double sim =
        sim_queue_metric(1, hosts::SharingPolicy::kTimeShared, q.lambda, q.mu, false, 13);
    add("M/M/1-PS (rho=0.6)", "mean sojourn", sim, q.mean_sojourn());
  }
  {
    // Deterministic service: Pollaczek-Khinchine says exactly half the
    // M/M/1 wait at equal rho.
    const stats::MG1 q{0.7, 1.0, 1.0};
    const double sim = sim_queue_metric(1, hosts::SharingPolicy::kSpaceShared, q.lambda, 1.0,
                                        true, 14, /*deterministic_service=*/true);
    add("M/D/1 FCFS (rho=0.7, PK)", "mean wait", sim, q.mean_wait());
  }
  for (std::size_t n : {2u, 8u, 32u}) {
    add(lsds::util::strformat("dumbbell %zu flows", n).c_str(), "last completion",
        sim_dumbbell(n), stats::maxmin_equal_share_completion(1e6, 1e6, n), kFlowTolerance);
  }

  std::printf("%s\n", t.render().c_str());
  if (!check.ok) return 1;
  std::printf("claim check: every subsystem matches its closed form within sampling\n"
              "error — the validation style the paper credits SimGrid with and asks\n"
              "of future simulators.\n");
  return 0;
}
