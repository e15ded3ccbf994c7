#include "sim/parallel/bag_model.hpp"

#include "obs/report.hpp"

#include <algorithm>
#include <cmath>

#include "core/rng.hpp"
#include "util/strings.hpp"

namespace lsds::sim::parallel {

namespace {

// Star links broker <-> resource. The latency doubles as the derived
// lookahead, the bandwidth only matters for the (tiny) dispatch payloads.
constexpr double kLinkBandwidth = 1e9 / 8;
constexpr double kLinkLatency = 0.02;
constexpr double kDispatchBytes = 1e4;  // job description payload

struct Assignment {
  std::uint64_t id = 0;
  std::uint32_t site = 0;  // resource site (1-based; 0 is the broker)
  double dispatch = 0;     // broker-side send time
  double ops = 0;
  double cost = 0;
};

}  // namespace

BagResult run_bag(const gridsim::Config& cfg, const hosts::ExecutionSpec& exec) {
  hosts::ParallelGrid grid(exec);

  // --- sites: broker (no compute) + priced heterogeneous resources --------
  hosts::SiteSpec broker_spec;
  broker_spec.name = "broker";
  broker_spec.cores = 1;
  const hosts::SiteId broker = grid.add_site(broker_spec);

  std::vector<double> speed(cfg.num_resources), price(cfg.num_resources);
  std::vector<unsigned> cores(cfg.num_resources, cfg.cores_each);
  for (std::size_t i = 0; i < cfg.num_resources; ++i) {
    const double t = cfg.num_resources > 1
                         ? static_cast<double>(i) / static_cast<double>(cfg.num_resources - 1)
                         : 0.0;
    speed[i] = cfg.speed_min + t * (cfg.speed_max - cfg.speed_min);
    price[i] = cfg.base_price * std::pow(speed[i] / cfg.speed_min, cfg.price_exponent);
    hosts::SiteSpec s;
    s.name = util::strformat("resource%zu", i);
    s.cores = cfg.cores_each;
    s.cpu_speed = speed[i];
    s.policy = cfg.time_shared ? hosts::SharingPolicy::kTimeShared
                               : hosts::SharingPolicy::kSpaceShared;
    s.price_per_cpu_second = price[i];
    const hosts::SiteId id = grid.add_site(s);
    grid.topology().add_link(static_cast<net::NodeId>(broker), static_cast<net::NodeId>(id),
                             kLinkBandwidth, kLinkLatency,
                             util::strformat("broker--resource%zu", i));
  }
  grid.finalize();
  // Dispatches go out to the resources, acknowledgements come back.
  for (std::size_t i = 0; i < cfg.num_resources; ++i) {
    const auto site = static_cast<hosts::SiteId>(1 + i);
    grid.channel(broker, site);
    grid.channel(site, broker);
  }

  // --- static DBC-ish plan (all draws + all decisions at setup) -----------
  //
  // Service demands come from a master-seed stream; the broker's estimated
  // completion time per resource is tracked per core (earliest-free-core,
  // the space-shared estimate sim/gridsim's broker uses). Cost optimization
  // walks resources cheapest-first and takes the first that can still meet
  // the deadline; time optimization takes the earliest estimated finish.
  core::RngStream ops_rng(grid.master_seed(), "bag.ops");
  std::vector<double> ops(cfg.num_jobs);
  for (std::size_t j = 0; j < cfg.num_jobs; ++j) ops[j] = ops_rng.exponential(cfg.mean_ops);

  std::vector<std::size_t> by_price(cfg.num_resources);
  for (std::size_t i = 0; i < cfg.num_resources; ++i) by_price[i] = i;
  std::sort(by_price.begin(), by_price.end(), [&](std::size_t a, std::size_t b) {
    if (price[a] != price[b]) return price[a] < price[b];
    return a < b;
  });

  std::vector<std::vector<double>> core_free(cfg.num_resources);
  for (std::size_t i = 0; i < cfg.num_resources; ++i) {
    core_free[i].assign(cores[i], kLinkLatency);  // dispatch can't land before one hop
  }
  auto estimate = [&](std::size_t r, double work) {
    const auto it = std::min_element(core_free[r].begin(), core_free[r].end());
    return *it + work / speed[r];
  };

  BagResult res;
  std::vector<Assignment> plan;
  double spent = 0;
  // Small deterministic stagger so no two dispatches tie in time.
  const double stagger = 1e-3;
  for (std::size_t j = 0; j < cfg.num_jobs; ++j) {
    std::size_t pick = static_cast<std::size_t>(-1);
    if (cfg.strategy == middleware::DbcStrategy::kCostOptimization) {
      for (std::size_t r : by_price) {
        if (estimate(r, ops[j]) + kLinkLatency <= cfg.deadline) {
          pick = r;
          break;
        }
      }
    } else {
      double best = core::kInfTime;
      for (std::size_t r = 0; r < cfg.num_resources; ++r) {
        const double fin = estimate(r, ops[j]);
        if (fin < best) {
          best = fin;
          pick = r;
        }
      }
      if (pick != static_cast<std::size_t>(-1) && best + kLinkLatency > cfg.deadline) {
        pick = static_cast<std::size_t>(-1);
      }
    }
    const double job_cost =
        pick != static_cast<std::size_t>(-1) ? ops[j] / speed[pick] * price[pick] : 0;
    if (pick == static_cast<std::size_t>(-1) || spent + job_cost > cfg.budget) {
      ++res.rejected;
      continue;
    }
    spent += job_cost;
    auto it = std::min_element(core_free[pick].begin(), core_free[pick].end());
    *it = std::max(*it, kLinkLatency) + ops[j] / speed[pick];
    plan.push_back({j + 1, static_cast<std::uint32_t>(1 + pick),
                    static_cast<double>(plan.size()) * stagger, ops[j], job_cost});
  }
  res.accepted = plan.size();

  // --- execution: dispatch -> compute -> ack, all cross-LP ----------------
  struct Done {
    std::uint64_t id;
    std::uint32_t site;
    double submit, completion, ops, cost;
  };
  std::vector<std::vector<Done>> site_done(grid.site_count());  // by resource site
  std::vector<BagJobRecord> acked;                              // broker-local
  acked.reserve(plan.size());

  for (const Assignment& a : plan) {
    grid.at(broker, a.dispatch, [&grid, &site_done, &acked, &a, broker] {
      grid.transfer(broker, a.site, kDispatchBytes, [&grid, &site_done, &acked, &a, broker] {
        grid.site(a.site).cpu().submit(
            a.id, a.ops, [&grid, &site_done, &acked, &a, broker](hosts::JobId) {
              const double done_at = grid.now_of(a.site);
              site_done[a.site].push_back({a.id, a.site, a.dispatch, done_at, a.ops, a.cost});
              grid.post(a.site, broker, done_at + grid.path_latency(a.site, broker),
                        [&grid, &acked, &a, broker] {
                          acked.push_back({a.id, a.site, a.dispatch, 0, grid.now_of(broker),
                                           a.ops, a.cost});
                        });
            });
      });
    });
  }

  res.exec = grid.run();

  // --- deterministic merge -------------------------------------------------
  std::vector<BagJobRecord> jobs;
  for (const auto& v : site_done) {
    for (const Done& d : v) {
      jobs.push_back({d.id, d.site, d.submit, d.completion, 0, d.ops, d.cost});
    }
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const BagJobRecord& a, const BagJobRecord& b) { return a.id < b.id; });
  std::sort(acked.begin(), acked.end(),
            [](const BagJobRecord& a, const BagJobRecord& b) { return a.id < b.id; });
  for (std::size_t i = 0, k = 0; i < jobs.size(); ++i) {
    while (k < acked.size() && acked[k].id < jobs[i].id) ++k;
    if (k < acked.size() && acked[k].id == jobs[i].id) jobs[i].acked = acked[k].acked;
  }
  res.jobs = std::move(jobs);
  for (const auto& j : res.jobs) {
    if (j.acked <= 0) continue;  // horizon cut before the ack landed
    ++res.completed;
    res.cost += j.cost;
    res.response_times.add(j.acked - j.submit);
    res.makespan = std::max(res.makespan, j.acked);
  }
  res.deadline_met = res.completed == res.accepted && res.makespan <= cfg.deadline;
  res.channel_bytes = grid.channel_bytes();
  return res;
}

std::string BagResult::trace() const {
  std::string out = util::strformat(
      "accepted %llu rejected %llu completed %llu cost %.17g makespan %.17g\n",
      static_cast<unsigned long long>(accepted), static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(completed), cost, makespan);
  for (const auto& j : jobs) {
    out += util::strformat(
        "job %llu site %u submit %.17g completion %.17g acked %.17g ops %.17g cost %.17g\n",
        static_cast<unsigned long long>(j.id), j.site, j.submit, j.completion, j.acked, j.ops,
        j.cost);
  }
  for (const auto& [from, to, bytes] : channel_bytes) {
    out += util::strformat("chan %u %u %.17g\n", from, to, bytes);
  }
  return out;
}


void BagResult::to_report(obs::RunReport& report) const {
  double moved = 0;
  for (const auto& [from, to, bytes] : channel_bytes) moved += bytes;
  report.set_result_core(completed, makespan, moved);
  auto& r = report.result();
  r.set("accepted", accepted);
  r.set("rejected", rejected);
  r.set("cost", cost);
  r.set("deadline_met", deadline_met);
  r.set("mean_response_s", response_times.mean());
  report.add_execution(exec);
}

}  // namespace lsds::sim::parallel
