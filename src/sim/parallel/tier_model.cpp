#include "sim/parallel/tier_model.hpp"

#include "obs/report.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/rng.hpp"
#include "util/strings.hpp"

namespace lsds::sim::parallel {

namespace {

constexpr std::uint64_t kT2IdBase = 1000000;

/// Everything one analysis activity needs; precomputed at setup from
/// master-seed streams so the draws are independent of the partitioning.
struct JobPlan {
  std::uint64_t id = 0;
  std::size_t file = 0;
  double submit = 0;
  double ops = 0;
};

/// Per-T1 state, touched only by events on the owning LP. The per-file
/// tables are indexed by file and sized at setup, before any LP runs, so
/// no LP thread ever allocates in (or races on) another LP's state.
struct T1Local {
  std::vector<char> arrived;               // [file]: the replica landed here
  std::vector<const JobPlan*> waiting;     // [file]: submitted job waiting for it
  std::vector<hosts::SiteId> children;     // T2 sites under this T1
};

/// Per-T2 state, touched only by events on the owning LP.
struct T2Local {
  hosts::SiteId parent = 0;
  std::vector<char> avail;                 // [file]: the parent's replica landed
  std::vector<const JobPlan*> waiting;     // [file]: pull waiting for that notice
};

struct Ctx {
  const monarc::Config* cfg = nullptr;
  hosts::ParallelGrid* grid = nullptr;
  // Counters are only ever touched from T0's LP.
  std::uint64_t files_produced = 0;
  std::uint64_t files_archived = 0;
  std::vector<T1Local> t1;                         // by T1 index
  std::vector<T2Local> t2;                         // by site id; only T2 slots are set
  // Records appended only by the owner LP of the indexing site.
  std::vector<std::vector<TransferRecord>> site_transfers;  // by T1 index
  std::vector<std::vector<JobRecord>> site_jobs;            // by site id
};

void start_compute(Ctx& ctx, std::size_t t1_idx, const JobPlan& plan) {
  const auto site_id = static_cast<hosts::SiteId>(1 + t1_idx);
  auto& site = ctx.grid->site(site_id);
  site.cpu().submit(static_cast<hosts::JobId>(plan.id), plan.ops,
                    [&ctx, site_id, &plan](hosts::JobId) {
                      ctx.site_jobs[site_id].push_back(
                          {plan.id, site_id, plan.submit, ctx.grid->now_of(site_id), plan.ops});
                    });
}

/// T1 -> T2 pull: request travels up, the file comes back over the
/// (t1, t2) channel, then the T2 analysis runs — three cross-site hops,
/// each through the deterministic cross-LP message path.
void start_pull(Ctx& ctx, hosts::SiteId t2_site, const JobPlan& plan) {
  T2Local& t2 = ctx.t2[t2_site];
  const hosts::SiteId parent = t2.parent;
  const double bytes = ctx.cfg->file_bytes;
  const double req_at = ctx.grid->now_of(t2_site) + ctx.grid->path_latency(t2_site, parent);
  ctx.grid->post(t2_site, parent, req_at, [&ctx, parent, t2_site, bytes, &plan] {
    ctx.grid->transfer(parent, t2_site, bytes, [&ctx, t2_site, &plan] {
      auto& site = ctx.grid->site(t2_site);
      site.disk().store(util::numbered("raw", plan.file, 5), ctx.cfg->file_bytes);
      site.cpu().submit(static_cast<hosts::JobId>(plan.id), plan.ops,
                        [&ctx, t2_site, &plan](hosts::JobId) {
                          ctx.site_jobs[t2_site].push_back({plan.id, t2_site, plan.submit,
                                                            ctx.grid->now_of(t2_site), plan.ops});
                        });
    });
  });
}

}  // namespace

TierResult run_tier(const monarc::Config& cfg, const hosts::ExecutionSpec& exec) {
  if (cfg.failures.enabled) {
    throw std::runtime_error(
        "tier_model: failure injection requires serial execution (facade = monarc, "
        "mode = serial)");
  }

  hosts::ParallelGrid grid(exec);

  // --- sites & topology (the shape of sim/monarc) -------------------------
  hosts::SiteSpec t0spec;
  t0spec.name = "T0";
  t0spec.cores = 32;
  t0spec.cpu_speed = 2000;
  t0spec.disk_capacity = cfg.t0_disk;
  t0spec.has_mass_storage = true;
  t0spec.tape_bandwidth = cfg.tape_bandwidth;
  t0spec.tape_mount_latency = cfg.tape_mount_latency;
  t0spec.storage_sharing = cfg.storage_sharing;
  const hosts::SiteId t0 = grid.add_site(t0spec);

  std::vector<hosts::SiteId> t1_sites;
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    hosts::SiteSpec s;
    s.name = util::strformat("T1_%zu", i);
    s.cores = cfg.t1_cores;
    s.cpu_speed = cfg.analysis_cpu_speed;
    s.disk_capacity = cfg.t1_disk;
    s.storage_sharing = cfg.storage_sharing;
    t1_sites.push_back(grid.add_site(s));
  }
  std::vector<std::vector<hosts::SiteId>> t2_sites(cfg.num_t1);
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (std::size_t j = 0; j < cfg.t2_per_t1; ++j) {
      hosts::SiteSpec s;
      s.name = util::strformat("T2_%zu_%zu", i, j);
      s.cores = cfg.t2_cores;
      s.cpu_speed = cfg.analysis_cpu_speed;
      s.disk_capacity = cfg.t2_disk;
      s.storage_sharing = cfg.storage_sharing;
      t2_sites[i].push_back(grid.add_site(s));
    }
  }
  auto& topo = grid.topology();
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    topo.add_link(0, static_cast<net::NodeId>(1 + i), cfg.t0_t1_bandwidth, cfg.t0_t1_latency,
                  util::strformat("T0--T1_%zu", i));
  }
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (hosts::SiteId t2 : t2_sites[i]) {
      topo.add_link(static_cast<net::NodeId>(1 + i), static_cast<net::NodeId>(t2),
                    cfg.t1_t2_bandwidth, cfg.t1_t2_latency);
    }
  }
  grid.finalize();

  // --- plans: every random draw happens HERE, in a fixed order, from
  // master-seed streams — partitioning can never perturb them. ------------
  std::vector<std::vector<JobPlan>> t1_plans(cfg.num_t1);   // [t1][file]
  std::vector<std::vector<JobPlan>> t2_plans(grid.site_count());  // [site id]
  if (cfg.run_analysis) {
    core::RngStream submits(grid.master_seed(), "tier.analysis");
    for (std::size_t i = 0; i < cfg.num_t1; ++i) {
      t1_plans[i].resize(cfg.num_files);
      for (std::size_t f = 0; f < cfg.num_files; ++f) {
        const double produced_at = cfg.production_interval * static_cast<double>(f + 1);
        t1_plans[i][f] = {1 + i * cfg.num_files + f, f,
                          produced_at + submits.exponential(10.0),
                          submits.exponential(cfg.analysis_mean_ops)};
      }
    }
    core::RngStream t2rng(grid.master_seed(), "tier.t2");
    for (std::size_t i = 0; i < cfg.num_t1; ++i) {
      for (hosts::SiteId t2 : t2_sites[i]) {
        for (std::size_t f = 0; f < cfg.num_files; ++f) {
          if (!t2rng.bernoulli(cfg.t2_fraction)) continue;
          const double produced_at = cfg.production_interval * static_cast<double>(f + 1);
          t2_plans[t2].push_back({kT2IdBase + t2 * cfg.num_files + f, f,
                                  produced_at + t2rng.exponential(20.0),
                                  t2rng.exponential(cfg.analysis_mean_ops)});
        }
      }
    }
  }

  Ctx ctx;
  ctx.cfg = &cfg;
  ctx.grid = &grid;
  ctx.t1.resize(cfg.num_t1);
  ctx.t2.resize(grid.site_count());
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    T1Local& t1 = ctx.t1[i];
    t1.children = t2_sites[i];
    t1.arrived.resize(cfg.num_files);
    t1.waiting.resize(cfg.num_files);
    for (hosts::SiteId t2 : t2_sites[i]) {
      T2Local& local = ctx.t2[t2];
      local.parent = t1_sites[i];
      local.avail.resize(cfg.num_files);
      local.waiting.resize(cfg.num_files);
    }
  }
  ctx.site_transfers.resize(cfg.num_t1);
  ctx.site_jobs.resize(grid.site_count());

  // --- production + replication at T0 -------------------------------------
  for (std::size_t f = 0; f < cfg.num_files; ++f) {
    const double produced_at = cfg.production_interval * static_cast<double>(f + 1);
    grid.at(t0, produced_at, [&ctx, &grid, &cfg, t0, f, produced_at] {
      grid.site(t0).disk().store(util::numbered("raw", f, 5), cfg.file_bytes, true);
      ++ctx.files_produced;
      for (std::size_t i = 0; i < cfg.num_t1; ++i) {
        const auto dst = static_cast<hosts::SiteId>(1 + i);
        grid.transfer(t0, dst, cfg.file_bytes, [&ctx, &grid, i, dst, f, produced_at] {
          const double now = grid.now_of(dst);
          grid.site(dst).disk().store(util::numbered("raw", f, 5), ctx.cfg->file_bytes);
          T1Local& t1 = ctx.t1[i];
          t1.arrived[f] = 1;
          ctx.site_transfers[i].push_back({f, dst, produced_at, now});
          if (const JobPlan* plan = std::exchange(t1.waiting[f], nullptr)) {
            start_compute(ctx, i, *plan);
          }
          // Tell the T2 children the replica landed (one path latency
          // away — the GIS-style availability notice).
          for (hosts::SiteId t2 : t1.children) {
            grid.post(dst, t2, now + grid.path_latency(dst, t2), [&ctx, t2, f] {
              T2Local& local = ctx.t2[t2];
              local.avail[f] = 1;
              if (const JobPlan* plan = std::exchange(local.waiting[f], nullptr)) {
                start_pull(ctx, t2, *plan);
              }
            });
          }
        });
      }
      if (cfg.archive_to_tape) {
        grid.site(t0).tape().write(util::numbered("tape-raw", f, 5), cfg.file_bytes,
                                   [&ctx] { ++ctx.files_archived; });
      }
    });
  }

  // --- analysis activities --------------------------------------------------
  if (cfg.run_analysis) {
    for (std::size_t i = 0; i < cfg.num_t1; ++i) {
      for (std::size_t f = 0; f < cfg.num_files; ++f) {
        const JobPlan& plan = t1_plans[i][f];
        grid.at(t1_sites[i], plan.submit, [&ctx, i, &plan] {
          T1Local& t1 = ctx.t1[i];
          if (t1.arrived[plan.file]) {
            start_compute(ctx, i, plan);
          } else {
            t1.waiting[plan.file] = &plan;
          }
        });
      }
    }
    // Ascending site id, as the plans were drawn: each grid.at keeps its seq.
    for (hosts::SiteId t2_site = 0; t2_site < t2_plans.size(); ++t2_site) {
      for (const JobPlan& plan : t2_plans[t2_site]) {
        grid.at(t2_site, plan.submit, [&ctx, t2_site, &plan] {
          T2Local& local = ctx.t2[t2_site];
          if (local.avail[plan.file]) {
            start_pull(ctx, t2_site, plan);
          } else {
            local.waiting[plan.file] = &plan;
          }
        });
      }
    }
  }

  // --- run -----------------------------------------------------------------
  TierResult res;
  res.exec = grid.run(cfg.horizon > 0 ? cfg.horizon : core::kInfTime);

  // --- deterministic merge (site order, then sorted) ----------------------
  res.files_produced = ctx.files_produced;
  res.files_archived = ctx.files_archived;
  for (auto& v : ctx.site_transfers) {
    res.transfers.insert(res.transfers.end(), v.begin(), v.end());
  }
  std::sort(res.transfers.begin(), res.transfers.end(),
            [](const TransferRecord& a, const TransferRecord& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.dst_site < b.dst_site;
            });
  res.replicas_delivered = res.transfers.size();
  for (const auto& t : res.transfers) {
    res.replication_lag.add(t.arrival - t.produced_at);
    res.makespan = std::max(res.makespan, t.arrival);
  }
  for (auto& v : ctx.site_jobs) {
    res.jobs.insert(res.jobs.end(), v.begin(), v.end());
  }
  std::sort(res.jobs.begin(), res.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
  for (const auto& j : res.jobs) {
    (j.id >= kT2IdBase ? res.t2_delays : res.analysis_delays).add(j.completion - j.submit);
    res.makespan = std::max(res.makespan, j.completion);
  }
  res.channel_bytes = grid.channel_bytes();

  const double production_end =
      cfg.production_interval * static_cast<double>(cfg.num_files);
  double delivered_by_end = 0;
  for (const auto& t : res.transfers) {
    if (t.dst_site <= cfg.num_t1 && t.arrival <= production_end) {
      delivered_by_end += cfg.file_bytes;
    }
  }
  res.backlog_at_production_end =
      static_cast<double>(res.files_produced) * cfg.file_bytes *
          static_cast<double>(cfg.num_t1) -
      delivered_by_end;
  return res;
}

std::string TierResult::trace() const {
  std::string out;
  out += util::strformat("produced %llu delivered %llu archived %llu makespan %.17g\n",
                         static_cast<unsigned long long>(files_produced),
                         static_cast<unsigned long long>(replicas_delivered),
                         static_cast<unsigned long long>(files_archived), makespan);
  for (const auto& t : transfers) {
    out += util::strformat("file %llu dst %u produced %.17g arrival %.17g\n",
                           static_cast<unsigned long long>(t.file), t.dst_site, t.produced_at,
                           t.arrival);
  }
  for (const auto& j : jobs) {
    out += util::strformat("job %llu site %u submit %.17g completion %.17g ops %.17g\n",
                           static_cast<unsigned long long>(j.id), j.site, j.submit,
                           j.completion, j.ops);
  }
  for (const auto& [from, to, bytes] : channel_bytes) {
    out += util::strformat("chan %u %u %.17g\n", from, to, bytes);
  }
  return out;
}


void TierResult::to_report(obs::RunReport& report) const {
  double moved = 0;
  for (const auto& [from, to, bytes] : channel_bytes) moved += bytes;
  report.set_result_core(jobs.size(), makespan, moved);
  auto& r = report.result();
  r.set("files_produced", files_produced);
  r.set("replicas_delivered", replicas_delivered);
  r.set("files_archived", files_archived);
  r.set("backlog_at_production_end_bytes", backlog_at_production_end);
  r.set("mean_replication_lag_s", replication_lag.mean());
  report.add_execution(exec);
}

}  // namespace lsds::sim::parallel
