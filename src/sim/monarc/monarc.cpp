#include "sim/monarc/monarc.hpp"

#include "obs/report.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "core/process.hpp"
#include "hosts/site.hpp"
#include "sim/common.hpp"
#include "util/strings.hpp"

namespace lsds::sim::monarc {

namespace {

struct Ctx {
  const Config* cfg;
  hosts::Grid* grid;
  Result* res;
  double produced_bytes = 0;    // total payload bytes owed to T1s (x num_t1)
  double delivered_bytes = 0;
  double production_end = 0;
  double last_delivery = 0;
  // Per-T1 replica arrival flags for the analysis activities, indexed by
  // file (1 once the replica has landed).
  std::vector<std::vector<char>> arrived;
  // Per-T1 analysis jobs parked until a file lands, keyed by file index, so
  // an arrival wakes only the jobs that wait for that file: behind a
  // saturated link the parked jobs grow with the files, and waking them all
  // at every arrival makes the run quadratic.
  std::vector<std::map<std::size_t, core::Condition>> waiting;

  /// Suspends until file `file_idx` has landed at T1 `t1`.
  core::Condition::WaitAwaiter wait_for(core::Engine& eng, std::size_t t1, std::size_t file_idx) {
    return waiting[t1].try_emplace(file_idx, eng).first->second.wait();
  }
  /// Wakes the jobs waiting for `file_idx` at `t1`, in the order they began
  /// to wait.
  void notify_arrival(std::size_t t1, std::size_t file_idx) {
    const auto it = waiting[t1].find(file_idx);
    if (it == waiting[t1].end()) return;
    it->second.notify_all();
    waiting[t1].erase(it);
  }

  void record_backlog(core::Engine& eng) {
    const double b = produced_bytes - delivered_bytes;
    res->backlog.record(eng.now(), b);
    res->peak_backlog_bytes = std::max(res->peak_backlog_bytes, b);
  }
};

// The data replication agent: push one produced file to every T1.
core::Process replicate_file(core::Engine& eng, Ctx& ctx, std::size_t file_idx,
                             double produced_at) {
  (void)eng;
  // Transfers to all T1s proceed concurrently (they use disjoint links).
  // Spawn one sub-process per T1 from this agent.
  struct Sub {
    static core::Process to_t1(core::Engine& eng, Ctx& ctx, std::size_t file_idx,
                               double produced_at, std::size_t t1) {
      auto& t0 = ctx.grid->site(0);
      auto& dst = ctx.grid->site(static_cast<hosts::SiteId>(1 + t1));
      co_await transfer(ctx.grid->net(), t0.node(), dst.node(), ctx.cfg->file_bytes);
      dst.disk().store(util::numbered("raw", file_idx, 5), ctx.cfg->file_bytes);
      ctx.delivered_bytes += ctx.cfg->file_bytes;
      ctx.last_delivery = eng.now();
      ++ctx.res->replicas_delivered;
      ctx.res->replication_lag.add(eng.now() - produced_at);
      ctx.record_backlog(eng);
      ctx.arrived[t1][file_idx] = 1;
      ctx.notify_arrival(t1, file_idx);
    }
  };
  for (std::size_t t1 = 0; t1 < ctx.cfg->num_t1; ++t1) {
    Sub::to_t1(eng, ctx, file_idx, produced_at, t1);
  }
  co_return;
}

// T0 production activity: deterministic detector readout.
core::Process production(core::Engine& eng, Ctx& ctx) {
  for (std::size_t i = 0; i < ctx.cfg->num_files; ++i) {
    co_await core::delay(eng, ctx.cfg->production_interval);
    ctx.grid->site(0).disk().store(util::numbered("raw", i, 5), ctx.cfg->file_bytes, true);
    ++ctx.res->files_produced;
    ctx.produced_bytes += ctx.cfg->file_bytes * static_cast<double>(ctx.cfg->num_t1);
    ctx.record_backlog(eng);
    replicate_file(eng, ctx, i, eng.now());
    if (ctx.cfg->archive_to_tape) {
      // Tape writes serialize FIFO behind the robots (StorageDevice head).
      const double produced_at = eng.now();
      ctx.grid->site(0).tape().write(
          util::numbered("tape-raw", i, 5), ctx.cfg->file_bytes, [&ctx, produced_at] {
            ++ctx.res->files_archived;
            ctx.res->archive_lag.add(ctx.grid->engine().now() - produced_at);
          });
    }
  }
  ctx.production_end = eng.now();
  ctx.res->backlog_at_production_end = ctx.produced_bytes - ctx.delivered_bytes;
}

// T2 analysis: pull the file from the parent T1 (once its replica landed),
// then compute locally — the next hierarchical level of the tier model.
core::Process t2_analysis(core::Engine& eng, Ctx& ctx, std::size_t t1, hosts::SiteId t2_site,
                          std::size_t file_idx, double submit_at) {
  co_await core::delay(eng, submit_at - eng.now());
  const double t_submit = eng.now();
  if (!ctx.arrived[t1][file_idx]) co_await ctx.wait_for(eng, t1, file_idx);
  auto& parent = ctx.grid->site(static_cast<hosts::SiteId>(1 + t1));
  auto& t2 = ctx.grid->site(t2_site);
  co_await transfer(ctx.grid->net(), parent.node(), t2.node(), ctx.cfg->file_bytes);
  t2.disk().store(util::numbered("raw", file_idx, 5), ctx.cfg->file_bytes);
  const auto job_id = static_cast<hosts::JobId>(1000000 + t2_site * 100000 + file_idx);
  co_await compute(t2.cpu(), job_id,
                   eng.rng("monarc.t2").exponential(ctx.cfg->analysis_mean_ops));
  ctx.res->t2_delays.add(eng.now() - t_submit);
  ++ctx.res->t2_jobs;
  ctx.res->makespan = std::max(ctx.res->makespan, eng.now());
}

// T1 analysis activity: one job per file, waiting for the local replica.
core::Process analysis(core::Engine& eng, Ctx& ctx, std::size_t t1, std::size_t file_idx,
                       double submit_at) {
  co_await core::delay(eng, submit_at - eng.now());
  const double t_submit = eng.now();
  if (!ctx.arrived[t1][file_idx]) co_await ctx.wait_for(eng, t1, file_idx);
  auto& site = ctx.grid->site(static_cast<hosts::SiteId>(1 + t1));
  const auto job_id =
      static_cast<hosts::JobId>(1 + t1 * ctx.cfg->num_files + file_idx);
  co_await compute(site.cpu(), job_id,
                   eng.rng("monarc.analysis").exponential(ctx.cfg->analysis_mean_ops));
  ctx.res->analysis_delays.add(eng.now() - t_submit);
  ++ctx.res->analysis_jobs;
  ctx.res->makespan = std::max(ctx.res->makespan, eng.now());
}

}  // namespace

Result run(core::Engine& engine, const Config& cfg) {
  hosts::Grid grid(engine);

  hosts::SiteSpec t0;
  t0.name = "T0";
  t0.cores = 32;
  t0.cpu_speed = 2000;
  t0.disk_capacity = cfg.t0_disk;
  t0.has_mass_storage = true;
  t0.tape_bandwidth = cfg.tape_bandwidth;
  t0.tape_mount_latency = cfg.tape_mount_latency;
  t0.storage_sharing = cfg.storage_sharing;
  grid.add_site(t0);

  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    hosts::SiteSpec t1;
    t1.name = util::strformat("T1_%zu", i);
    t1.cores = cfg.t1_cores;
    t1.cpu_speed = cfg.analysis_cpu_speed;
    t1.disk_capacity = cfg.t1_disk;
    t1.storage_sharing = cfg.storage_sharing;
    grid.add_site(t1);
  }
  // Optional T2 tier under each T1.
  std::vector<std::vector<hosts::SiteId>> t2_sites(cfg.num_t1);
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (std::size_t j = 0; j < cfg.t2_per_t1; ++j) {
      hosts::SiteSpec t2;
      t2.name = util::strformat("T2_%zu_%zu", i, j);
      t2.cores = cfg.t2_cores;
      t2.cpu_speed = cfg.analysis_cpu_speed;
      t2.disk_capacity = cfg.t2_disk;
      t2.storage_sharing = cfg.storage_sharing;
      t2_sites[i].push_back(grid.add_site(t2).id());
    }
  }

  auto& topo = grid.topology();
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    topo.add_link(grid.site(0).node(), grid.site(static_cast<hosts::SiteId>(1 + i)).node(),
                  cfg.t0_t1_bandwidth, cfg.t0_t1_latency,
                  util::strformat("T0--T1_%zu", i));
  }
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (hosts::SiteId t2 : t2_sites[i]) {
      topo.add_link(grid.site(static_cast<hosts::SiteId>(1 + i)).node(),
                    grid.site(t2).node(), cfg.t1_t2_bandwidth, cfg.t1_t2_latency);
    }
  }
  grid.finalize();
  auto chaos = inject_failures(grid, cfg.failures);
  grid.net().track_link(0);  // first T0-T1 link

  Result res;
  res.file_bytes = cfg.file_bytes;
  res.num_t1 = cfg.num_t1;
  Ctx ctx;
  ctx.cfg = &cfg;
  ctx.grid = &grid;
  ctx.res = &res;
  ctx.arrived.assign(cfg.num_t1, std::vector<char>(cfg.num_files, 0));
  ctx.waiting.resize(cfg.num_t1);

  production(engine, ctx);

  if (cfg.run_analysis) {
    auto& rng = engine.rng("monarc.submits");
    for (std::size_t t1 = 0; t1 < cfg.num_t1; ++t1) {
      for (std::size_t f = 0; f < cfg.num_files; ++f) {
        const double produced_at = cfg.production_interval * static_cast<double>(f + 1);
        analysis(engine, ctx, t1, f, produced_at + rng.exponential(10.0));
      }
    }
    for (std::size_t t1 = 0; t1 < cfg.num_t1; ++t1) {
      for (hosts::SiteId t2 : t2_sites[t1]) {
        for (std::size_t f = 0; f < cfg.num_files; ++f) {
          if (!rng.bernoulli(cfg.t2_fraction)) continue;
          const double produced_at = cfg.production_interval * static_cast<double>(f + 1);
          t2_analysis(engine, ctx, t1, t2, f, produced_at + rng.exponential(20.0));
        }
      }
    }
  }

  if (cfg.horizon > 0) {
    engine.run_until(cfg.horizon);
  } else {
    engine.run();
  }

  res.makespan = std::max(res.makespan, ctx.last_delivery);
  res.drain_time = std::max(0.0, ctx.last_delivery - ctx.production_end);
  if (ctx.last_delivery > 0) {
    res.link_utilization = grid.net().link_series(0).time_weighted_mean(ctx.last_delivery);
  }
  return res;
}


void Result::to_report(obs::RunReport& report) const {
  report.set_result_core(analysis_jobs + t2_jobs, makespan,
                         file_bytes * static_cast<double>(replicas_delivered));
  auto& r = report.result();
  r.set("files_produced", files_produced);
  r.set("replicas_delivered", replicas_delivered);
  r.set("files_archived", files_archived);
  r.set("backlog_at_production_end_bytes", backlog_at_production_end);
  r.set("mean_replication_lag_s", replication_lag.mean());
  r.set("link_utilization", link_utilization);
  r.set("sustainable", sustainable());
}

}  // namespace lsds::sim::monarc
