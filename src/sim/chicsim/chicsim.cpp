#include "sim/chicsim/chicsim.hpp"

#include "obs/report.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "core/process.hpp"
#include "hosts/site.hpp"
#include "middleware/replica_catalog.hpp"
#include "middleware/replication.hpp"
#include "sim/common.hpp"
#include "util/strings.hpp"

namespace lsds::sim::chicsim {

const char* to_string(JobPolicy p) {
  switch (p) {
    case JobPolicy::kRandom: return "job-random";
    case JobPolicy::kLeastLoaded: return "job-least-loaded";
    case JobPolicy::kDataPresent: return "job-data-present";
    case JobPolicy::kLocal: return "job-local";
  }
  return "?";
}

const char* to_string(DataPolicy p) {
  switch (p) {
    case DataPolicy::kNone: return "data-none";
    case DataPolicy::kCache: return "data-cache";
    case DataPolicy::kPush: return "data-push";
  }
  return "?";
}

namespace {

struct Ctx {
  const Config* cfg;
  hosts::Grid* grid;
  middleware::ReplicaCatalog* catalog;
  middleware::LruReplication lru;  // cache-eviction planner for kCache/kPush
  Result* res;
  std::map<std::string, double> file_bytes;
  std::map<std::string, std::uint32_t> access_counts;  // push trigger
  std::vector<std::unique_ptr<core::Resource>> slots;
};

double site_load(const hosts::Site& s) {
  return static_cast<double>(s.cpu().running() + s.cpu().queued() + 1) /
         static_cast<double>(s.cpu().cores());
}

// Install a replica of lfn at site (metadata + catalog), evicting per LRU.
// Returns false when no room can be made.
bool install_replica(Ctx& ctx, hosts::SiteId site_id, const std::string& lfn) {
  auto& site = ctx.grid->site(site_id);
  const double bytes = ctx.file_bytes.at(lfn);
  auto plan = ctx.lru.plan_replication(site_id, site.disk(), lfn, bytes);
  if (!plan) return false;
  for (const auto& victim : plan->evictions) {
    site.disk().evict(victim);
    ctx.catalog->remove_replica(victim, site_id);
  }
  if (!site.disk().store(lfn, bytes)) return false;
  ctx.catalog->add_replica(lfn, site_id, site.node());
  ++ctx.res->replications;
  return true;
}

// Dataset scheduler, push model: after every push_threshold-th access of a
// file, proactively copy it to the least-loaded sites that lack it.
core::Process push_replicas(core::Engine& eng, Ctx& ctx, std::string lfn) {
  (void)eng;
  // Rank candidate destinations by load, exclude holders.
  std::vector<hosts::SiteId> targets;
  for (std::size_t s = 0; s < ctx.grid->site_count(); ++s) {
    const auto id = static_cast<hosts::SiteId>(s);
    if (!ctx.catalog->has_replica_at(lfn, id)) targets.push_back(id);
  }
  std::sort(targets.begin(), targets.end(), [&](hosts::SiteId a, hosts::SiteId b) {
    const double la = site_load(ctx.grid->site(a));
    const double lb = site_load(ctx.grid->site(b));
    if (la != lb) return la < lb;
    return a < b;
  });
  if (targets.size() > ctx.cfg->push_fanout) targets.resize(ctx.cfg->push_fanout);

  const double bytes = ctx.file_bytes.at(lfn);
  for (hosts::SiteId dst : targets) {
    const auto src = ctx.catalog->best_source(lfn, ctx.grid->site(dst).node());
    if (!src) co_return;
    co_await transfer(ctx.grid->net(), ctx.grid->site(*src).node(), ctx.grid->site(dst).node(),
                      bytes);
    ctx.res->network_bytes += bytes;
    if (install_replica(ctx, dst, lfn)) ++ctx.res->pushes;
  }
}

core::Process fetch_input(core::Engine& eng, Ctx& ctx, hosts::SiteId site_id,
                          const std::string lfn, core::Condition& done) {
  auto& site = ctx.grid->site(site_id);
  const std::uint32_t count = ++ctx.access_counts[lfn];
  if (ctx.cfg->data_policy == DataPolicy::kPush && count % ctx.cfg->push_threshold == 0) {
    push_replicas(eng, ctx, lfn);  // fire-and-forget dataset scheduler
  }

  if (site.disk().has(lfn)) {
    ++ctx.res->local_reads;
    co_await disk_read(site.disk(), lfn);
    done.notify_all();
    co_return;
  }

  ++ctx.res->remote_reads;
  const double bytes = ctx.file_bytes.at(lfn);
  const auto src = ctx.catalog->best_source(lfn, site.node());
  co_await transfer(ctx.grid->net(), ctx.grid->site(*src).node(), site.node(), bytes);
  ctx.res->network_bytes += bytes;

  if (ctx.cfg->data_policy == DataPolicy::kCache) {
    install_replica(ctx, site_id, lfn);  // pull-model caching
  }
  done.notify_all();
}

core::Process job_process(core::Engine& eng, Ctx& ctx, hosts::SiteId exec_site, hosts::Job job) {
  const double t_submit = eng.now();
  auto& slots = *ctx.slots[exec_site];
  co_await slots.acquire(1);
  for (const auto& lfn : job.input_files) {
    core::Condition fetched(eng);  // one per fetch with this job as its only waiter
    fetch_input(eng, ctx, exec_site, lfn, fetched);
    co_await fetched.wait();
  }
  co_await core::delay(eng, job.ops / ctx.cfg->cpu_speed);
  slots.release(1);
  ctx.res->response_times.add(eng.now() - t_submit);
  ctx.res->makespan = std::max(ctx.res->makespan, eng.now());
  ++ctx.res->jobs;
}

// External scheduler: pick the execution site for a job submitted at
// `origin`. With num_schedulers > 1 the origin's scheduler only controls
// its own partition (sites with the same index modulo num_schedulers).
hosts::SiteId choose_site(core::Engine& eng, Ctx& ctx, hosts::SiteId origin,
                          const hosts::Job& job) {
  const std::size_t k = std::max<std::size_t>(1, ctx.cfg->num_schedulers);
  const std::size_t scheduler = origin % k;
  std::vector<hosts::SiteId> domain;  // sites this scheduler may dispatch to
  for (std::size_t s = scheduler; s < ctx.grid->site_count(); s += k) {
    domain.push_back(static_cast<hosts::SiteId>(s));
  }
  switch (ctx.cfg->job_policy) {
    case JobPolicy::kLocal:
      return origin;
    case JobPolicy::kRandom:
      return domain[static_cast<std::size_t>(eng.rng("chicsim.sched").uniform_int(
          0, static_cast<std::int64_t>(domain.size()) - 1))];
    case JobPolicy::kLeastLoaded: {
      hosts::SiteId best = domain.front();
      for (hosts::SiteId id : domain) {
        if (site_load(ctx.grid->site(id)) < site_load(ctx.grid->site(best))) best = id;
      }
      return best;
    }
    case JobPolicy::kDataPresent: {
      if (!job.input_files.empty()) {
        const auto& lfn = job.input_files.front();
        // Prefer a site in this scheduler's domain holding the data.
        for (hosts::SiteId id : domain) {
          if (ctx.catalog->has_replica_at(lfn, id)) return id;
        }
        // The global catalog may name a site outside the domain; a single
        // scheduler (k == 1) can always take it.
        const auto src = ctx.catalog->best_source(lfn, ctx.grid->site(origin).node());
        if (src && k == 1) return *src;
      }
      return origin;
    }
  }
  return origin;
}

}  // namespace

Result run(core::Engine& engine, const Config& cfg) {
  hosts::Grid grid(engine);

  auto& wrng = engine.rng("chicsim.workload");
  const auto workload = apps::generate_data_grid(wrng, cfg.workload);
  double dataset_bytes = 0;
  for (const auto& [lfn, bytes] : workload.files) dataset_bytes += bytes;

  for (std::size_t i = 0; i < cfg.num_sites; ++i) {
    hosts::SiteSpec s;
    s.name = util::strformat("site%zu", i);
    s.cores = cfg.processors_per_site;
    s.cpu_speed = cfg.cpu_speed;
    s.disk_capacity = std::max(1.0, dataset_bytes * cfg.storage_fraction);
    s.disk_read_bw = cfg.disk_bw;
    s.disk_write_bw = cfg.disk_bw;
    s.storage_sharing = cfg.storage_sharing;
    grid.add_site(s);
  }
  auto& topo = grid.topology();
  const net::NodeId hub = topo.add_node("hub", net::NodeKind::kRouter);
  for (std::size_t s = 0; s < grid.site_count(); ++s) {
    topo.add_link(grid.site(static_cast<hosts::SiteId>(s)).node(), hub, cfg.site_bw,
                  cfg.site_latency);
  }
  grid.finalize();
  auto chaos = inject_failures(grid, cfg.failures);

  middleware::ReplicaCatalog catalog(grid.routing());
  Result res;
  Ctx ctx;
  ctx.cfg = &cfg;
  ctx.grid = &grid;
  ctx.catalog = &catalog;
  ctx.res = &res;

  // Initial distribution: each master copy lives (pinned) at a round-robin
  // home site.
  std::size_t home = 0;
  for (const auto& [lfn, bytes] : workload.files) {
    ctx.file_bytes[lfn] = bytes;
    const auto site_id = static_cast<hosts::SiteId>(home);
    home = (home + 1) % cfg.num_sites;
    if (grid.site(site_id).disk().store(lfn, bytes, /*pinned=*/true)) {
      catalog.add_replica(lfn, site_id, grid.site(site_id).node());
    } else {
      // Home cache too small for its share: fall back to site 0's disk
      // growing unpinned (rare under sensible configs).
      grid.site(0).disk().store(lfn, bytes, true);
      catalog.add_replica(lfn, 0, grid.site(0).node());
    }
  }
  for (std::size_t i = 0; i < cfg.num_sites; ++i) {
    ctx.slots.push_back(std::make_unique<core::Resource>(engine, cfg.processors_per_site));
  }

  auto& orng = engine.rng("chicsim.origins");
  for (const auto& tj : workload.jobs) {
    const auto origin = static_cast<hosts::SiteId>(
        orng.uniform_int(0, static_cast<std::int64_t>(cfg.num_sites) - 1));
    engine.schedule_at(tj.arrival, [&engine, &ctx, origin, job = tj.job]() mutable {
      const hosts::SiteId exec = choose_site(engine, ctx, origin, job);
      job_process(engine, ctx, exec, std::move(job));
    });
  }
  engine.run();
  return res;
}


void Result::to_report(obs::RunReport& report) const {
  report.set_result_core(jobs, makespan, network_bytes);
  auto& r = report.result();
  r.set("mean_response_s", response_times.mean());
  r.set("locality", locality());
  r.set("local_reads", local_reads);
  r.set("remote_reads", remote_reads);
  r.set("replications", replications);
  r.set("pushes", pushes);
}

}  // namespace lsds::sim::chicsim
