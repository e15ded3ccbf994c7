#include "sim/optorsim/optorsim.hpp"

#include "obs/report.hpp"

#include <algorithm>
#include <map>
#include <memory>

#include "core/process.hpp"
#include "hosts/site.hpp"
#include "middleware/replica_catalog.hpp"
#include "net/zone.hpp"
#include "sim/common.hpp"
#include "util/strings.hpp"

namespace lsds::sim::optorsim {

namespace {

struct Ctx {
  const Config* cfg;
  hosts::Grid* grid;
  middleware::ReplicaCatalog* catalog;
  middleware::ReplicationStrategy* strategy;
  Result* res;
  std::map<std::string, double> file_bytes;
  std::vector<std::unique_ptr<core::Resource>> job_slots;  // per compute site
};

// Fetch one input file for a job running at `site`: local read, or remote
// stream + (strategy-dependent) local replication.
core::Process fetch_input(core::Engine& eng, Ctx& ctx, hosts::SiteId site_id,
                          const std::string& lfn, core::Condition& done) {
  (void)eng;  // binds the process to the engine via the promise
  auto& site = ctx.grid->site(site_id);
  ctx.strategy->on_access(site_id, lfn);

  if (site.disk().has(lfn)) {
    ++ctx.res->local_reads;
    co_await disk_read(site.disk(), lfn);
    done.notify_all();
    co_return;
  }

  ++ctx.res->remote_reads;
  const double bytes = ctx.file_bytes.at(lfn);
  const auto src = ctx.catalog->best_source(lfn, site.node());
  // The master store always holds every file, so a source must exist.
  auto& src_site = ctx.grid->site(*src);
  co_await transfer(ctx.grid->net(), src_site.node(), site.node(), bytes);
  ctx.res->network_bytes += bytes;

  // Pull-model replication decision.
  auto plan = ctx.strategy->plan_replication(site_id, site.disk(), lfn, bytes);
  if (plan) {
    for (const auto& victim : plan->evictions) {
      site.disk().evict(victim);
      ctx.catalog->remove_replica(victim, site_id);
      ++ctx.res->evictions;
    }
    if (site.disk().store(lfn, bytes)) {
      ctx.catalog->add_replica(lfn, site_id, site.node());
      ++ctx.res->replications;
    }
  }
  done.notify_all();
}

// One grid job: acquire a job slot, fetch every input (sequentially, as
// OptorSim jobs access files in order), compute, release.
core::Process job_process(core::Engine& eng, Ctx& ctx, hosts::SiteId site_id, hosts::Job job) {
  auto& slots = *ctx.job_slots[site_id - 1];  // compute sites start at id 1
  co_await slots.acquire(1);
  const double t0 = eng.now();

  for (const auto& lfn : job.input_files) {
    core::Condition fetched(eng);  // one per fetch with this job as its only waiter
    fetch_input(eng, ctx, site_id, lfn, fetched);
    co_await fetched.wait();
  }
  co_await core::delay(eng, job.ops / ctx.cfg->cpu_speed);

  slots.release(1);
  ctx.res->job_times.add(eng.now() - t0);
  ctx.res->makespan = std::max(ctx.res->makespan, eng.now());
  ++ctx.res->jobs;
}

}  // namespace

Result run(core::Engine& engine, const Config& cfg) {
  // Zone platform objects must outlive the grid (it keeps a provider
  // reference), so they are declared first.
  std::unique_ptr<net::ZoneTree> tree;
  std::unique_ptr<net::ZoneRouting> zone_routing;
  hosts::Grid grid(engine);

  // Workload first: cache capacity is a fraction of the dataset size.
  auto& wrng = engine.rng("optorsim.workload");
  const auto workload = apps::generate_data_grid(wrng, cfg.workload);
  double dataset_bytes = 0;
  for (const auto& [lfn, bytes] : workload.files) dataset_bytes += bytes;

  // Site 0: master storage element holding every file, no compute.
  std::vector<hosts::SiteSpec> specs;
  hosts::SiteSpec master;
  master.name = "master-SE";
  master.cores = 1;
  master.cpu_speed = 1;
  master.disk_capacity = dataset_bytes * 2 + 1;
  master.disk_read_bw = cfg.disk_bw;
  master.disk_write_bw = cfg.disk_bw;
  master.storage_sharing = cfg.storage_sharing;
  specs.push_back(master);

  for (std::size_t i = 0; i < cfg.num_sites; ++i) {
    hosts::SiteSpec s;
    s.name = lsds::util::strformat("site%zu", i);
    s.cores = cfg.cores_per_site;
    s.cpu_speed = cfg.cpu_speed;
    s.disk_capacity = std::max(1.0, dataset_bytes * cfg.cache_fraction);
    s.disk_read_bw = cfg.disk_bw;
    s.disk_write_bw = cfg.disk_bw;
    s.storage_sharing = cfg.storage_sharing;
    specs.push_back(s);
  }

  if (cfg.zones >= 2) {
    // Hierarchical platform: `zones` star subtrees over a ZoneTree
    // backbone; site i lives in subtree i % zones at position i / zones.
    const std::size_t per_zone = (specs.size() + cfg.zones - 1) / cfg.zones;
    tree = std::make_unique<net::ZoneTree>();
    for (std::size_t z = 0; z < cfg.zones; ++z) {
      net::StarSpec star;
      star.hosts = per_zone;
      star.bandwidth = cfg.site_bw;
      star.latency = cfg.site_latency;
      tree->add_child(std::make_unique<net::StarZone>(star), cfg.zone_backbone_bw,
                      cfg.zone_backbone_latency);
    }
    zone_routing = std::make_unique<net::ZoneRouting>(*tree);
    for (std::size_t s = 0; s < specs.size(); ++s) {
      const std::size_t z = s % cfg.zones;
      const auto node =
          static_cast<net::NodeId>(tree->child_offset(z) + s / cfg.zones);
      grid.add_site_at(specs[s], node);
    }
    grid.finalize_with(*zone_routing);
  } else {
    // Classic OptorSim topology: a star around a hub router.
    for (const auto& s : specs) grid.add_site(s);
    auto& topo = grid.topology();
    const net::NodeId hub = topo.add_node("hub", net::NodeKind::kRouter);
    for (std::size_t s = 0; s < grid.site_count(); ++s) {
      topo.add_link(grid.site(static_cast<hosts::SiteId>(s)).node(), hub, cfg.site_bw,
                    cfg.site_latency);
    }
    grid.finalize();
  }
  auto chaos = inject_failures(grid, cfg.failures);

  middleware::ReplicaCatalog catalog(grid.route_provider());
  if (tree) catalog.set_zone_tree(tree.get());
  if (cfg.storage_sharing == hosts::StorageSharing::kMaxMin) {
    // Storage-aware staging: rank candidate sources by their disk's live
    // access delay on top of route latency.
    catalog.set_source_cost_fn([&grid](hosts::SiteId s) {
      return grid.site(s).disk().estimated_access_delay();
    });
  }
  auto strategy = middleware::make_replication_strategy(cfg.policy);

  Result res;
  Ctx ctx{&cfg, &grid, &catalog, strategy.get(), &res, {}, {}};
  for (const auto& [lfn, bytes] : workload.files) {
    ctx.file_bytes[lfn] = bytes;
    grid.site(0).disk().store(lfn, bytes, /*pinned=*/true);
    catalog.add_replica(lfn, 0, grid.site(0).node());
  }
  for (std::size_t i = 0; i < cfg.num_sites; ++i) {
    ctx.job_slots.push_back(std::make_unique<core::Resource>(engine, cfg.cores_per_site));
  }

  // Dispatch jobs round-robin over compute sites at their arrival times.
  std::size_t next_site = 0;
  for (const auto& tj : workload.jobs) {
    const auto site_id = static_cast<hosts::SiteId>(1 + next_site);
    next_site = (next_site + 1) % cfg.num_sites;
    engine.schedule_at(tj.arrival, [&engine, &ctx, site_id, job = tj.job]() mutable {
      job_process(engine, ctx, site_id, std::move(job));
    });
  }
  engine.run();
  return res;
}


void Result::to_report(obs::RunReport& report) const {
  report.set_result_core(jobs, makespan, network_bytes);
  auto& r = report.result();
  r.set("mean_job_time_s", mean_job_time());
  r.set("hit_ratio", local_hit_ratio());
  r.set("local_reads", local_reads);
  r.set("remote_reads", remote_reads);
  r.set("replications", replications);
  r.set("evictions", evictions);
}

}  // namespace lsds::sim::optorsim
