#include "sim/bricks/bricks.hpp"

#include "obs/report.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/process.hpp"
#include "hosts/site.hpp"
#include "middleware/forecast.hpp"
#include "sim/common.hpp"
#include "util/strings.hpp"

namespace lsds::sim::bricks {

const char* to_string(ServerScheme s) {
  switch (s) {
    case ServerScheme::kFcfs: return "fcfs";
    case ServerScheme::kTimeShared: return "time-shared";
  }
  return "?";
}

const char* to_string(ServerSelection s) {
  switch (s) {
    case ServerSelection::kRandom: return "random";
    case ServerSelection::kRoundRobin: return "round-robin";
    case ServerSelection::kLeastQueue: return "least-queue";
    case ServerSelection::kForecast: return "forecast";
  }
  return "?";
}

namespace {

struct Ctx {
  const Config* cfg;
  hosts::Grid* grid;
  Result* res;
  hosts::JobId next_id = 1;
  std::size_t rr_next = 0;
  // kForecast: one NWS forecaster per server, fed by periodic samples.
  std::vector<std::unique_ptr<middleware::NwsForecaster>> forecasts;

  double server_load(std::size_t s) const {
    const auto& cpu = grid->site(static_cast<hosts::SiteId>(s)).cpu();
    return static_cast<double>(cpu.running() + cpu.queued());
  }
};

std::size_t pick_server(core::Engine& eng, Ctx& ctx) {
  const std::size_t n = ctx.cfg->num_servers;
  switch (ctx.cfg->selection) {
    case ServerSelection::kRandom:
      return static_cast<std::size_t>(
          eng.rng("bricks.select").uniform_int(0, static_cast<std::int64_t>(n) - 1));
    case ServerSelection::kRoundRobin: {
      const std::size_t s = ctx.rr_next;
      ctx.rr_next = (ctx.rr_next + 1) % n;
      return s;
    }
    case ServerSelection::kLeastQueue: {
      std::size_t best = 0;
      for (std::size_t s = 1; s < n; ++s) {
        if (ctx.server_load(s) < ctx.server_load(best)) best = s;
      }
      return best;
    }
    case ServerSelection::kForecast: {
      std::size_t best = 0;
      for (std::size_t s = 1; s < n; ++s) {
        if (ctx.forecasts[s]->predict() < ctx.forecasts[best]->predict()) best = s;
      }
      return best;
    }
  }
  return 0;
}

// Periodic load monitor feeding the forecasters (stale by design).
core::Process load_monitor(core::Engine& eng, Ctx& ctx) {
  for (;;) {
    co_await core::delay(eng, ctx.cfg->monitor_period);
    for (std::size_t s = 0; s < ctx.cfg->num_servers; ++s) {
      ctx.forecasts[s]->observe(ctx.server_load(s));
    }
    // Stop sampling once everything drained (the engine would otherwise
    // never run out of events).
    bool any = false;
    for (std::size_t s = 0; s < ctx.cfg->num_servers; ++s) {
      if (ctx.server_load(s) > 0) any = true;
    }
    if (!any && ctx.res->jobs >= ctx.cfg->num_clients * ctx.cfg->jobs_per_client) co_return;
  }
}

// One job's life: pick a server, ship input, queue+compute, return output.
core::Process job_process(core::Engine& eng, Ctx& ctx, hosts::SiteId client_site, double ops) {
  const hosts::JobId id = ctx.next_id++;
  const std::size_t server_idx = pick_server(eng, ctx);
  auto& server = ctx.grid->site(static_cast<hosts::SiteId>(server_idx));
  auto& client = ctx.grid->site(client_site);
  const double t_submit = eng.now();

  co_await transfer(ctx.grid->net(), client.node(), server.node(), ctx.cfg->input_bytes);
  const double t_arrive = eng.now();

  co_await compute(server.cpu(), id, ops);
  const double t_served = eng.now();
  const double service = ops / ctx.cfg->server_speed;
  ctx.res->queue_waits.add(std::max(0.0, (t_served - t_arrive) - service));

  co_await transfer(ctx.grid->net(), server.node(), client.node(), ctx.cfg->output_bytes);

  ctx.res->response_times.add(eng.now() - t_submit);
  ctx.res->network_bytes += ctx.cfg->input_bytes + ctx.cfg->output_bytes;
  ctx.res->makespan = std::max(ctx.res->makespan, eng.now());
  ++ctx.res->per_server[server_idx];
  ++ctx.res->jobs;
}

// A client: submits jobs_per_client jobs with exponential think times.
core::Process client_process(core::Engine& eng, Ctx& ctx, hosts::SiteId client_site) {
  auto& rng = eng.rng("bricks.client." + ctx.grid->site(client_site).name());
  for (std::size_t j = 0; j < ctx.cfg->jobs_per_client; ++j) {
    co_await core::delay(eng, rng.exponential(ctx.cfg->mean_interarrival));
    job_process(eng, ctx, client_site, rng.exponential(ctx.cfg->mean_ops));
  }
}

}  // namespace

Result run(core::Engine& engine, const Config& cfg) {
  hosts::Grid grid(engine);

  // Sites 0..num_servers-1 are servers; clients follow.
  for (std::size_t s = 0; s < cfg.num_servers; ++s) {
    hosts::SiteSpec server;
    server.name = cfg.num_servers == 1 ? "central" : util::strformat("server%zu", s);
    server.cores = cfg.server_cores;
    server.cpu_speed = cfg.server_speed;
    server.policy = cfg.scheme == ServerScheme::kFcfs ? hosts::SharingPolicy::kSpaceShared
                                                      : hosts::SharingPolicy::kTimeShared;
    server.storage_sharing = cfg.storage_sharing;
    grid.add_site(server);
  }
  for (std::size_t c = 0; c < cfg.num_clients; ++c) {
    hosts::SiteSpec client;
    client.name = util::strformat("client%zu", c);
    client.cores = 1;
    client.cpu_speed = 1;  // clients do not compute
    client.storage_sharing = cfg.storage_sharing;
    grid.add_site(client);
  }
  auto& topo = grid.topology();
  const net::NodeId hub = topo.add_node("hub", net::NodeKind::kRouter);
  for (std::size_t s = 0; s < cfg.num_servers; ++s) {
    topo.add_link(grid.site(static_cast<hosts::SiteId>(s)).node(), hub, cfg.server_bw,
                  cfg.server_latency);
  }
  for (std::size_t c = 0; c < cfg.num_clients; ++c) {
    topo.add_link(grid.site(static_cast<hosts::SiteId>(cfg.num_servers + c)).node(), hub,
                  cfg.client_bw, cfg.client_latency);
  }
  grid.finalize();
  auto chaos = inject_failures(grid, cfg.failures);

  Result res;
  res.per_server.assign(cfg.num_servers, 0);
  Ctx ctx;
  ctx.cfg = &cfg;
  ctx.grid = &grid;
  ctx.res = &res;
  if (cfg.selection == ServerSelection::kForecast && cfg.num_servers > 1) {
    for (std::size_t s = 0; s < cfg.num_servers; ++s) {
      ctx.forecasts.push_back(std::make_unique<middleware::NwsForecaster>());
    }
    load_monitor(engine, ctx);
  } else if (cfg.selection == ServerSelection::kForecast) {
    ctx.forecasts.push_back(std::make_unique<middleware::NwsForecaster>());
  }

  for (std::size_t c = 0; c < cfg.num_clients; ++c) {
    client_process(engine, ctx, static_cast<hosts::SiteId>(cfg.num_servers + c));
  }
  engine.run();

  if (res.makespan > 0) {
    double util = 0;
    for (std::size_t s = 0; s < cfg.num_servers; ++s) {
      util += grid.site(static_cast<hosts::SiteId>(s)).cpu().utilization(res.makespan);
    }
    res.server_utilization = util / static_cast<double>(cfg.num_servers);
  }
  return res;
}

void Result::to_report(obs::RunReport& report) const {
  report.set_result_core(jobs, makespan, network_bytes);
  auto& r = report.result();
  r.set("mean_response_s", response_times.mean());
  r.set("mean_queue_wait_s", queue_waits.mean());
  r.set("server_utilization", server_utilization);
}

}  // namespace lsds::sim::bricks
