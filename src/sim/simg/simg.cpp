#include "sim/simg/simg.hpp"

#include "obs/report.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "core/process.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/common.hpp"

namespace lsds::sim::simg {

const char* to_string(SchedulingMode m) {
  switch (m) {
    case SchedulingMode::kCompileTime: return "compile-time";
    case SchedulingMode::kRuntime: return "runtime";
  }
  return "?";
}

namespace {

struct Task {
  std::int64_t id = -1;  // -1 is the shutdown sentinel
  double ops = 0;
  double nominal_ops = 0;
};

struct Ctx {
  const Config* cfg;
  net::FlowNetwork* net;
  net::NodeId master_node;
  std::vector<net::NodeId> worker_nodes;
  std::vector<double> speeds;
  std::vector<std::unique_ptr<core::Channel<Task>>> task_ch;  // master -> worker
  std::unique_ptr<core::Channel<std::size_t>> idle_ch;        // worker -> master
  Result* res;
};

// Worker agent: receive a task over the channel, pull its input data from
// the master, compute, report idle. A sentinel task terminates the agent.
core::Process worker_agent(core::Engine& eng, Ctx& ctx, std::size_t w) {
  ctx.idle_ch->send(w);  // announce readiness
  for (;;) {
    const Task task = co_await ctx.task_ch[w]->receive();
    if (task.id < 0) co_return;
    const double t0 = eng.now();
    co_await transfer(*ctx.net, ctx.master_node, ctx.worker_nodes[w], ctx.cfg->task_input_bytes);
    co_await core::delay(eng, task.ops / ctx.speeds[w]);
    ctx.res->task_times.add(eng.now() - t0);
    ctx.res->makespan = std::max(ctx.res->makespan, eng.now());
    ++ctx.res->per_worker[w];
    ++ctx.res->tasks;
    ctx.idle_ch->send(w);
  }
}

// Runtime master: self-scheduling — dispatch the next task to whichever
// worker reports idle.
core::Process runtime_master(core::Engine& eng, Ctx& ctx, std::vector<Task> tasks) {
  (void)eng;
  std::size_t next = 0;
  std::size_t alive = ctx.cfg->num_workers;
  while (alive > 0) {
    const std::size_t w = co_await ctx.idle_ch->receive();
    if (next < tasks.size()) {
      ctx.task_ch[w]->send(tasks[next++]);
    } else {
      ctx.task_ch[w]->send(Task{});  // sentinel (id = -1)
      --alive;
    }
  }
}

// Compile-time master: min-ECT list schedule using *nominal* lengths, then
// ship every worker its whole list up front.
core::Process compile_time_master(core::Engine& eng, Ctx& ctx, std::vector<Task> tasks) {
  (void)eng;
  const std::size_t n_workers = ctx.cfg->num_workers;
  std::vector<double> ready(n_workers, 0);
  // Longest (nominal) task first, each to the worker with min ECT.
  std::stable_sort(tasks.begin(), tasks.end(),
                   [](const Task& a, const Task& b) { return a.nominal_ops > b.nominal_ops; });
  std::vector<std::vector<Task>> plan(n_workers);
  for (const Task& t : tasks) {
    std::size_t best = 0;
    double best_ect = 0;
    for (std::size_t w = 0; w < n_workers; ++w) {
      const double ect = ready[w] + t.nominal_ops / ctx.speeds[w];
      if (w == 0 || ect < best_ect) {
        best = w;
        best_ect = ect;
      }
    }
    ready[best] = best_ect;
    plan[best].push_back(t);
  }
  for (std::size_t w = 0; w < n_workers; ++w) {
    co_await ctx.idle_ch->receive();  // consume initial readiness tokens
  }
  for (std::size_t w = 0; w < n_workers; ++w) {
    for (const Task& t : plan[w]) ctx.task_ch[w]->send(t);
    ctx.task_ch[w]->send(Task{});  // sentinel
  }
  // Drain idle reports so the channel does not accumulate.
  for (std::size_t i = 0; i < tasks.size(); ++i) co_await ctx.idle_ch->receive();
}

}  // namespace

Result run(core::Engine& engine, const Config& cfg) {
  // Star topology: master at the hub side.
  net::Topology topo;
  const net::NodeId master = topo.add_node("master");
  const net::NodeId hub = topo.add_node("hub", net::NodeKind::kRouter);
  topo.add_link(master, hub, cfg.worker_bw * static_cast<double>(cfg.num_workers),
                cfg.worker_latency);
  std::vector<net::NodeId> workers;
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    const auto n = topo.add_node("worker" + std::to_string(w));
    topo.add_link(n, hub, cfg.worker_bw, cfg.worker_latency);
    workers.push_back(n);
  }
  net::Routing routing(topo);
  net::FlowNetwork fnet(engine, routing);

  Result res;
  res.per_worker.assign(cfg.num_workers, 0);

  Ctx ctx;
  ctx.cfg = &cfg;
  ctx.net = &fnet;
  ctx.master_node = master;
  ctx.worker_nodes = workers;
  ctx.res = &res;
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    const double f = cfg.num_workers > 1
                         ? static_cast<double>(w) / static_cast<double>(cfg.num_workers - 1)
                         : 0.0;
    ctx.speeds.push_back(cfg.speed_max - f * (cfg.speed_max - cfg.speed_min));
    ctx.task_ch.push_back(std::make_unique<core::Channel<Task>>(engine));
  }
  ctx.idle_ch = std::make_unique<core::Channel<std::size_t>>(engine);

  // Task list with noisy nominal estimates.
  auto& rng = engine.rng("simg.tasks");
  std::vector<Task> tasks;
  tasks.reserve(cfg.num_tasks);
  for (std::size_t i = 0; i < cfg.num_tasks; ++i) {
    Task t;
    t.id = static_cast<std::int64_t>(i);
    t.ops = rng.exponential(cfg.mean_ops);
    const double noise = 1.0 + rng.uniform(-cfg.estimate_error, cfg.estimate_error);
    t.nominal_ops = std::max(1.0, t.ops * noise);
    tasks.push_back(t);
  }

  for (std::size_t w = 0; w < cfg.num_workers; ++w) worker_agent(engine, ctx, w);
  if (cfg.mode == SchedulingMode::kRuntime) {
    runtime_master(engine, ctx, std::move(tasks));
  } else {
    compile_time_master(engine, ctx, std::move(tasks));
  }
  engine.run();
  return res;
}


void Result::to_report(obs::RunReport& report) const {
  report.set_result_core(tasks, makespan, 0);
  report.result().set("mean_task_time_s", task_times.mean());
}

}  // namespace lsds::sim::simg
