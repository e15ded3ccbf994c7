// Workflow (DAG) scheduling example: map a task graph onto heterogeneous
// resources with HEFT and compare against round-robin.
//
//   ./dag_workflow --layers=6 --width=6 --edge-data=1MB [--seed=1]
#include <cstdio>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "hosts/cpu.hpp"
#include "middleware/dag.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"
#include "util/units.hpp"

using namespace lsds;

namespace {

struct Pool {
  core::Engine eng;
  net::Topology topo;
  std::unique_ptr<net::Routing> routing;
  std::unique_ptr<net::FlowNetwork> fnet;
  std::vector<std::unique_ptr<hosts::CpuResource>> cpus;
  std::vector<middleware::DagScheduler::Resource> resources;

  explicit Pool(std::uint64_t seed) : eng({.queue = core::QueueKind::kBinaryHeap, .seed = seed}) {
    const double speeds[] = {100, 200, 400, 800};
    for (int i = 0; i < 4; ++i) topo.add_node("host" + std::to_string(i));
    const auto hub = topo.add_node("hub", net::NodeKind::kRouter);
    for (int i = 0; i < 4; ++i) {
      topo.add_link(static_cast<net::NodeId>(i), hub, util::mbps(100), 0.002);
    }
    routing = std::make_unique<net::Routing>(topo);
    fnet = std::make_unique<net::FlowNetwork>(eng, *routing);
    for (int i = 0; i < 4; ++i) {
      cpus.push_back(std::make_unique<hosts::CpuResource>(
          eng, "cpu" + std::to_string(i), 1, speeds[i], hosts::SharingPolicy::kSpaceShared));
      resources.push_back({cpus.back().get(), static_cast<net::NodeId>(i)});
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto layers = static_cast<std::size_t>(flags.get_int("layers", 6));
  const auto width = static_cast<std::size_t>(flags.get_int("width", 6));
  const double edge_data = flags.get_size("edge-data", 1e6);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  flags.reject_unread();

  std::printf("workflow: %zu layers x %zu tasks, ~%s per edge, 4 hosts (100..800 ops/s)\n\n",
              layers, width, util::format_size(edge_data).c_str());

  stats::AsciiTable t({"algorithm", "makespan [s]", "cross-host edges", "bytes moved",
                       "tasks on fastest host"});
  for (auto algo : {middleware::DagAlgorithm::kHeft, middleware::DagAlgorithm::kRoundRobin}) {
    Pool pool(seed);
    core::RngStream drng(seed * 3 + 1);
    const auto dag =
        middleware::Dag::random_layered(layers, width, 0.35, 1500, edge_data, drng);
    middleware::DagScheduler sched(pool.eng, dag, pool.resources, pool.fnet.get(), algo);
    sched.start();
    pool.eng.run();
    const auto& r = sched.result();
    std::uint64_t on_fastest = 0;
    for (auto p : r.placement) {
      if (p == 3) ++on_fastest;  // host3 is the 800 ops/s machine
    }
    t.row()
        .cell(std::string(middleware::to_string(algo)))
        .cell(r.makespan)
        .cell(r.transfers)
        .cell(util::format_size(r.bytes_moved))
        .cell(on_fastest);
  }
  std::printf("%s", t.render().c_str());
  std::printf("HEFT piles work onto fast hosts and co-locates heavy edges; round-robin\n"
              "spreads blindly and pays for it in both makespan and traffic.\n");
  return 0;
}
