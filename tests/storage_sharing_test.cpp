// Differential suite for storage as a first-class shared resource.
//
// Contract under test, three layers deep:
//   1. FIFO mode is the pre-resource-API model, locked byte-identical:
//      busy-until closed forms, no solver registration, no endpoint binder
//      — a pure-FIFO grid leaves its FlowNetwork untouched.
//   2. MaxMin mode registers disk heads as solver capacity resources: N
//      concurrent readers max-min share the head; a network transfer whose
//      endpoints are max-min devices is jointly constrained by `source read
//      head + route links + destination write head` in ONE solve, and the
//      incremental (dirty-component) solver must stay byte-identical to the
//      full reference solver under disk+link churn — fuzzed across all five
//      event-queue kinds, including runtime set_resource_capacity changes.
//   3. The layers above see it: ParallelGrid attaches each site's heads to
//      its owner LP's network only; the replica catalog prefers same-zone
//      sources (rank before cost) with ascending-site-id tie-break; the
//      MONARC facade's fifo-vs-maxmin A/B shows staging contention.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "core/rng.hpp"
#include "hosts/parallel_grid.hpp"
#include "hosts/site.hpp"
#include "hosts/storage.hpp"
#include "middleware/replica_catalog.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/zone.hpp"
#include "sim/monarc/monarc.hpp"

namespace core = lsds::core;
namespace net = lsds::net;
namespace hosts = lsds::hosts;
namespace mw = lsds::middleware;

using hosts::StorageSharing;

namespace {

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// A one-node world: enough routing for pure-device I/O (start_io never
// routes).
struct DeviceWorld {
  DeviceWorld() {
    topo.add_node("h");
    routing = std::make_unique<net::Routing>(topo);
    fnet = std::make_unique<net::FlowNetwork>(eng, *routing);
  }
  core::Engine eng;
  net::Topology topo;
  std::unique_ptr<net::Routing> routing;
  std::unique_ptr<net::FlowNetwork> fnet;
};

}  // namespace

// --- 1. FIFO mode: the pre-resource-API model, byte-locked -----------------

TEST(StorageFifo, TimedReadSerializesClosedForm) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1e9, 100.0, 100.0, 0.5});
  EXPECT_EQ(disk.sharing(), StorageSharing::kFifo);
  EXPECT_FALSE(disk.solver_attached());
  disk.store("f1", 100);  // 1s read + 0.5s latency
  disk.store("f2", 200);  // 2s read + 0.5s latency
  std::vector<double> done;
  disk.read("f1", [&] { done.push_back(eng.now()); });
  disk.read("f2", [&] { done.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(bits(done[0]), bits(1.5));
  EXPECT_EQ(bits(done[1]), bits(4.0));  // serialized behind f1's head time
}

TEST(StorageFifo, MassStorageMountLatencyClosedForm) {
  core::Engine eng;
  hosts::StorageDevice tape(eng, "t", hosts::mass_storage_spec(1e15, 30e6, 30.0));
  EXPECT_EQ(tape.sharing(), StorageSharing::kFifo);
  tape.store("dataset", 30e6);
  double done_at = -1;
  tape.read("dataset", [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_EQ(bits(done_at), bits(31.0));  // 30s mount + 1s transfer
}

// A pure-FIFO grid must leave the flow network exactly as it was before
// this API existed: zero registered resources, no endpoint binder. That is
// the structural half of the byte-identity guarantee.
TEST(StorageFifo, GridRegistersNothingWithTheSolver) {
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::SiteSpec s;
  s.name = "a";
  s.has_mass_storage = true;
  s.has_ssd = true;
  auto& a = grid.add_site(s);
  s.name = "b";
  auto& b = grid.add_site(s);
  grid.topology().add_link(a.node(), b.node(), 1e8, 0.001);
  grid.finalize();
  EXPECT_EQ(grid.net().resource_count(), 0u);
  EXPECT_FALSE(grid.net().has_endpoint_binder());
  EXPECT_FALSE(a.disk().solver_attached());
  EXPECT_FALSE(a.tape().solver_attached());
  EXPECT_FALSE(a.ssd().solver_attached());
}

TEST(StorageFifo, EstimatedAccessDelayIsQueueWaitPlusLatency) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1e9, 100.0, 100.0, 0.5});
  disk.store("f", 100);
  EXPECT_DOUBLE_EQ(disk.estimated_access_delay(), 0.5);  // idle: latency only
  disk.read("f", nullptr);                               // head busy until 1.5
  EXPECT_DOUBLE_EQ(disk.estimated_access_delay(), 2.0);  // 1.5 wait + 0.5
  eng.run();
  EXPECT_DOUBLE_EQ(disk.estimated_access_delay(), 0.5);
}

// --- 2. MaxMin mode: heads are solver capacity resources -------------------

TEST(StorageMaxMin, ConcurrentReadersShareTheHead) {
  DeviceWorld w;
  hosts::StorageDevice disk(w.eng, "d", {1e9, 100.0, 100.0, 0.0, StorageSharing::kMaxMin});
  disk.attach_solver(*w.fnet);
  EXPECT_TRUE(disk.solver_attached());
  EXPECT_EQ(w.fnet->resource_count(), 2u);  // read head + write head
  EXPECT_DOUBLE_EQ(w.fnet->resource_capacity(disk.read_resource()), 100.0);
  disk.store("f1", 100);
  disk.store("f2", 100);
  std::vector<double> done;
  w.eng.schedule_at(0.0, [&] {
    disk.read("f1", [&] { done.push_back(w.eng.now()); });
    disk.read("f2", [&] { done.push_back(w.eng.now()); });
  });
  w.eng.schedule_at(1.0, [&] { EXPECT_EQ(disk.active_ios(), 2u); });
  w.eng.run();
  ASSERT_EQ(done.size(), 2u);
  // Fair share 50 B/s each: both finish at 2.0 — NOT serialized at 1.0/2.0.
  EXPECT_EQ(bits(done[0]), bits(2.0));
  EXPECT_EQ(bits(done[1]), bits(2.0));
  EXPECT_EQ(disk.active_ios(), 0u);
}

TEST(StorageMaxMin, TapeMountsOverlapWhileHeadsContend) {
  DeviceWorld w;
  hosts::StorageDevice tape(
      w.eng, "t", hosts::mass_storage_spec(1e15, 30e6, 30.0, StorageSharing::kMaxMin));
  tape.attach_solver(*w.fnet);
  tape.store("d1", 30e6);
  tape.store("d2", 30e6);
  std::vector<double> done;
  w.eng.schedule_at(0.0, [&] {
    tape.read("d1", [&] { done.push_back(w.eng.now()); });
    tape.read("d2", [&] { done.push_back(w.eng.now()); });
  });
  w.eng.run();
  ASSERT_EQ(done.size(), 2u);
  // Both robot mounts run in parallel (latency phase holds no capacity);
  // the heads then share 30 MB/s: 15 MB/s each, 2s drain. FIFO would give
  // 31.0 and 62.0.
  EXPECT_EQ(bits(done[0]), bits(32.0));
  EXPECT_EQ(bits(done[1]), bits(32.0));
}

TEST(StorageMaxMin, ReadsAndWritesUseIndependentHeads) {
  DeviceWorld w;
  hosts::StorageDevice disk(w.eng, "d", {1e9, 100.0, 50.0, 0.0, StorageSharing::kMaxMin});
  disk.attach_solver(*w.fnet);
  disk.store("r", 100);
  std::vector<std::pair<char, double>> done;
  w.eng.schedule_at(0.0, [&] {
    disk.read("r", [&] { done.emplace_back('r', w.eng.now()); });
    disk.write("w", 100, [&] { done.emplace_back('w', w.eng.now()); });
  });
  w.eng.run();
  ASSERT_EQ(done.size(), 2u);
  // Read head 100 B/s, write head 50 B/s — no cross-contention.
  EXPECT_EQ(done[0].first, 'r');
  EXPECT_EQ(bits(done[0].second), bits(1.0));
  EXPECT_EQ(done[1].first, 'w');
  EXPECT_EQ(bits(done[1].second), bits(2.0));
  EXPECT_TRUE(disk.has("w"));
}

TEST(StorageMaxMin, SetResourceCapacityReRatesInFlight) {
  DeviceWorld w;
  hosts::StorageDevice disk(w.eng, "d", {1e9, 100.0, 100.0, 0.0, StorageSharing::kMaxMin});
  disk.attach_solver(*w.fnet);
  disk.store("f", 200);
  double done_at = -1;
  w.eng.schedule_at(0.0, [&] { disk.read("f", [&] { done_at = w.eng.now(); }); });
  // At t=1 100 bytes have drained; halving the head leaves 100 bytes at 50.
  w.eng.schedule_at(1.0, [&] { w.fnet->set_resource_capacity(disk.read_resource(), 50.0); });
  w.eng.run();
  EXPECT_EQ(bits(done_at), bits(3.0));
  EXPECT_DOUBLE_EQ(w.fnet->resource_capacity(disk.read_resource()), 50.0);
}

TEST(StorageMaxMin, SetResourceCapacityValidates) {
  net::Topology topo;
  const auto a = topo.add_node("a");
  const auto b = topo.add_node("b");
  topo.add_link(a, b, 1e8, 0.001);
  core::Engine eng;
  net::Routing routing(topo);
  net::FlowNetwork fnet(eng, routing);
  const auto r = fnet.add_resource(100.0, "disk");
  EXPECT_THROW(fnet.set_resource_capacity(0, 2e8), std::invalid_argument);  // a link
  EXPECT_THROW(fnet.set_resource_capacity(r, 0.0), std::invalid_argument);
  EXPECT_THROW(fnet.set_resource_capacity(r, -5.0), std::invalid_argument);
  EXPECT_THROW(fnet.set_resource_capacity(r, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(fnet.add_resource(0.0), std::invalid_argument);
  fnet.set_resource_capacity(r, 200.0);
  EXPECT_DOUBLE_EQ(fnet.resource_capacity(r), 200.0);
}

// Capacity changes dirty only the touched component: re-rating one disk's
// island must not re-rate flows on an unrelated disk (work counters prove
// the incremental solver solves less).
TEST(StorageMaxMin, CapacityChangeReSolvesOnlyItsComponent) {
  DeviceWorld w;
  hosts::StorageDevice d1(w.eng, "d1", {1e9, 100.0, 100.0, 0.0, StorageSharing::kMaxMin});
  hosts::StorageDevice d2(w.eng, "d2", {1e9, 100.0, 100.0, 0.0, StorageSharing::kMaxMin});
  d1.attach_solver(*w.fnet);
  d2.attach_solver(*w.fnet);
  d1.store("a", 1e6);
  d2.store("b", 1e6);
  std::uint64_t rerated_before_change = 0;
  w.eng.schedule_at(0.0, [&] {
    d1.read("a", nullptr);
    d2.read("b", nullptr);
  });
  w.eng.schedule_at(1.0, [&] {
    rerated_before_change = w.fnet->flows_rerated();
    w.fnet->set_resource_capacity(d1.read_resource(), 50.0);
  });
  double d2_rate = 0;
  w.eng.schedule_at(1.5, [&] {
    // Only d1's flow re-rated: +1, not +2.
    EXPECT_EQ(w.fnet->flows_rerated(), rerated_before_change + 1);
    d2_rate = w.fnet->resource_load(d2.read_resource());
  });
  w.eng.run_until(2.0);
  EXPECT_EQ(bits(d2_rate), bits(100.0));  // untouched island, untouched rate
}

// --- 3. Joint disk + link constraints through the Grid binder --------------

namespace {

hosts::SiteSpec maxmin_site(const std::string& name, double read_bw, double write_bw) {
  hosts::SiteSpec s;
  s.name = name;
  s.disk_read_bw = read_bw;
  s.disk_write_bw = write_bw;
  s.disk_latency = 0;
  s.storage_sharing = StorageSharing::kMaxMin;
  return s;
}

}  // namespace

TEST(StorageJoint, TransferIsBoundByTheSlowestOfDiskAndLink) {
  core::Engine eng;
  hosts::Grid grid(eng);
  auto& src = grid.add_site(maxmin_site("src", 5e7, 1e9));
  auto& dst = grid.add_site(maxmin_site("dst", 1e9, 1e9));
  grid.topology().add_link(src.node(), dst.node(), 1e8, 0.01);
  grid.finalize();
  EXPECT_TRUE(grid.net().has_endpoint_binder());
  EXPECT_EQ(grid.net().resource_count(), 4u);  // 2 sites x (read, write)
  double done_at = -1;
  eng.schedule_at(0.0, [&] {
    grid.net().start_flow(src.node(), dst.node(), 1e8,
                          [&](net::FlowId) { done_at = eng.now(); });
  });
  eng.run();
  // Constraint set {src.read 50 MB/s, link 100 MB/s, dst.write 1 GB/s}:
  // the source head is the bottleneck. 1e8 B / 5e7 B/s + 0.01s latency.
  EXPECT_EQ(bits(done_at), bits(2.0 + 0.01));
  EXPECT_EQ(bits(grid.net().resource_load(src.disk().read_resource())), bits(0.0));
}

TEST(StorageJoint, SharedSourceHeadSplitsAcrossTransfers) {
  core::Engine eng;
  hosts::Grid grid(eng);
  auto& src = grid.add_site(maxmin_site("src", 5e7, 1e9));
  auto& d1 = grid.add_site(maxmin_site("d1", 1e9, 1e9));
  auto& d2 = grid.add_site(maxmin_site("d2", 1e9, 1e9));
  grid.topology().add_link(src.node(), d1.node(), 1e8, 0.01);
  grid.topology().add_link(src.node(), d2.node(), 1e8, 0.01);
  grid.finalize();
  std::vector<double> done;
  eng.schedule_at(0.0, [&] {
    grid.net().start_flow(src.node(), d1.node(), 1e8, [&](net::FlowId) { done.push_back(eng.now()); });
    grid.net().start_flow(src.node(), d2.node(), 1e8, [&](net::FlowId) { done.push_back(eng.now()); });
  });
  double head_load = 0;
  eng.schedule_at(1.0, [&] { head_load = grid.net().resource_load(src.disk().read_resource()); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  // Two disjoint links, one shared source head: 25 MB/s each, links idle at
  // 25% — the contention FIFO link-only sharing cannot see.
  EXPECT_EQ(bits(head_load), bits(5e7));
  EXPECT_EQ(bits(done[0]), bits(4.0 + 0.01));
  EXPECT_EQ(bits(done[1]), bits(4.0 + 0.01));
}

TEST(StorageJoint, DiskLatencyAddsToRouteLatency) {
  core::Engine eng;
  hosts::Grid grid(eng);
  auto sspec = maxmin_site("src", 1e9, 1e9);
  sspec.disk_latency = 0.25;
  auto& src = grid.add_site(sspec);
  auto dspec = maxmin_site("dst", 1e9, 1e9);
  dspec.disk_latency = 0.5;
  auto& dst = grid.add_site(dspec);
  grid.topology().add_link(src.node(), dst.node(), 1e8, 0.01);
  grid.finalize();
  double done_at = -1;
  eng.schedule_at(0.0, [&] {
    grid.net().start_flow(src.node(), dst.node(), 1e8,
                          [&](net::FlowId) { done_at = eng.now(); });
  });
  eng.run();
  // 1s drain at the 100 MB/s link + 0.01 route + 0.25 src seek + 0.5 dst.
  EXPECT_EQ(bits(done_at), bits(1.0 + 0.01 + 0.25 + 0.5));
}

// --- 4. Differential fuzz: full vs incremental under disk+link churn -------

namespace {

using Trace = std::vector<std::tuple<char, net::FlowId, std::uint64_t>>;

struct DiskOp {
  enum Kind { kStart, kIo, kCancel, kSetCap, kLinkDown, kLinkUp, kCheckpoint } kind = kStart;
  double t = 0;
  net::NodeId src = 0;
  net::NodeId dst = 0;
  double bytes = 0;
  double weight = 1;
  double capacity = 0;
  std::size_t flow_idx = 0;
  std::size_t res_idx = 0;  // kSetCap: disk-head index; kIo: node index
  net::LinkId link = 0;
};

// Deterministic churn script mixing endpoint-bound transfers, pure device
// I/O, head-capacity changes and link failures.
std::vector<DiskOp> make_disk_script(const net::Topology& topo, std::uint64_t seed,
                                     std::size_t n_ops) {
  core::RngStream rng(seed);
  std::vector<DiskOp> ops;
  double t = 0;
  std::size_t started = 0;
  const std::size_t heads = 2 * topo.node_count();
  for (std::size_t i = 0; i < n_ops; ++i) {
    t += rng.exponential(0.3);
    DiskOp op;
    op.t = t;
    const double r = rng.uniform();
    if (r < 0.40 || started == 0) {
      op.kind = DiskOp::kStart;
      op.src = static_cast<net::NodeId>(rng.uniform_int(0, topo.node_count() - 1));
      do {
        op.dst = static_cast<net::NodeId>(rng.uniform_int(0, topo.node_count() - 1));
      } while (op.dst == op.src);
      op.bytes = rng.uniform(1e5, 5e7);
      op.weight = rng.uniform(0.5, 4.0);
      ++started;
    } else if (r < 0.55) {
      op.kind = DiskOp::kIo;
      op.res_idx = static_cast<std::size_t>(rng.uniform_int(0, topo.node_count() - 1));
      op.bytes = rng.uniform(1e5, 2e7);
      ++started;
    } else if (r < 0.70) {
      op.kind = DiskOp::kCancel;
      op.flow_idx = static_cast<std::size_t>(rng.uniform_int(0, started - 1));
    } else if (r < 0.82) {
      op.kind = DiskOp::kSetCap;
      op.res_idx = static_cast<std::size_t>(rng.uniform_int(0, heads - 1));
      op.capacity = rng.uniform(1e7, 3e8);
    } else if (r < 0.88) {
      op.kind = DiskOp::kLinkDown;
      op.link = static_cast<net::LinkId>(rng.uniform_int(0, topo.link_count() - 1));
    } else if (r < 0.94) {
      op.kind = DiskOp::kLinkUp;
      op.link = static_cast<net::LinkId>(rng.uniform_int(0, topo.link_count() - 1));
    } else {
      op.kind = DiskOp::kCheckpoint;
    }
    ops.push_back(op);
  }
  return ops;
}

Trace run_disk_script(const net::Topology& topo, const std::vector<DiskOp>& ops,
                      core::QueueKind kind, bool incremental, core::FailureSemantics sem) {
  core::Engine eng(core::Engine::Config{kind, 7, 0, 0});
  net::Routing routing(topo);
  net::FlowNetwork fnet(eng, routing, net::FlowNetwork::Config{incremental});
  fnet.set_failure_semantics(sem);

  // Register one read + one write head per node, ascending node order —
  // identical ids in both runs: read(n) = link_count + 2n, write(n) = +1.
  std::vector<net::ResourceId> read_head(topo.node_count()), write_head(topo.node_count());
  for (std::size_t n = 0; n < topo.node_count(); ++n) {
    read_head[n] = fnet.add_resource(8e7 + 1e6 * static_cast<double>(n), "r");
    write_head[n] = fnet.add_resource(6e7 + 1e6 * static_cast<double>(n), "w");
  }
  fnet.set_endpoint_binder([&read_head, &write_head](net::NodeId src, net::NodeId dst,
                                                     std::vector<net::ResourceId>& res,
                                                     double& extra_latency) {
    res.push_back(read_head[src]);
    res.push_back(write_head[dst]);
    extra_latency += 0.001;
  });

  Trace trace;
  std::vector<net::FlowId> flows;
  for (const DiskOp& op : ops) {
    eng.schedule_at(op.t, [&eng, &fnet, &trace, &flows, &read_head, &write_head, op] {
      switch (op.kind) {
        case DiskOp::kStart:
          flows.push_back(fnet.start_flow_weighted(
              op.src, op.dst, op.bytes, op.weight,
              [&trace, &eng](net::FlowId id) { trace.emplace_back('C', id, bits(eng.now())); },
              [&trace, &eng](net::FlowId id) { trace.emplace_back('E', id, bits(eng.now())); }));
          break;
        case DiskOp::kIo:
          flows.push_back(fnet.start_io(
              op.bytes, {read_head[op.res_idx]}, 0.002,
              [&trace, &eng](net::FlowId id) { trace.emplace_back('C', id, bits(eng.now())); },
              [&trace, &eng](net::FlowId id) { trace.emplace_back('E', id, bits(eng.now())); }));
          break;
        case DiskOp::kCancel:
          if (op.flow_idx < flows.size()) fnet.cancel(flows[op.flow_idx]);
          break;
        case DiskOp::kSetCap: {
          const std::size_t n = op.res_idx / 2;
          fnet.set_resource_capacity(op.res_idx % 2 == 0 ? read_head[n] : write_head[n],
                                     op.capacity);
          break;
        }
        case DiskOp::kLinkDown:
          fnet.set_link_up(op.link, false);
          break;
        case DiskOp::kLinkUp:
          fnet.set_link_up(op.link, true);
          break;
        case DiskOp::kCheckpoint:
          for (net::FlowId id : flows) trace.emplace_back('R', id, bits(fnet.flow_rate(id)));
          for (std::size_t r = 0; r < fnet.total_resources(); ++r)
            trace.emplace_back('L', static_cast<net::FlowId>(r),
                               bits(fnet.resource_load(static_cast<net::ResourceId>(r))));
          break;
      }
    });
  }
  eng.run();
  trace.emplace_back('B', 0, bits(fnet.total_bytes_delivered()));
  return trace;
}

}  // namespace

// The tentpole differential: with disk heads in every constraint set and
// head capacities changing mid-flight, the incremental solver's trace is
// byte-identical to the full solver's — for every fuzz seed, every queue
// kind, both failure semantics.
TEST(StorageDifferential, FuzzFullVsIncrementalWithDiskConstraints) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    core::RngStream topo_rng(seed * 777 + 5);
    const auto topo = net::Topology::random_connected(14, 6, 1e8, 0.002, topo_rng);
    const auto ops = make_disk_script(topo, seed, 60);
    const auto sem = seed % 2 == 0 ? core::FailureSemantics::kFailStop
                                   : core::FailureSemantics::kFailResume;
    for (core::QueueKind kind : core::kAllQueueKinds) {
      const Trace full = run_disk_script(topo, ops, kind, false, sem);
      const Trace inc = run_disk_script(topo, ops, kind, true, sem);
      ASSERT_EQ(full, inc) << "seed " << seed << " queue " << core::to_string(kind);
      ASSERT_FALSE(full.empty());
    }
  }
}

TEST(StorageDifferential, DiskTraceAgreesAcrossQueueKinds) {
  core::RngStream topo_rng(41);
  const auto topo = net::Topology::random_connected(12, 5, 1e8, 0.002, topo_rng);
  const auto ops = make_disk_script(topo, 41, 50);
  const Trace reference = run_disk_script(topo, ops, core::QueueKind::kSortedList, true,
                                          core::FailureSemantics::kFailResume);
  for (core::QueueKind kind : core::kAllQueueKinds) {
    const Trace t =
        run_disk_script(topo, ops, kind, true, core::FailureSemantics::kFailResume);
    ASSERT_EQ(reference, t) << "queue " << core::to_string(kind);
  }
}

// Fail-stop on a disk head aborts the I/O crossing it, like a link death.
TEST(StorageDifferential, ResourceDownAbortsUnderFailStop) {
  DeviceWorld w;
  w.fnet->set_failure_semantics(core::FailureSemantics::kFailStop);
  hosts::StorageDevice disk(w.eng, "d", {1e9, 100.0, 100.0, 0.0, StorageSharing::kMaxMin});
  disk.attach_solver(*w.fnet);
  std::vector<char> events;
  w.eng.schedule_at(0.0, [&] {
    w.fnet->start_io(1e6, {disk.read_resource()}, 0.0, [&](net::FlowId) { events.push_back('C'); },
                     [&](net::FlowId) { events.push_back('E'); });
  });
  w.eng.schedule_at(1.0, [&] { w.fnet->set_resource_up(disk.read_resource(), false); });
  w.eng.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], 'E');
  EXPECT_FALSE(w.fnet->resource_up(disk.read_resource()));
}

// --- 5. Tiered stores under contention --------------------------------------

TEST(StorageTiers, SiteRegistersAllTiersDeterministically) {
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::SiteSpec s = maxmin_site("t1", 1e8, 1e8);
  s.has_mass_storage = true;
  s.has_ssd = true;
  auto& site = grid.add_site(s);
  grid.finalize();
  // Registration order is fixed: tape, disk, ssd — read then write each.
  EXPECT_EQ(grid.net().resource_count(), 6u);
  EXPECT_TRUE(site.tape().solver_attached());
  EXPECT_TRUE(site.disk().solver_attached());
  EXPECT_TRUE(site.ssd().solver_attached());
  EXPECT_LT(site.tape().read_resource(), site.disk().read_resource());
  EXPECT_LT(site.disk().read_resource(), site.ssd().read_resource());
  ASSERT_NE(site.storage(hosts::StorageTier::kSsd), nullptr);
  EXPECT_EQ(site.storage(hosts::StorageTier::kSsd), &site.ssd());
  EXPECT_EQ(site.storage(hosts::StorageTier::kDisk), &site.disk());
  EXPECT_EQ(site.storage(hosts::StorageTier::kTape), &site.tape());
}

TEST(StorageTiers, EvictionUnderContention) {
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::SiteSpec s = maxmin_site("t1", 1e8, 1e8);
  s.has_ssd = true;
  s.ssd_capacity = 300;
  s.ssd_read_bw = 100;
  s.ssd_write_bw = 100;
  s.ssd_latency = 0;
  auto& site = grid.add_site(s);
  grid.finalize();
  auto& ssd = site.ssd();
  ASSERT_TRUE(ssd.store("hot", 150, /*pinned=*/true));
  ASSERT_TRUE(ssd.store("cold", 100));
  EXPECT_FALSE(ssd.store("incoming", 100));  // full: 250/300 used
  // The LRU candidate must skip the pinned file even while reads are in
  // flight on it.
  std::vector<double> done;
  eng.schedule_at(0.0, [&] {
    ssd.read("hot", [&] { done.push_back(eng.now()); });
    ssd.read("cold", [&] { done.push_back(eng.now()); });
  });
  eng.schedule_at(1.0, [&] {
    ASSERT_TRUE(ssd.lru_candidate().has_value());
    EXPECT_EQ(*ssd.lru_candidate(), "cold");
    // Evict under contention: metadata goes now; the in-flight flow drains.
    EXPECT_TRUE(ssd.evict("cold"));
    EXPECT_TRUE(ssd.store("incoming", 100));
  });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  // Shared head 100 B/s: hot (150 B) and cold (100 B) split it; cold's flow
  // finishes even though the file was evicted mid-drain.
  EXPECT_EQ(bits(done[0]), bits(2.0));   // cold: 100 B at 50 B/s
  EXPECT_EQ(bits(done[1]), bits(2.5));   // hot: 100 B at 50, last 50 at 100
  EXPECT_FALSE(ssd.has("cold"));
  EXPECT_TRUE(ssd.has("incoming"));
}

// --- 6. API-boundary bugfix regressions -------------------------------------

TEST(StorageValidation, StoreRejectsNonFiniteAndNegativeBytes) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1000, 100, 100, 0});
  EXPECT_THROW(disk.store("nan", std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(disk.store("inf", std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(disk.store("neg", -1.0), std::invalid_argument);
  EXPECT_EQ(disk.file_count(), 0u);
  EXPECT_DOUBLE_EQ(disk.used(), 0.0);
  EXPECT_TRUE(disk.store("zero", 0.0));  // zero-byte files are legal
}

TEST(StorageValidation, WriteRejectsNonFiniteAndNegativeBytes) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1000, 100, 100, 0});
  EXPECT_THROW(disk.write("nan", std::numeric_limits<double>::quiet_NaN(), nullptr),
               std::invalid_argument);
  EXPECT_THROW(disk.write("neg", -2.0, nullptr), std::invalid_argument);
  EXPECT_DOUBLE_EQ(disk.used(), 0.0);  // no capacity reserved by the throws
  eng.run();
  EXPECT_EQ(disk.writes(), 0u);
}

TEST(StorageValidation, EvictRefusesPinnedFiles) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1000, 100, 100, 0});
  ASSERT_TRUE(disk.store("precious", 100, /*pinned=*/true));
  EXPECT_FALSE(disk.evict("precious"));  // was: silently evicted
  EXPECT_TRUE(disk.has("precious"));
  EXPECT_DOUBLE_EQ(disk.used(), 100.0);
  EXPECT_TRUE(disk.set_pinned("precious", false));
  EXPECT_TRUE(disk.evict("precious"));
  EXPECT_FALSE(disk.set_pinned("ghost", true));  // absent file
}

// --- 7. ParallelGrid: per-LP resource ownership -----------------------------

namespace {

hosts::ExecutionSpec par2() {
  hosts::ExecutionSpec spec;
  spec.parallel = true;
  spec.lps = 2;
  spec.threads = 2;
  return spec;
}

}  // namespace

TEST(StorageParallel, HeadsAttachToTheOwnerPartitionOnly) {
  hosts::ParallelGrid grid(par2());
  hosts::SiteSpec s = maxmin_site("a0", 1e8, 1e8);
  const auto a0 = grid.add_site(s);
  s.name = "a1";
  const auto a1 = grid.add_site(s);
  s.name = "b0";
  const auto b0 = grid.add_site(s);
  s.name = "b1";
  const auto b1 = grid.add_site(s);
  grid.topology().add_link(a0, a1, 1e8, 0.001);
  grid.topology().add_link(b0, b1, 1e8, 0.001);
  grid.topology().add_link(a0, b0, 1e7, 0.05);  // WAN cut
  grid.finalize();
  ASSERT_TRUE(grid.parallel()) << grid.fallback_reason();

  auto& net_a = grid.flows_of(a0);
  auto& net_b = grid.flows_of(b0);
  ASSERT_NE(&net_a, &net_b);
  // Each partition's network carries exactly its own sites' heads.
  EXPECT_EQ(net_a.resource_count(), 4u);  // 2 sites x (read, write)
  EXPECT_EQ(net_b.resource_count(), 4u);
  EXPECT_TRUE(net_a.has_endpoint_binder());
  EXPECT_TRUE(net_b.has_endpoint_binder());
  for (auto sid : {a0, a1, b0, b1}) EXPECT_TRUE(grid.site(sid).disk().solver_attached());

  // Device I/O and a disk-bound transfer run LP-locally on each side.
  std::atomic<int> done{0};
  grid.at(a0, 0.0, [&grid, &done, a0, a1] {
    grid.site(a0).disk().store("f", 1e6);
    grid.site(a0).disk().read("f", [&done] { ++done; });
    grid.flows_of(a0).start_flow(a0, a1, 1e6, [&done](net::FlowId) { ++done; });
  });
  grid.at(b1, 0.0, [&grid, &done, b1] {
    grid.site(b1).disk().store("g", 2e6);
    grid.site(b1).disk().read("g", [&done] { ++done; });
  });
  grid.run(10.0);
  EXPECT_EQ(done.load(), 3);
}

TEST(StorageParallel, FifoSpecsLeavePartitionNetworksUntouched) {
  hosts::ParallelGrid grid(par2());
  hosts::SiteSpec s;
  s.name = "a";
  const auto a = grid.add_site(s);
  s.name = "b";
  const auto b = grid.add_site(s);
  grid.topology().add_link(a, b, 1e7, 0.05);
  grid.finalize();
  EXPECT_EQ(grid.flows_of(a).resource_count(), 0u);
  EXPECT_FALSE(grid.flows_of(a).has_endpoint_binder());
  EXPECT_EQ(grid.flows_of(b).resource_count(), 0u);
}

// One LP's sites share their disks max-min, the other LP's are FIFO. Each
// LP's network is wired from its own sites, and the I/O and transfer
// completion times on both sides are pinned.
TEST(StorageParallel, MixedPartitionPinsBothSidesTimings) {
  hosts::ParallelGrid grid(par2());
  const auto a0 = grid.add_site(maxmin_site("a0", 1e8, 8e7));
  const auto a1 = grid.add_site(maxmin_site("a1", 1e8, 8e7));
  hosts::SiteSpec fifo;
  fifo.name = "b0";
  const auto b0 = grid.add_site(fifo);
  fifo.name = "b1";
  const auto b1 = grid.add_site(fifo);
  grid.topology().add_link(a0, a1, 1e8, 0.001);
  grid.topology().add_link(b0, b1, 1e8, 0.001);
  grid.topology().add_link(a0, b0, 1e7, 0.05);  // WAN cut
  grid.finalize();
  ASSERT_TRUE(grid.parallel()) << grid.fallback_reason();
  ASSERT_EQ(grid.lp_of(a0), grid.lp_of(a1));
  ASSERT_EQ(grid.lp_of(b0), grid.lp_of(b1));
  ASSERT_NE(grid.lp_of(a0), grid.lp_of(b0));
  EXPECT_EQ(grid.flows_of(a0).resource_count(), 4u);
  EXPECT_TRUE(grid.flows_of(a0).has_endpoint_binder());
  EXPECT_EQ(grid.flows_of(b0).resource_count(), 0u);
  EXPECT_FALSE(grid.flows_of(b0).has_endpoint_binder());

  // Each side reads 1 MB from its first site's disk while moving 2 MB to
  // its second site. On the max-min side the read and the transfer share
  // a0's read head until the read is done; on the FIFO side the link alone
  // bounds the transfer.
  double a_read = -1, a_flow = -1, b_read = -1, b_flow = -1;
  const auto start = [&grid](hosts::SiteId from, hosts::SiteId to, double& read_done,
                             double& flow_done) {
    grid.at(from, 0.0, [&grid, from, to, &read_done, &flow_done] {
      grid.site(from).disk().store("f", 1e6);
      grid.site(from).disk().read("f", [&grid, from, &read_done] {
        read_done = grid.now_of(from);
      });
      grid.flows_of(from).start_flow(from, to, 2e6, [&grid, from, &flow_done](net::FlowId) {
        flow_done = grid.now_of(from);
      });
    });
  };
  start(a0, a1, a_read, a_flow);
  start(b0, b1, b_read, b_flow);
  grid.run(10.0);
  EXPECT_EQ(a_read, 0.019);
  EXPECT_EQ(a_flow, 0.032750000000000001);
  EXPECT_EQ(b_read, 0.014999999999999999);
  EXPECT_EQ(b_flow, 0.021000000000000001);
}

// --- 8. Zone-aware replica placement ----------------------------------------

TEST(StoragePlacement, SameSubtreeSourceOutranksCheaperRemote) {
  net::ZoneTree tree;
  tree.add_child(std::make_unique<net::StarZone>(net::StarSpec{2, 1e8, 0.001}), 1e9, 0.01);
  tree.add_child(std::make_unique<net::StarZone>(net::StarSpec{2, 1e8, 0.001}), 1e9, 0.01);
  net::ZoneRouting routing(tree);
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::SiteSpec s;
  std::vector<net::NodeId> nodes;
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t h = 0; h < 2; ++h) {
      s.name = "s" + std::to_string(c * 2 + h);
      const auto node = static_cast<net::NodeId>(tree.child_offset(c) + h);
      grid.add_site_at(s, node);
      nodes.push_back(node);
    }
  }
  grid.finalize_with(routing);

  mw::ReplicaCatalog cat(grid.route_provider());
  cat.set_zone_tree(&tree);
  // Consumer: site 0 (zone 0). Replicas: site 1 (zone 0) and site 2 (zone 1).
  cat.add_replica("f", 1, nodes[1]);
  cat.add_replica("f", 2, nodes[2]);
  EXPECT_EQ(*cat.best_source("f", nodes[0]), 1u);

  // Rank dominates cost: even when the same-zone source is far more loaded
  // (huge source cost), it still wins over the cross-zone replica.
  cat.set_source_cost_fn([](hosts::SiteId site) { return site == 1 ? 100.0 : 0.0; });
  EXPECT_EQ(*cat.best_source("f", nodes[0]), 1u);

  // Without zone awareness the cost decides, and the loaded source loses.
  cat.set_zone_tree(nullptr);
  EXPECT_EQ(*cat.best_source("f", nodes[0]), 2u);

  // A local replica beats everything regardless of ranks and costs.
  cat.set_zone_tree(&tree);
  cat.add_replica("f", 0, nodes[0]);
  EXPECT_EQ(*cat.best_source("f", nodes[0]), 0u);
}

TEST(StoragePlacement, EqualRankEqualCostTieBreaksByAscendingSiteId) {
  net::ZoneTree tree;
  tree.add_child(std::make_unique<net::StarZone>(net::StarSpec{3, 1e8, 0.001}), 1e9, 0.01);
  net::ZoneRouting routing(tree);
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::SiteSpec s;
  std::vector<net::NodeId> nodes;
  for (std::size_t h = 0; h < 3; ++h) {
    s.name = "s" + std::to_string(h);
    const auto node = static_cast<net::NodeId>(tree.child_offset(0) + h);
    grid.add_site_at(s, node);
    nodes.push_back(node);
  }
  grid.finalize_with(routing);
  mw::ReplicaCatalog cat(grid.route_provider());
  cat.set_zone_tree(&tree);
  // Sites 1 and 2 are symmetric around the hub from site 0's perspective.
  cat.add_replica("f", 2, nodes[2]);
  cat.add_replica("f", 1, nodes[1]);
  EXPECT_EQ(*cat.best_source("f", nodes[0]), 1u);
}

// --- 9. Facade-level A/B: staging contention is visible ---------------------

TEST(StorageMonarcAB, MaxMinStagingLagsBehindFifo) {
  namespace monarc = lsds::sim::monarc;
  monarc::Config cfg;
  cfg.num_t1 = 3;
  cfg.num_files = 8;
  cfg.file_bytes = 2e9;
  cfg.production_interval = 10.0;
  cfg.run_analysis = false;

  core::Engine fifo_eng;
  const auto fifo = monarc::run(fifo_eng, cfg);

  cfg.storage_sharing = StorageSharing::kMaxMin;
  core::Engine mm_eng;
  const auto mm = monarc::run(mm_eng, cfg);

  // Same work gets done either way...
  EXPECT_EQ(fifo.files_produced, mm.files_produced);
  EXPECT_EQ(fifo.replicas_delivered, mm.replicas_delivered);
  // ...but with 3 T1s staging off T0's 100 MB/s read head, the jointly
  // solved disk constraint throttles replication below what the link-only
  // FIFO model reports.
  EXPECT_GT(mm.replication_lag.mean(), fifo.replication_lag.mean());
}
