// Host substrate: CPU sharing policies, storage devices, sites, grid
// organizations (central and tier models).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "hosts/cpu.hpp"
#include "hosts/organizations.hpp"
#include "hosts/site.hpp"
#include "hosts/storage.hpp"
#include "stats/analytical.hpp"
#include "stats/summary.hpp"
#include "util/strings.hpp"

namespace core = lsds::core;
namespace hosts = lsds::hosts;

// --- CPU: space-shared ------------------------------------------------

TEST(CpuSpaceShared, FifoQueueing) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 2, 100.0, hosts::SharingPolicy::kSpaceShared);
  std::vector<std::pair<hosts::JobId, double>> done;
  for (hosts::JobId id = 1; id <= 4; ++id) {
    cpu.submit(id, 1000.0, [&, id](hosts::JobId jid) {
      EXPECT_EQ(jid, id);
      done.emplace_back(id, eng.now());
    });
  }
  EXPECT_EQ(cpu.running(), 2u);
  EXPECT_EQ(cpu.queued(), 2u);
  eng.run();
  ASSERT_EQ(done.size(), 4u);
  // 2 cores, 10s per job: jobs 1&2 at t=10, jobs 3&4 at t=20.
  EXPECT_DOUBLE_EQ(done[0].second, 10.0);
  EXPECT_DOUBLE_EQ(done[1].second, 10.0);
  EXPECT_DOUBLE_EQ(done[2].second, 20.0);
  EXPECT_DOUBLE_EQ(done[3].second, 20.0);
  EXPECT_EQ(cpu.jobs_completed(), 4u);
}

TEST(CpuSpaceShared, RateIsFullCoreSpeed) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 4, 100.0, hosts::SharingPolicy::kSpaceShared);
  double t1 = -1;
  cpu.submit(1, 500.0, [&](hosts::JobId) { t1 = eng.now(); });
  cpu.submit(2, 1000.0, nullptr);
  eng.run();
  EXPECT_DOUBLE_EQ(t1, 5.0);  // unaffected by the other job
}

TEST(CpuSpaceShared, HasIdleCore) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  EXPECT_TRUE(cpu.has_idle_core());
  cpu.submit(1, 1000.0, nullptr);
  EXPECT_FALSE(cpu.has_idle_core());
  eng.run();
  EXPECT_TRUE(cpu.has_idle_core());
}

// --- CPU: time-shared ---------------------------------------------------

TEST(CpuTimeShared, ProcessorSharingSlowdown) {
  // Two equal jobs on one core: each at half speed, both finish together.
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 1, 100.0, hosts::SharingPolicy::kTimeShared);
  std::vector<double> done;
  cpu.submit(1, 500.0, [&](hosts::JobId) { done.push_back(eng.now()); });
  cpu.submit(2, 500.0, [&](hosts::JobId) { done.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
}

TEST(CpuTimeShared, DepartureSpeedsUpSurvivor) {
  // Jobs of 250 and 750 ops on a 100 ops/s core: share until t=5 (250 each),
  // then the long job runs alone: 500 left at full speed -> t=10.
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 1, 100.0, hosts::SharingPolicy::kTimeShared);
  double t_short = -1, t_long = -1;
  cpu.submit(1, 250.0, [&](hosts::JobId) { t_short = eng.now(); });
  cpu.submit(2, 750.0, [&](hosts::JobId) { t_long = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(t_short, 5.0);
  EXPECT_DOUBLE_EQ(t_long, 10.0);
}

TEST(CpuTimeShared, PerJobRateCappedAtCoreSpeed) {
  // 2 jobs on a 4-core node: each gets one core's speed, not 2x.
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 4, 100.0, hosts::SharingPolicy::kTimeShared);
  double t1 = -1;
  cpu.submit(1, 1000.0, [&](hosts::JobId) { t1 = eng.now(); });
  cpu.submit(2, 1000.0, nullptr);
  eng.run();
  EXPECT_DOUBLE_EQ(t1, 10.0);  // full core speed
}

TEST(CpuTimeShared, ManyJobsShareTotalCapacity) {
  // 8 equal jobs on a 4x100 node: total 400 ops/s, 50 ops/s each.
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 4, 100.0, hosts::SharingPolicy::kTimeShared);
  std::vector<double> done;
  for (hosts::JobId id = 1; id <= 8; ++id) {
    cpu.submit(id, 500.0, [&](hosts::JobId) { done.push_back(eng.now()); });
  }
  eng.run();
  ASSERT_EQ(done.size(), 8u);
  for (double t : done) EXPECT_DOUBLE_EQ(t, 10.0);
}

TEST(CpuTimeShared, LateArrivalProgressAccounting) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 1, 100.0, hosts::SharingPolicy::kTimeShared);
  double t1 = -1;
  cpu.submit(1, 1000.0, [&](hosts::JobId) { t1 = eng.now(); });
  // At t=5, job1 has done 500 ops. Job2 arrives; both at 50 ops/s.
  // Job1's remaining 500 take 10s -> t=15.
  eng.schedule_at(5.0, [&] { cpu.submit(2, 2000.0, nullptr); });
  eng.run();
  EXPECT_DOUBLE_EQ(t1, 15.0);
}

TEST(Cpu, UtilizationAccounting) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 2, 100.0, hosts::SharingPolicy::kSpaceShared);
  cpu.submit(1, 1000.0, nullptr);  // one core busy 10s
  eng.run();
  // 1000 ops delivered over 10s on 200 ops/s capacity: 50%.
  EXPECT_NEAR(cpu.utilization(10.0), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(cpu.busy_ops(), 1000.0);
}

TEST(Cpu, LoadSeriesTracksQueue) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  for (hosts::JobId id = 1; id <= 3; ++id) cpu.submit(id, 100.0, nullptr);
  eng.run();
  EXPECT_DOUBLE_EQ(cpu.load_series().max_value(), 3.0);
  EXPECT_DOUBLE_EQ(cpu.load_series().value_at(100.0), 0.0);
}

// PS validation: M/M/1-PS mean sojourn matches 1/(mu - lambda).
TEST(CpuTimeShared, MM1PSMeanSojournMatchesTheory) {
  core::Engine eng({.queue = core::QueueKind::kBinaryHeap, .seed = 1234});
  hosts::CpuResource cpu(eng, "node", 1, 1.0, hosts::SharingPolicy::kTimeShared);
  auto& arrivals = eng.rng("arrivals");
  auto& sizes = eng.rng("sizes");
  const double lambda = 0.5, mu = 1.0;
  lsds::stats::Accumulator sojourn;
  const int n_jobs = 20000;
  double t = 0;
  struct Rec {
    double submit;
  };
  auto recs = std::make_shared<std::unordered_map<hosts::JobId, Rec>>();
  for (int i = 1; i <= n_jobs; ++i) {
    t += arrivals.exponential(1.0 / lambda);
    const double ops = sizes.exponential(1.0 / mu);
    const auto id = static_cast<hosts::JobId>(i);
    eng.schedule_at(t, [&, id, ops] {
      (*recs)[id] = {eng.now()};
      cpu.submit(id, ops, [&, id](hosts::JobId) {
        sojourn.add(eng.now() - (*recs)[id].submit);
        recs->erase(id);
      });
    });
  }
  eng.run();
  lsds::stats::MM1PS theory{lambda, mu};
  EXPECT_NEAR(sojourn.mean(), theory.mean_sojourn(), 0.15);  // 2.0 +- CI
}

// --- storage -------------------------------------------------------------

TEST(Storage, CapacityEnforced) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1000, 100, 100, 0});
  EXPECT_TRUE(disk.store("a", 600));
  EXPECT_FALSE(disk.store("b", 600));  // would exceed
  EXPECT_TRUE(disk.store("b", 400));
  EXPECT_DOUBLE_EQ(disk.free(), 0.0);
  EXPECT_FALSE(disk.store("a", 1));  // duplicate
  EXPECT_TRUE(disk.evict("a"));
  EXPECT_DOUBLE_EQ(disk.used(), 400.0);
  EXPECT_FALSE(disk.evict("a"));
}

TEST(Storage, LruLfuCandidates) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1e6, 1e6, 1e6, 0});
  eng.schedule_at(1.0, [&] { disk.store("old", 10); });
  eng.schedule_at(2.0, [&] { disk.store("mid", 10); });
  eng.schedule_at(3.0, [&] { disk.store("new", 10); });
  eng.schedule_at(4.0, [&] {
    // Access "old" twice and "mid" once: LRU is "new"? No — "new" accessed
    // never but created at 3 (last_access=3). Touch old at t=4: old.last=4.
    disk.read("old", nullptr);
    disk.read("old", nullptr);
    disk.read("mid", nullptr);
  });
  eng.schedule_at(5.0, [&] {
    EXPECT_EQ(*disk.lru_candidate(), "new");  // last_access = 3.0
    EXPECT_EQ(*disk.lfu_candidate(), "new");  // 0 accesses
  });
  eng.run();
}

TEST(Storage, PinnedFilesNeverCandidates) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1e6, 1e6, 1e6, 0});
  disk.store("pinned", 10, /*pinned=*/true);
  EXPECT_FALSE(disk.lru_candidate().has_value());
  disk.store("normal", 10);
  EXPECT_EQ(*disk.lru_candidate(), "normal");
}

TEST(Storage, TimedReadSerializes) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1e9, 100.0, 100.0, 0.5});
  disk.store("f1", 100);  // 1s read + 0.5s latency
  disk.store("f2", 200);  // 2s read + 0.5s latency
  std::vector<double> done;
  disk.read("f1", [&] { done.push_back(eng.now()); });
  disk.read("f2", [&] { done.push_back(eng.now()); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0], 1.5);
  EXPECT_DOUBLE_EQ(done[1], 4.0);  // starts after f1 head time
  EXPECT_EQ(disk.reads(), 2u);
  EXPECT_DOUBLE_EQ(disk.bytes_read(), 300.0);
}

TEST(Storage, ReadMissingReturnsFalse) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1e9, 100, 100, 0});
  EXPECT_FALSE(disk.read("ghost", [] { FAIL() << "must not fire"; }));
  eng.run();
}

TEST(Storage, WriteBecomesVisibleOnCompletion) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1e9, 100.0, 100.0, 0});
  bool done = false;
  EXPECT_TRUE(disk.write("f", 200, [&] { done = true; }));
  EXPECT_FALSE(disk.has("f"));          // not yet visible
  EXPECT_DOUBLE_EQ(disk.used(), 200.0); // capacity reserved
  EXPECT_FALSE(disk.write("f", 10, nullptr));  // pending duplicate rejected
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(disk.has("f"));
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
}

TEST(Storage, WriteOverCapacityRejected) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {100, 100, 100, 0});
  EXPECT_FALSE(disk.write("big", 200, nullptr));
  EXPECT_DOUBLE_EQ(disk.used(), 0.0);
}

// A store() of a name whose write is still pending is refused; accepting it
// let the write's completion overwrite the stored entry and leak its bytes.
TEST(Storage, StoreOfPendingWriteRejected) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1000, 100, 100, 0});
  ASSERT_TRUE(disk.write("f", 300, nullptr));
  EXPECT_FALSE(disk.store("f", 200));
  EXPECT_DOUBLE_EQ(disk.used(), 300.0);
  eng.run();
  EXPECT_EQ(disk.file_count(), 1u);
  EXPECT_DOUBLE_EQ(disk.used(), 300.0);
}

// The catalog that store() and write() build, and what they refuse, must not
// depend on the order the names arrive in: sorted, reversed or shuffled.
TEST(Storage, CatalogIsIndependentOfInsertOrder) {
  std::vector<std::string> names;
  for (int i = 0; i < 24; ++i) names.push_back(lsds::util::numbered("raw", i, 5));
  for (const char* n : {"f9", "f10", "f2", "a", "tape-raw00001", "z"}) names.emplace_back(n);
  std::vector<std::string> ascending = names;
  std::sort(ascending.begin(), ascending.end());
  std::vector<std::string> descending(ascending.rbegin(), ascending.rend());
  std::vector<std::string> shuffled = names;
  std::mt19937_64 gen(7);
  std::shuffle(shuffled.begin(), shuffled.end(), gen);

  struct Outcome {
    std::map<std::string, std::vector<bool>> returns;  // by name, so order-free
    std::vector<std::string> list, lru, lfu;
    std::size_t files = 0;
    double used = 0;
    bool operator==(const Outcome&) const = default;
  };
  const auto bytes_of = [](const std::string& n) { return 10.0 + static_cast<double>(n.size()); };
  const auto run = [&](const std::vector<std::string>& order) {
    core::Engine eng;
    double total = 0;
    for (const auto& n : names) total += 2 * bytes_of(n);
    hosts::StorageDevice disk(eng, "d", {total, 100, 100, 0});
    Outcome o;
    for (const auto& n : order) {
      auto& r = o.returns[n];
      r.push_back(disk.store(n, bytes_of(n), n == "raw00003"));
      r.push_back(disk.store(n, 1));                  // duplicate
      r.push_back(disk.write(n, 1, nullptr));         // stored already
      r.push_back(disk.store("x" + n, total));        // over capacity
      r.push_back(disk.write("w" + n, bytes_of(n), nullptr));
      r.push_back(disk.write("w" + n, 1, nullptr));   // write pending
      r.push_back(disk.store("w" + n, 1));            // write pending
    }
    // Every file ties on last_access; one read breaks the lfu tie for "a".
    disk.read("a", nullptr);
    const auto candidates = [&] {
      o.lru.push_back(disk.lru_candidate().value_or("-"));
      o.lfu.push_back(disk.lfu_candidate().value_or("-"));
    };
    candidates();
    eng.run();  // the writes land: "w..." names become visible
    candidates();
    for (const auto& n : {"a", "f10", "raw00000"}) {
      disk.evict(n);
      candidates();
    }
    o.list = disk.list();
    o.files = disk.file_count();
    o.used = disk.used();
    return o;
  };
  const Outcome want = run(ascending);
  EXPECT_EQ(want.files, 2 * names.size() - 3);
  EXPECT_EQ(want.list.front(), "f2");
  EXPECT_EQ(want.lru.front(), "a");
  EXPECT_EQ(want.lfu.front(), "f10");
  for (const auto& [n, r] : want.returns) {
    EXPECT_EQ(r, (std::vector<bool>{true, false, false, false, true, false, false})) << n;
  }
  EXPECT_TRUE(run(descending) == want) << "descending";
  EXPECT_TRUE(run(shuffled) == want) << "shuffled";
}

TEST(Storage, MassStorageSpecHasMountLatency) {
  core::Engine eng;
  hosts::StorageDevice tape(eng, "t", hosts::mass_storage_spec(1e15, 30e6, 30.0));
  tape.store("dataset", 30e6);  // 1s transfer
  double done_at = -1;
  tape.read("dataset", [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 31.0);  // 30s mount + 1s read
}

// --- facade awaitable adapters (sim/common.hpp) ----------------------------

#include "core/process.hpp"
#include "sim/common.hpp"

namespace {

lsds::core::Process writer_proc(core::Engine& eng, hosts::StorageDevice& disk,
                                std::vector<std::pair<std::string, bool>>& results) {
  const bool ok1 = co_await lsds::sim::disk_write(disk, "a", 400);
  results.emplace_back("a", ok1);
  const bool ok2 = co_await lsds::sim::disk_write(disk, "too-big", 1e9);
  results.emplace_back("too-big", ok2);
  co_await lsds::sim::disk_read(disk, "a");
  results.emplace_back("read-done", true);
  (void)eng;
}

}  // namespace

TEST(SimCommon, DiskWriteAwaiterReportsAcceptance) {
  core::Engine eng;
  hosts::StorageDevice disk(eng, "d", {1000, 100.0, 100.0, 0});
  std::vector<std::pair<std::string, bool>> results;
  writer_proc(eng, disk, results);
  eng.run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].second);    // 400 bytes accepted, awaited 4s
  EXPECT_FALSE(results[1].second);   // over capacity: rejected, no suspend
  EXPECT_TRUE(disk.has("a"));
  EXPECT_FALSE(disk.has("too-big"));
  EXPECT_DOUBLE_EQ(eng.now(), 8.0);  // 4s write + 4s read
}

// --- sites & organizations ------------------------------------------------

TEST(Grid, SiteWiring) {
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::SiteSpec spec;
  spec.name = "T1_DE";
  spec.cores = 8;
  spec.has_mass_storage = true;
  auto& site = grid.add_site(spec);
  EXPECT_EQ(site.name(), "T1_DE");
  EXPECT_EQ(site.cpu().cores(), 8u);
  EXPECT_TRUE(site.has_tape());
  EXPECT_EQ(grid.find_site("T1_DE"), site.id());
  EXPECT_EQ(grid.find_site("nope"), hosts::kInvalidSite);
}

TEST(Grid, CentralModelTransfersAndComputes) {
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::CentralModelSpec spec;
  spec.num_clients = 4;
  spec.server.cores = 2;
  spec.server.cpu_speed = 100;
  build_central_model(grid, spec);
  ASSERT_EQ(grid.site_count(), 5u);  // server + 4 clients
  EXPECT_TRUE(grid.topology().connected());
  EXPECT_TRUE(grid.finalized());

  // Client 1 ships 1 MB input to the server, which computes 1000 ops.
  auto& server = grid.site(0);
  auto& client = grid.site(1);
  double done_at = -1;
  grid.net().start_flow(client.node(), server.node(), 1e6, [&](lsds::net::FlowId) {
    server.cpu().submit(1, 1000.0, [&](hosts::JobId) { done_at = eng.now(); });
  });
  eng.run();
  // Transfer: min(12.5 MB/s, 125 MB/s) bottleneck at client link: 0.08s +
  // 0.022s latency; compute 10s.
  EXPECT_NEAR(done_at, 0.08 + 0.022 + 10.0, 1e-6);
}

TEST(Grid, TierModelShape) {
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::TierModelSpec spec;
  spec.t0.cores = 32;
  spec.levels.push_back({4, hosts::SiteSpec{}, 312.5e6, 0.02});  // 4 T1s
  spec.levels.push_back({2, hosts::SiteSpec{}, 125e6, 0.01});    // 2 T2s each
  build_tier_model(grid, spec);
  ASSERT_EQ(grid.site_count(), 1u + 4u + 8u);
  EXPECT_TRUE(grid.topology().connected());
  const auto t1s = tier_sites(grid, spec, 1);
  ASSERT_EQ(t1s.size(), 4u);
  EXPECT_EQ(grid.site(t1s[0]).name(), "T1_0");
  const auto t2s = tier_sites(grid, spec, 2);
  ASSERT_EQ(t2s.size(), 8u);
  EXPECT_EQ(grid.site(t2s.back()).name(), "T2_7");
  const auto t0 = tier_sites(grid, spec, 0);
  ASSERT_EQ(t0.size(), 1u);
  EXPECT_EQ(grid.site(t0[0]).name(), "T0");
}
