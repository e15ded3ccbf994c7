// Host substrate: CPU sharing policies, storage devices, sites and the
// Grid container.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.hpp"
#include "core/rng.hpp"
#include "hosts/cpu.hpp"
#include "hosts/site.hpp"
#include "hosts/storage.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "stats/analytical.hpp"
#include "stats/summary.hpp"
#include "util/strings.hpp"

namespace core = lsds::core;
namespace hosts = lsds::hosts;
namespace net = lsds::net;

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

TEST(Cpu, LoadTracksQueue) {
  core::Engine eng;
  hosts::CpuResource cpu(eng, "node", 1, 100.0, hosts::SharingPolicy::kSpaceShared);
  for (hosts::JobId id = 1; id <= 3; ++id) cpu.submit(id, 100.0, nullptr);
  EXPECT_EQ(cpu.running(), 1u);
  EXPECT_EQ(cpu.queued(), 2u);
  std::size_t running = 0, queued = 0;
  eng.schedule_at(1.5, [&] {
    running = cpu.running();
    queued = cpu.queued();
  });
  eng.run();
  EXPECT_EQ(running, 1u);
  EXPECT_EQ(queued, 1u);
  EXPECT_EQ(cpu.running(), 0u);
  EXPECT_EQ(cpu.queued(), 0u);
  EXPECT_EQ(cpu.jobs_completed(), 3u);
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

// Golden: a time-shared 4-core and a space-shared 2-core CPU driven through
// out-of-order submits, a running and a queued cancel, a fail-resume and a
// fail-stop outage. Every completion, kill and cancel is logged with its
// time at full precision, and both CPUs' state digests at three instants,
// so a change to the sharing code that moves any instant, callback order
// or mc digest shows. busy_ops() is compared only to 1e-12 relative: its
// summation order is not part of the contract.
TEST(Cpu, MixedPoliciesAndOutagesArePinned) {
  core::Engine eng;
  hosts::CpuResource ts(eng, "ts", 4, 100.0, hosts::SharingPolicy::kTimeShared);
  hosts::CpuResource ss(eng, "ss", 2, 70.0, hosts::SharingPolicy::kSpaceShared);
  ss.set_failure_semantics(lsds::core::FailureSemantics::kFailStop);
  std::string log;
  const auto note = [&](const std::string& line) { log += line + "\n"; };
  ss.set_killed_handler([&](hosts::JobId id, double lost) {
    note(lsds::util::strformat("%.17g kill %llu %.17g", eng.now(),
                               static_cast<unsigned long long>(id), lost));
  });
  const auto submit = [&](hosts::CpuResource& cpu, hosts::JobId id, double ops) {
    cpu.submit(id, ops, [&, name = cpu.name()](hosts::JobId jid) {
      note(lsds::util::strformat("%.17g %s done %llu", eng.now(), name.c_str(),
                                 static_cast<unsigned long long>(jid)));
    });
  };
  const auto cancel = [&](hosts::CpuResource& cpu, hosts::JobId id) {
    double done_ops = -1;
    const bool found = cpu.cancel(id, &done_ops);
    note(lsds::util::strformat("%.17g %s cancel %llu %d %.17g", eng.now(), cpu.name().c_str(),
                               static_cast<unsigned long long>(id), found, done_ops));
  };
  const auto digest = [&] {
    lsds::core::StateHash h;
    ts.state_digest(h);
    ss.state_digest(h);
    note(lsds::util::strformat("%.17g digest %016llx", eng.now(),
                               static_cast<unsigned long long>(h.value())));
  };

  // Time-shared: seven jobs arrive out of id order, so the node runs both
  // below (rate = speed) and above (rate = capacity / n) four jobs.
  for (const auto& [id, ops] : std::vector<std::pair<hosts::JobId, double>>{
           {17, 310.5}, {3, 123.25}, {29, 777.0}, {11, 45.125}}) {
    submit(ts, id, ops);
  }
  eng.schedule_at(0.3, [&] {
    submit(ts, 5, 260.0);
    submit(ts, 23, 90.0 / 7.0);
    submit(ts, 2, 1000.0 / 3.0);
  });
  eng.schedule_at(0.9, [&] { cancel(ts, 29); });  // running
  eng.schedule_at(1.1, digest);
  eng.schedule_at(1.7, [&] { ts.set_online(false); });  // fail-resume
  eng.schedule_at(2.45, [&] {
    submit(ts, 13, 55.5);
    ts.set_online(true);
  });

  // Space-shared: eight jobs on two cores, the rest wait in FIFO order, so
  // the fail-stop outage kills two running jobs and returns two queued ones.
  for (const auto& [id, ops] : std::vector<std::pair<hosts::JobId, double>>{
           {40, 150.0}, {34, 95.0}, {38, 200.0 / 3.0}, {31, 120.0}, {36, 44.0}, {33, 81.0},
           {39, 110.0}, {30, 88.0}}) {
    submit(ss, id, ops);
  }
  eng.schedule_at(0.5, [&] { cancel(ss, 36); });  // queued
  eng.schedule_at(2.2, digest);
  eng.schedule_at(2.6, [&] { ss.set_online(false); });  // fail-stop
  eng.schedule_at(3.1, [&] {
    ss.set_online(true);
    submit(ss, 37, 140.0);
    submit(ss, 32, 10.0);
    submit(ss, 35, 75.0);
  });
  eng.schedule_at(3.5, [&] { cancel(ss, 99); });  // never here
  eng.schedule_at(4.0, digest);
  eng.run();
  SCOPED_TRACE(log);

  EXPECT_EQ(log.size(), 731u);
  EXPECT_EQ(lsds::core::StateHash().mix(std::string_view(log)).value(), 0x8d2926169c24c339ull);
  EXPECT_EQ(ts.jobs_completed(), 7u);
  EXPECT_EQ(ss.jobs_completed(), 6u);
  EXPECT_EQ(ss.jobs_killed(), 4u);
  EXPECT_NEAR(ts.busy_ops(), 1212.9690476190476, 1e-12 * 1212.9690476190476);
  EXPECT_NEAR(ss.busy_ops(), 589.0, 1e-12 * 589.0);
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

// --- catalog against a reference model ---------------------------------------
//
// Seeded random sequences of every catalog operation, run against the device
// and against a model of the catalog's semantics: a std::map of stored files
// in name order, a std::set of names whose write is pending, and the bytes
// reserved. Writes complete while the clock advances between operations, so
// completions interleave with stores, evictions and pins. Names cover the
// append path (numbered in order, crossing "raw99999" -> "raw100000", which
// sorts before it), inserts in the middle, duplicates, and names with a write
// pending.

namespace {

struct CatalogModel {
  std::map<std::string, hosts::StoredFile> files;
  std::set<std::string> pending;
  double used = 0;
  double capacity = 0;

  bool store(const std::string& lfn, double bytes, bool pinned, double now) {
    if (used + bytes > capacity || pending.count(lfn) || files.count(lfn)) return false;
    files.emplace(lfn, hosts::StoredFile{lfn, bytes, now, now, 0, pinned});
    used += bytes;
    return true;
  }
  bool write(const std::string& lfn, double bytes) {
    if (used + bytes > capacity || files.count(lfn) || pending.count(lfn)) return false;
    pending.insert(lfn);
    used += bytes;
    return true;
  }
  void complete(const std::string& lfn, double bytes, double now) {
    ASSERT_EQ(pending.erase(lfn), 1u) << lfn;
    files.emplace(lfn, hosts::StoredFile{lfn, bytes, now, now, 0, false});
  }
  bool evict(const std::string& lfn) {
    auto it = files.find(lfn);
    if (it == files.end() || it->second.pinned) return false;
    used -= it->second.bytes;
    files.erase(it);
    return true;
  }
  bool set_pinned(const std::string& lfn, bool pinned) {
    auto it = files.find(lfn);
    if (it == files.end()) return false;
    it->second.pinned = pinned;
    return true;
  }
  bool read(const std::string& lfn, double now) {
    auto it = files.find(lfn);
    if (it == files.end()) return false;
    it->second.last_access = now;
    ++it->second.access_count;
    return true;
  }
  std::optional<std::string> lru() const {
    const hosts::StoredFile* best = nullptr;
    for (const auto& [lfn, f] : files) {
      if (!f.pinned && (!best || f.last_access < best->last_access)) best = &f;
    }
    return best ? std::optional<std::string>(best->lfn) : std::nullopt;
  }
  std::optional<std::string> lfu() const {
    const hosts::StoredFile* best = nullptr;
    for (const auto& [lfn, f] : files) {
      if (f.pinned) continue;
      if (!best || f.access_count < best->access_count ||
          (f.access_count == best->access_count && f.last_access < best->last_access)) {
        best = &f;
      }
    }
    return best ? std::optional<std::string>(best->lfn) : std::nullopt;
  }
};

void expect_catalog_matches(const hosts::StorageDevice& disk, const CatalogModel& m,
                            const std::set<std::string>& names) {
  std::vector<std::string> want_list;
  for (const auto& [lfn, f] : m.files) want_list.push_back(lfn);
  ASSERT_EQ(disk.list(), want_list);
  ASSERT_EQ(disk.file_count(), m.files.size());
  ASSERT_EQ(disk.used(), m.used);
  ASSERT_EQ(disk.lru_candidate(), m.lru());
  ASSERT_EQ(disk.lfu_candidate(), m.lfu());
  for (const auto& n : names) {
    const auto it = m.files.find(n);
    const hosts::StoredFile* f = disk.file(n);
    ASSERT_EQ(disk.has(n), it != m.files.end()) << n;
    ASSERT_EQ(f != nullptr, it != m.files.end()) << n;
    if (!f) continue;
    const hosts::StoredFile& w = it->second;
    ASSERT_EQ(f->lfn, w.lfn);
    ASSERT_EQ(f->bytes, w.bytes) << n;
    ASSERT_EQ(f->created, w.created) << n;
    ASSERT_EQ(f->last_access, w.last_access) << n;
    ASSERT_EQ(f->access_count, w.access_count) << n;
    ASSERT_EQ(f->pinned, w.pinned) << n;
  }
}

// One seeded sequence; `net` is set for a max-min device.
void run_catalog_differential(std::uint64_t seed, double capacity, net::FlowNetwork* net,
                              core::Engine& eng) {
  hosts::StorageDevice::Spec spec{capacity, 400, 250, 0.05};
  if (net) spec.sharing = hosts::StorageSharing::kMaxMin;
  hosts::StorageDevice disk(eng, "d", spec);
  if (net) disk.attach_solver(*net);
  CatalogModel m;
  m.capacity = capacity;

  core::RngStream rng(seed);
  std::vector<std::string> names;  // every name drawn so far, repeats included
  std::set<std::string> probes;     // each of them once
  std::size_t next_numbered = 99'970;
  const std::vector<std::string> fixed = {"a", "f10", "f2", "f9", "m", "raw00000", "tape-raw00001",
                                          "raw99999", "raw100000", "zz"};
  std::string last_written = "a";
  const auto pick_name = [&]() -> std::string {
    const double u = rng.uniform();
    if (u < 0.1) return last_written;  // its write may still be pending
    if (u < 0.5) {
      names.push_back(lsds::util::numbered("raw", next_numbered++, 5));
      return names.back();
    }
    if (u < 0.6) {
      names.push_back(fixed[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(fixed.size()) - 1))]);
      return names.back();
    }
    if (u < 0.7 || names.empty()) {
      names.push_back("x" + std::to_string(rng.uniform_int(0, 999)));
      return names.back();
    }
    return names[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
  };
  std::size_t writes_done = 0, write_refusals = 0, store_refusals = 0, pinned_refusals = 0;
  std::size_t middle_inserts = 0;
  for (int step = 0; step < 1500; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    const double now = eng.now();
    const std::string lfn = pick_name();
    const double bytes = static_cast<double>(rng.uniform_int(0, 120));
    const auto op = rng.uniform_int(0, 9);
    if (!m.files.empty() && m.files.rbegin()->first > lfn) ++middle_inserts;
    switch (op) {
      case 0:
      case 1: {
        const bool pinned = rng.bernoulli(0.2);
        if (m.pending.count(lfn)) ++store_refusals;
        ASSERT_EQ(disk.store(lfn, bytes, pinned), m.store(lfn, bytes, pinned, now)) << lfn;
        break;
      }
      case 2:
      case 3: {
        if (m.pending.count(lfn)) ++write_refusals;
        const bool want = m.write(lfn, bytes);
        if (want) last_written = lfn;
        ASSERT_EQ(disk.write(lfn, bytes,
                             [&m, &eng, &writes_done, lfn, bytes] {
                               m.complete(lfn, bytes, eng.now());
                               ++writes_done;
                             }),
                  want)
            << lfn;
        break;
      }
      case 4: {
        const auto it = m.files.find(lfn);
        if (it != m.files.end() && it->second.pinned) ++pinned_refusals;
        ASSERT_EQ(disk.evict(lfn), m.evict(lfn)) << lfn;
        break;
      }
      case 5: {
        const bool pinned = rng.bernoulli(0.5);
        ASSERT_EQ(disk.set_pinned(lfn, pinned), m.set_pinned(lfn, pinned)) << lfn;
        break;
      }
      case 6:
        ASSERT_EQ(disk.read(lfn, nullptr), m.read(lfn, now)) << lfn;
        break;
      case 7:
        // Evict what the catalog names as the least recently/frequently used.
        if (const auto victim = rng.bernoulli(0.5) ? m.lru() : m.lfu()) {
          ASSERT_TRUE(disk.evict(*victim));
          ASSERT_TRUE(m.evict(*victim));
        }
        break;
      default:
        eng.run_until(now + rng.uniform(0.0, 1.0));
        break;
    }
    if (step % 300 == 299) eng.run();  // drain every write in flight
    probes.insert(lfn);
    expect_catalog_matches(disk, m, step % 16 == 0 ? probes : std::set<std::string>{lfn});
    if (::testing::Test::HasFatalFailure()) return;
  }
  eng.run();
  EXPECT_TRUE(m.pending.empty());
  expect_catalog_matches(disk, m, probes);
  // The sequence must reach the cases it is written for.
  EXPECT_GT(writes_done, 50u);
  EXPECT_GT(write_refusals, 0u);
  EXPECT_GT(store_refusals, 0u);
  EXPECT_GT(pinned_refusals, 0u);
  EXPECT_GT(middle_inserts, 100u);
  EXPECT_EQ(disk.writes(), writes_done);
}

}  // namespace

TEST(StorageCatalog, FifoDeviceMatchesMapAndSetModel) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const double capacity : {1500.0, 20000.0}) {
      core::Engine eng;
      run_catalog_differential(seed, capacity, nullptr, eng);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(StorageCatalog, MaxMinDeviceMatchesMapAndSetModel) {
  net::Topology topo;
  topo.add_node("a");
  net::Routing routing(topo);
  for (const std::uint64_t seed : {4u, 5u}) {
    core::Engine eng;
    net::FlowNetwork fnet(eng, routing);
    run_catalog_differential(seed, 5000.0, &fnet, eng);
    if (HasFatalFailure()) return;
  }
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

// --- sites & grid ---------------------------------------------------------

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

TEST(Grid, FlowThenComputeOnAStar) {
  // A server and four clients around a router hub (the central model's
  // shape); the flow network and the CPUs serve one job end to end.
  core::Engine eng;
  hosts::Grid grid(eng);
  hosts::SiteSpec spec;
  spec.name = "central";
  spec.cores = 2;
  spec.cpu_speed = 100;
  auto& server = grid.add_site(spec);
  auto& topo = grid.topology();
  const auto hub = topo.add_node("hub", lsds::net::NodeKind::kRouter);
  topo.add_link(server.node(), hub, 125e6, 0.002);
  for (int i = 0; i < 4; ++i) {
    spec = hosts::SiteSpec{};
    spec.name = "client" + std::to_string(i);
    topo.add_link(grid.add_site(spec).node(), hub, 12.5e6, 0.02);
  }
  grid.finalize();
  ASSERT_EQ(grid.site_count(), 5u);  // server + 4 clients
  EXPECT_TRUE(topo.connected());
  EXPECT_TRUE(grid.finalized());

  // Client 1 ships 1 MB input to the server, which computes 1000 ops.
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
