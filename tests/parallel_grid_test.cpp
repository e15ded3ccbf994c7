// Differential determinism suite for parallel Grid execution.
//
// The contract under test: for a given master seed, the ParallelGrid models
// (tier_model, bag_model) produce BIT-IDENTICAL results — every job
// completion time, every transfer byte count, every summary statistic — no
// matter how the sites are partitioned (1, 2 or 4 LPs), how many worker
// threads run the windows, or which partition scheme draws the cut. The
// serial reference (exec.parallel = false) is the baseline; traces are
// compared byte-for-byte via TierResult::trace() / BagResult::trace().
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "hosts/parallel_grid.hpp"
#include "sim/parallel/bag_model.hpp"
#include "sim/parallel/execution.hpp"
#include "sim/parallel/tier_model.hpp"
#include "util/ini.hpp"

namespace hosts = lsds::hosts;
namespace net = lsds::net;
namespace parallel = lsds::sim::parallel;

namespace {

lsds::sim::monarc::Config small_tier() {
  lsds::sim::monarc::Config cfg;
  cfg.num_t1 = 5;
  cfg.num_files = 10;
  cfg.file_bytes = 1e9;
  cfg.production_interval = 5.0;
  cfg.t2_per_t1 = 2;
  cfg.t2_fraction = 0.5;
  cfg.archive_to_tape = true;
  return cfg;
}

hosts::ExecutionSpec par(unsigned lps, unsigned threads,
                         net::PartitionScheme scheme = net::PartitionScheme::kTopology) {
  hosts::ExecutionSpec spec;
  spec.parallel = true;
  spec.lps = lps;
  spec.threads = threads;
  spec.partition = scheme;
  return spec;
}

}  // namespace

// --- tier model (MONARC facade opt-in) -------------------------------------

TEST(ParallelTier, SerialVsParallelBitIdentical) {
  const auto cfg = small_tier();
  const auto serial = parallel::run_tier(cfg, {});
  ASSERT_FALSE(serial.exec.parallel);
  EXPECT_EQ(serial.files_produced, cfg.num_files);
  EXPECT_EQ(serial.replicas_delivered, cfg.num_files * cfg.num_t1);
  EXPECT_GT(serial.jobs.size(), cfg.num_files * cfg.num_t1 / 2);  // T1 + some T2 jobs

  for (unsigned lps : {1u, 2u, 4u}) {
    const auto p = parallel::run_tier(cfg, par(lps, 2));
    EXPECT_EQ(serial.trace(), p.trace()) << lps << " LPs diverged from the serial reference";
    EXPECT_EQ(p.exec.engine.lookahead_violations, 0u)
        << "model sends must be conservative by construction";
    EXPECT_EQ(p.exec.engine.past_clamped, 0u);
    if (lps > 1) {
      EXPECT_TRUE(p.exec.parallel);
      EXPECT_GT(p.exec.engine.cross_messages, 0u);
      EXPECT_GT(p.exec.lookahead, 0.0);
    }
  }
}

TEST(ParallelTier, ParallelRunTwiceByteIdentical) {
  const auto cfg = small_tier();
  const auto a = parallel::run_tier(cfg, par(4, 4));
  const auto b = parallel::run_tier(cfg, par(4, 4));
  EXPECT_EQ(a.trace(), b.trace());
  EXPECT_EQ(a.exec.engine.windows, b.exec.engine.windows);
  EXPECT_EQ(a.exec.engine.cross_messages, b.exec.engine.cross_messages);
}

TEST(ParallelTier, ThreadCountInvariance) {
  const auto cfg = small_tier();
  const auto t1 = parallel::run_tier(cfg, par(4, 1));
  const auto t2 = parallel::run_tier(cfg, par(4, 2));
  const auto t4 = parallel::run_tier(cfg, par(4, 4));
  EXPECT_EQ(t1.trace(), t2.trace());
  EXPECT_EQ(t1.trace(), t4.trace());
}

TEST(ParallelTier, PartitionSchemeInvariance) {
  // The partition scheme may change the cut (and thus lookahead & balance),
  // but never the simulation results.
  const auto cfg = small_tier();
  const auto topo = parallel::run_tier(cfg, par(3, 2, net::PartitionScheme::kTopology));
  const auto rr = parallel::run_tier(cfg, par(3, 2, net::PartitionScheme::kRoundRobin));
  EXPECT_EQ(topo.trace(), rr.trace());
}

TEST(ParallelTier, Lhc64SiteScenario) {
  // 1 T0 + 9 T1 + 54 T2 = 64 sites, as in the bench scenario.
  auto cfg = small_tier();
  cfg.num_t1 = 9;
  cfg.t2_per_t1 = 6;
  cfg.num_files = 6;
  const auto serial = parallel::run_tier(cfg, {});
  const auto p = parallel::run_tier(cfg, par(4, 4));
  ASSERT_TRUE(p.exec.parallel);
  EXPECT_EQ(p.exec.lps, 4u);
  EXPECT_EQ(serial.trace(), p.trace());
  // Each regional centre stays whole: every T1 shares its LP with all its
  // T2s, so the cut crosses only T0--T1 links (0.05 s)...
  hosts::ParallelGrid grid(par(4, 4));
  const auto t2_sites = lsds::sim::monarc::add_tier_sites(grid, cfg);
  grid.finalize();
  for (std::size_t i = 0; i < cfg.num_t1; ++i) {
    for (hosts::SiteId t2 : t2_sites[i]) {
      EXPECT_EQ(grid.lp_of(t2), grid.lp_of(static_cast<hosts::SiteId>(1 + i)))
          << "T2 site " << t2 << " cut from T1_" << i;
    }
  }
  EXPECT_EQ(p.exec.lookahead, 0.05);
  // ...and the LPs form a star out of T0's: round 1 drains T0's LP, the
  // next drains the rest.
  EXPECT_LE(p.exec.engine.windows, 3u);
  // Per-LP rollup covers every LP and sums to the event total.
  ASSERT_EQ(p.exec.engine.per_lp_events.size(), 4u);
  std::uint64_t sum = 0;
  for (auto e : p.exec.engine.per_lp_events) sum += e;
  EXPECT_EQ(sum, p.exec.engine.events);
  EXPECT_GE(p.exec.imbalance(), 1.0);
}

TEST(ParallelTier, QueueKindInvariance) {
  // The event-queue structure is a performance knob, never a results knob —
  // serial and on 4 LPs, where windows hold the event past their bound and
  // deliveries land earlier than it. ResultsPinnedFromParent's 64-site
  // geometry gives the calendar queue its hardest population: a dense
  // near-term cluster beside events 40 s apart.
  auto cfg = small_tier();
  cfg.num_t1 = 9;
  cfg.t2_per_t1 = 6;
  cfg.num_files = 12;
  for (const auto q : lsds::core::kAllQueueKinds) {
    SCOPED_TRACE(lsds::core::to_string(q));
    hosts::ExecutionSpec serial;
    serial.queue = q;
    auto spec = par(4, 2);
    spec.queue = q;
    EXPECT_EQ(lsds::core::fnv1a(parallel::run_tier(cfg, serial).trace()), 0x7bc29812e967145ull);
    const auto r = parallel::run_tier(cfg, spec);
    ASSERT_TRUE(r.exec.parallel);
    EXPECT_EQ(lsds::core::fnv1a(r.trace()), 0x7bc29812e967145ull);
    EXPECT_EQ(r.exec.engine.lookahead_violations, 0u);
  }
}

TEST(ParallelTier, SampleStatsMatchAcrossModes) {
  const auto cfg = small_tier();
  const auto serial = parallel::run_tier(cfg, {});
  const auto p = parallel::run_tier(cfg, par(4, 2));
  EXPECT_EQ(serial.replication_lag.count(), p.replication_lag.count());
  EXPECT_DOUBLE_EQ(serial.replication_lag.mean(), p.replication_lag.mean());
  EXPECT_DOUBLE_EQ(serial.analysis_delays.mean(), p.analysis_delays.mean());
  EXPECT_DOUBLE_EQ(serial.t2_delays.mean(), p.t2_delays.mean());
  EXPECT_DOUBLE_EQ(serial.backlog_at_production_end, p.backlog_at_production_end);
  EXPECT_DOUBLE_EQ(serial.makespan, p.makespan);
}

TEST(ParallelTier, HorizonCutIdenticalAcrossModes) {
  auto cfg = small_tier();
  cfg.horizon = 22.0;  // cut mid-replication
  const auto serial = parallel::run_tier(cfg, {});
  const auto p = parallel::run_tier(cfg, par(4, 2));
  EXPECT_EQ(serial.trace(), p.trace());
  EXPECT_LT(serial.replicas_delivered, cfg.num_files * cfg.num_t1);
}

TEST(ParallelTier, ResultsPinnedFromParent) {
  // The serial-vs-parallel tests above compare the model with itself, so a
  // change that moves both sides passes them. These FNV-1a digests of
  // TierResult::trace() were recorded before the per-file state moved from
  // maps to indexed tables; any model change moves them.
  auto cfg = small_tier();
  cfg.num_t1 = 9;
  cfg.t2_per_t1 = 6;  // 64 sites, T2 pulls and tape archive on
  cfg.num_files = 12;
  const auto serial = parallel::run_tier(cfg, {});
  const auto p = parallel::run_tier(cfg, par(4, 4));
  ASSERT_TRUE(p.exec.parallel);
  EXPECT_EQ(lsds::core::fnv1a(serial.trace()), 0x7bc29812e967145ull);
  EXPECT_EQ(lsds::core::fnv1a(p.trace()), 0x7bc29812e967145ull);

  cfg.horizon = 33.0;  // cut with T1 and T2 jobs still waiting for replicas
  EXPECT_EQ(lsds::core::fnv1a(parallel::run_tier(cfg, par(4, 2)).trace()), 0x1e1f5e1b66ea6a0eull);
  auto cut = small_tier();
  cut.horizon = 22.0;
  EXPECT_EQ(lsds::core::fnv1a(parallel::run_tier(cut, par(4, 2)).trace()), 0xd7733dc26b470062ull);
}

TEST(ParallelTier, FailureInjectionRejected) {
  auto cfg = small_tier();
  cfg.failures.enabled = true;
  EXPECT_THROW(parallel::run_tier(cfg, par(2, 2)), std::runtime_error);
}

TEST(ParallelTier, MaxMinStorageRejected) {
  auto cfg = small_tier();
  cfg.storage_sharing = hosts::StorageSharing::kMaxMin;
  EXPECT_THROW(parallel::run_tier(cfg, par(2, 2)), lsds::util::ConfigError);
}

// --- bag model (GridSim facade opt-in) -------------------------------------

TEST(ParallelBag, SerialVsParallelBitIdentical) {
  lsds::sim::gridsim::Config cfg;
  cfg.num_resources = 6;
  cfg.num_jobs = 40;
  const auto serial = parallel::run_bag(cfg, {});
  EXPECT_EQ(serial.completed, cfg.num_jobs);
  for (unsigned lps : {2u, 4u}) {
    const auto p = parallel::run_bag(cfg, par(lps, 2));
    EXPECT_EQ(serial.trace(), p.trace()) << lps << " LPs diverged";
    EXPECT_EQ(p.exec.engine.lookahead_violations, 0u);
    EXPECT_EQ(p.exec.engine.past_clamped, 0u);
  }
}

TEST(ParallelBag, StrategiesAndConstraintsSurvive) {
  lsds::sim::gridsim::Config cfg;
  cfg.num_resources = 5;
  cfg.num_jobs = 30;
  cfg.strategy = lsds::middleware::DbcStrategy::kTimeOptimization;
  cfg.budget = 60.0;  // tight: forces rejections
  const auto serial = parallel::run_bag(cfg, {});
  const auto p = parallel::run_bag(cfg, par(3, 2));
  EXPECT_EQ(serial.trace(), p.trace());
  EXPECT_GT(serial.rejected, 0u);
  EXPECT_EQ(serial.accepted + serial.rejected, cfg.num_jobs);
  EXPECT_EQ(serial.completed, serial.accepted);
  EXPECT_LE(serial.cost, cfg.budget);
}

// --- lookahead derivation & fallback ---------------------------------------

TEST(ParallelGridCore, LookaheadOverrideNarrowsWindowsNotResults) {
  // A round-robin cut puts T1--T2 channels both ways across LPs, so the
  // channel delays bound the horizons. (The topology cut leaves a star out
  // of T0's LP, which runs in two rounds whatever the delays.)
  const auto cfg = small_tier();
  auto wide = par(4, 2, net::PartitionScheme::kRoundRobin);
  auto narrow = par(4, 2, net::PartitionScheme::kRoundRobin);
  narrow.lookahead_override = 0.002;
  const auto a = parallel::run_tier(cfg, wide);
  const auto b = parallel::run_tier(cfg, narrow);
  EXPECT_EQ(a.trace(), b.trace());
  ASSERT_TRUE(b.exec.parallel);
  EXPECT_DOUBLE_EQ(b.exec.lookahead, 0.002);
  EXPECT_GT(b.exec.engine.windows, a.exec.engine.windows);
}

TEST(ParallelGridCore, ZeroLatencyCutFallsBackToSerial) {
  hosts::ParallelGrid grid(par(2, 2));
  hosts::SiteSpec s;
  s.name = "a";
  const auto a = grid.add_site(s);
  s.name = "b";
  const auto b = grid.add_site(s);
  grid.topology().add_link(a, b, 1e9, 0.0);  // zero latency: no conservative window
  grid.channel(a, b);
  grid.finalize();
  EXPECT_FALSE(grid.parallel());
  EXPECT_NE(grid.fallback_reason().find("channel a -> b"), std::string::npos)
      << grid.fallback_reason();
  int ran = 0;
  grid.at(a, 1.0, [&] { ++ran; });
  grid.at(b, 2.0, [&] { ++ran; });
  const auto rep = grid.run();
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(rep.parallel);
  EXPECT_EQ(rep.fallback_reason, grid.fallback_reason());
  EXPECT_EQ(rep.lps, 1u);
}

TEST(ParallelGridCore, ChannelsSetLookaheadAndUndeclaredPostsThrow) {
  hosts::ParallelGrid grid(par(2, 2));
  hosts::SiteSpec s;
  s.name = "a";
  const auto a = grid.add_site(s);
  s.name = "b";
  const auto b = grid.add_site(s);
  grid.topology().add_link(a, b, 1e9, 0.03);
  grid.channel(a, b);
  grid.channel(a, a);  // one LP: declares nothing
  grid.finalize();
  ASSERT_TRUE(grid.parallel()) << grid.fallback_reason();
  EXPECT_EQ(grid.lookahead(), 0.03);
  int delivered = 0;
  grid.at(a, 1.0, [&] { grid.transfer(a, b, 1e6, [&] { ++delivered; }); });
  grid.at(b, 1.0, [&] { grid.post(b, a, 2.0, [] {}); });  // b -> a never declared
  EXPECT_THROW(grid.run(), std::logic_error);
}

TEST(ParallelGridCore, UnusedZeroLatencyPairRunsParallel) {
  // Round-robin puts a and c on LP 0, b and d on LP 1, so the cut crosses
  // the zero-latency a--b link. Only c and d talk: the lookahead is their
  // 30 ms, and a and b constrain nothing.
  auto run = [](bool parallel) {
    auto spec = par(2, 2, net::PartitionScheme::kRoundRobin);
    spec.parallel = parallel;
    hosts::ParallelGrid grid(spec);
    hosts::SiteSpec s;
    std::vector<hosts::SiteId> id;
    for (const char* name : {"a", "b", "c", "d"}) {
      s.name = name;
      id.push_back(grid.add_site(s));
    }
    grid.topology().add_link(id[0], id[1], 1e9, 0.0);
    grid.topology().add_link(id[2], id[3], 1e9, 0.03);
    grid.topology().add_link(id[0], id[2], 1e9, 0.05);
    grid.channel(id[2], id[3]);
    grid.channel(id[3], id[2]);
    grid.finalize();
    std::vector<double> at;  // written on d's LP, then on c's, never at once
    grid.at(id[0], 1.0, [] {});
    grid.at(id[1], 1.0, [] {});
    grid.at(id[2], 0.5, [&grid, &at, id] {
      grid.transfer(id[2], id[3], 1e6, [&grid, &at, id] {
        at.push_back(grid.now_of(id[3]));
        grid.transfer(id[3], id[2], 2e6, [&grid, &at, id] { at.push_back(grid.now_of(id[2])); });
      });
    });
    if (parallel) {
      EXPECT_NE(grid.lp_of(id[0]), grid.lp_of(id[1]));
    }
    const auto rep = grid.run();
    EXPECT_EQ(rep.engine.lookahead_violations, 0u);
    return std::make_pair(rep, at);
  };
  const auto [serial, serial_at] = run(false);
  const auto [p, p_at] = run(true);
  ASSERT_TRUE(p.parallel) << p.fallback_reason;
  EXPECT_EQ(p.lps, 2u);
  EXPECT_EQ(p.lookahead, 0.03);
  EXPECT_EQ(p.engine.cross_messages, 2u);
  EXPECT_EQ(p_at.size(), 2u);
  EXPECT_EQ(p_at, serial_at);
}

TEST(ParallelGridCore, ChannelMisuseFailsFast) {
  hosts::ParallelGrid grid(par(2, 2));
  hosts::SiteSpec s;
  s.name = "a";
  const auto a = grid.add_site(s);
  s.name = "b";
  const auto b = grid.add_site(s);
  grid.topology().add_link(a, b, 1e9, 0.03);
  EXPECT_THROW(grid.channel(a, 2), std::out_of_range);
  EXPECT_THROW(grid.channel(7, b), std::out_of_range);
  grid.channel(a, b);
  grid.finalize();
  ASSERT_TRUE(grid.parallel()) << grid.fallback_reason();
  // Too late: the engine's channels are fixed by finalize().
  EXPECT_THROW(grid.channel(b, a), std::logic_error);
}

TEST(ParallelGridCore, PerPartitionFlowNetworksDeliver) {
  // Each LP owns its own FlowNetwork bound to its engine; flows started from
  // a site's partition run entirely LP-locally.
  hosts::ParallelGrid grid(par(2, 2));
  hosts::SiteSpec s;
  s.name = "a0";
  const auto a0 = grid.add_site(s);
  s.name = "a1";
  const auto a1 = grid.add_site(s);
  s.name = "b0";
  const auto b0 = grid.add_site(s);
  s.name = "b1";
  const auto b1 = grid.add_site(s);
  grid.topology().add_link(a0, a1, 1e8, 0.001);
  grid.topology().add_link(b0, b1, 1e8, 0.001);
  grid.topology().add_link(a0, b0, 1e7, 0.05);  // WAN cut: lookahead source
  grid.finalize();
  ASSERT_TRUE(grid.parallel()) << grid.fallback_reason();
  EXPECT_TRUE(grid.flows_of(a0).config().incremental);

  std::atomic<int> done{0};
  grid.at(a0, 0.0, [&grid, &done, a0, a1] {
    auto& net = grid.flows_of(a0);
    net.start_flow(a0, a1, 1e6, [&done](net::FlowId) { ++done; });
    net.start_flow_weighted(a0, a1, 2e6, 2.0, [&done](net::FlowId) { ++done; });
  });
  grid.at(b1, 0.0, [&grid, &done, b0, b1] {
    grid.flows_of(b1).start_flow(b1, b0, 5e5, [&done](net::FlowId) { ++done; });
  });
  grid.run(10.0);
  EXPECT_EQ(done.load(), 3);

  std::set<net::FlowNetwork*> nets;
  for (auto sid : {a0, a1, b0, b1}) nets.insert(&grid.flows_of(sid));
  std::uint64_t completed = 0;
  double bytes = 0;
  for (auto* n : nets) {
    completed += n->flows_completed();
    bytes += n->total_bytes_delivered();
    EXPECT_EQ(n->active_flows(), 0u);
  }
  EXPECT_EQ(completed, 3u);
  EXPECT_DOUBLE_EQ(bytes, 3.5e6);
}

TEST(ParallelGridCore, SingleSiteFallsBackToSerial) {
  hosts::ParallelGrid grid(par(4, 4));
  hosts::SiteSpec s;
  s.name = "only";
  grid.add_site(s);
  grid.finalize();
  EXPECT_FALSE(grid.parallel());
  EXPECT_FALSE(grid.fallback_reason().empty());
}

// --- [execution] scenario section ------------------------------------------

TEST(ExecutionIni, ParsesSection) {
  const auto ini = lsds::util::IniConfig::parse(
      "[execution]\n"
      "mode = parallel\n"
      "threads = 8\n"
      "lps = 3\n"
      "partition = round-robin\n"
      "lookahead = 5ms\n");
  const auto spec = parallel::parse_execution(ini, 7, lsds::core::QueueKind::kBinaryHeap);
  EXPECT_TRUE(spec.parallel);
  EXPECT_EQ(spec.threads, 8u);
  EXPECT_EQ(spec.lps, 3u);
  EXPECT_EQ(spec.partition, net::PartitionScheme::kRoundRobin);
  EXPECT_DOUBLE_EQ(spec.lookahead_override, 0.005);
  EXPECT_EQ(spec.seed, 7u);
}

TEST(ExecutionIni, DefaultsToSerialAndRejectsUnknown) {
  const auto empty = lsds::util::IniConfig::parse("");
  EXPECT_FALSE(
      parallel::parse_execution(empty, 1, lsds::core::QueueKind::kBinaryHeap).parallel);
  const auto bad = lsds::util::IniConfig::parse("[execution]\nmode = speculative\n");
  EXPECT_THROW(parallel::parse_execution(bad, 1, lsds::core::QueueKind::kBinaryHeap),
               lsds::util::ConfigError);
  const auto badp = lsds::util::IniConfig::parse("[execution]\npartition = simulated-annealing\n");
  EXPECT_THROW(parallel::parse_execution(badp, 1, lsds::core::QueueKind::kBinaryHeap),
               lsds::util::ConfigError);
}

TEST(ExecutionIni, RejectsNegativeCounts) {
  // Negative counts used to wrap through the unsigned cast: threads = -1
  // asked for 4,294,967,295 threads. Each must fail fast, naming its key.
  const std::pair<const char*, const char*> bad[] = {
      {"threads = -1\n", "threads"}, {"threads = 0\n", "threads"}, {"lps = -1\n", "lps"}};
  for (const auto& [line, key] : bad) {
    const auto ini = lsds::util::IniConfig::parse(std::string("[execution]\nmode = parallel\n") + line);
    try {
      parallel::parse_execution(ini, 1, lsds::core::QueueKind::kBinaryHeap);
      ADD_FAILURE() << "accepted " << line;
    } catch (const lsds::util::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // lps = 0 (one LP per thread) stays valid.
  const auto ok = lsds::util::IniConfig::parse("[execution]\nthreads = 1\nlps = 0\n");
  EXPECT_EQ(parallel::parse_execution(ok, 1, lsds::core::QueueKind::kBinaryHeap).lps, 0u);
}

TEST(ExecutionIni, DescribeCoversBothModes) {
  const auto cfg = small_tier();
  const auto serial = parallel::run_tier(cfg, {});
  const auto p = parallel::run_tier(cfg, par(2, 2));
  EXPECT_NE(parallel::describe(serial.exec).find("serial"), std::string::npos);
  const auto text = parallel::describe(p.exec);
  EXPECT_NE(text.find("parallel"), std::string::npos);
  EXPECT_NE(text.find("lookahead"), std::string::npos);
  EXPECT_NE(text.find("inline"), std::string::npos);
  EXPECT_NE(text.find("barrier wait"), std::string::npos);
}
