// Distributed campaign execution: shard planning, the campaign_partial wire
// protocol, and the byte-identity + failure-recovery contracts of the
// process-level coordinator (exp/dist_campaign.hpp).
//
// This binary doubles as its own worker fleet: main() dispatches
// --campaign-worker to exp::run_campaign_worker before gtest initializes,
// and DistributedCampaign's default worker binary is /proc/self/exe — so
// every spawn test exercises the real fork/exec/waitpid supervision path
// without depending on scenario_runner being built first.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/dist_campaign.hpp"
#include "exp/dist_protocol.hpp"
#include "obs/json.hpp"
#include "util/flags.hpp"
#include "util/ini.hpp"

namespace exp = lsds::exp;
namespace obs = lsds::obs;
namespace util = lsds::util;
namespace fs = std::filesystem;

namespace {

// The CI smoke campaign: 2 points x 3 replications of the bricks facade,
// small enough that a full distributed run is a sub-second test.
const char* kCampaignIni =
    "[scenario]\n"
    "facade = bricks\n"
    "seed = 7\n"
    "queue = heap\n"
    "[bricks]\n"
    "clients = 4\n"
    "jobs_per_client = 10\n"
    "interarrival = 5s\n"
    "mean_ops = 1500\n"
    "[sweep]\n"
    "bricks.server_cores = 2,4\n"
    "[campaign]\n"
    "replications = 3\n";

util::IniConfig campaign_ini() { return util::IniConfig::parse(kCampaignIni); }

/// Canonical report of the in-process runner — the byte-identity reference.
std::string in_process_report() {
  exp::Campaign campaign(campaign_ini());
  return campaign.run().to_json_string();
}

/// A scratch directory unique to this test process, removed by the caller.
fs::path scratch_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() / ("lsds_dist_test_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

}  // namespace

// --- shard planning ----------------------------------------------------------

TEST(PlanShards, CoversGridContiguouslyWithRaggedLast) {
  const auto plan = exp::plan_shards(10, 3);
  ASSERT_EQ(plan.size(), 4u);
  std::size_t next = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].id, i);
    EXPECT_EQ(plan[i].begin, next);
    EXPECT_LT(plan[i].begin, plan[i].end);
    next = plan[i].end;
  }
  EXPECT_EQ(next, 10u);
  EXPECT_EQ(plan.back().size(), 1u);  // 10 = 3+3+3+1
}

TEST(PlanShards, EmptyGridAndOversizeShards) {
  EXPECT_TRUE(exp::plan_shards(0, 4).empty());
  const auto plan = exp::plan_shards(3, 100);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].size(), 3u);
}

TEST(PlanShards, RejectsZeroShardSize) {
  EXPECT_THROW(exp::plan_shards(5, 0), std::invalid_argument);
}

TEST(PlanShards, IndependentOfProcessCountByConstruction) {
  // The plan is a pure function of (n_runs, shard_size) — the property
  // --resume relies on when the fleet changes between runs.
  const auto a = exp::plan_shards(7, 2);
  const auto b = exp::plan_shards(7, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

// --- the partial wire protocol -----------------------------------------------

TEST(PartialProtocol, RoundTripsOutcomesBitExactly) {
  exp::Shard shard{2, 4, 6};
  std::vector<exp::RepOutcome> out(2);
  out[0].metrics = {{"makespan", 104.512345678901}, {"util", 0.3333333333333333}};
  out[1].metrics = {{"makespan", 1e-308}, {"util", 7.0}};
  out[1].rc = -1;
  out[1].error = "facade exploded";

  const obs::Json doc = exp::partial_to_json(shard, "deadbeef", out);
  // Through the printer and the parser, as it travels between processes.
  const obs::Json reparsed = obs::Json::parse(doc.dump());
  const auto back = exp::parse_partial(reparsed, shard, "deadbeef");

  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].metrics, out[0].metrics);  // bit-exact doubles
  EXPECT_EQ(back[1].metrics, out[1].metrics);
  EXPECT_EQ(back[1].rc, -1);
  EXPECT_EQ(back[1].error, "facade exploded");
}

TEST(PartialProtocol, RejectsMismatches) {
  exp::Shard shard{0, 0, 1};
  const obs::Json doc = exp::partial_to_json(shard, "sig", std::vector<exp::RepOutcome>(1));

  EXPECT_THROW(exp::parse_partial(doc, shard, "othersig"), std::runtime_error);
  exp::Shard other{0, 0, 2};
  EXPECT_THROW(exp::parse_partial(doc, other, "sig"), std::runtime_error);
  obs::Json bad_schema = obs::Json::parse(doc.dump());
  bad_schema.set("schema", obs::Json("lsds.other/9"));
  EXPECT_THROW(exp::parse_partial(bad_schema, shard, "sig"), std::runtime_error);
}

TEST(GridSignature, FingerprintsTheGrid) {
  exp::Campaign a(campaign_ini());
  exp::Campaign b(campaign_ini());
  EXPECT_EQ(exp::grid_signature(a), exp::grid_signature(b));

  auto changed = campaign_ini();
  changed.set("scenario", "seed", "8");
  exp::Campaign c(changed);
  EXPECT_NE(exp::grid_signature(a), exp::grid_signature(c));

  auto more_reps = campaign_ini();
  more_reps.set("campaign", "replications", "4");
  exp::Campaign d(more_reps);
  EXPECT_NE(exp::grid_signature(a), exp::grid_signature(d));
}

TEST(GridSignature, CoversEveryScenarioKey) {
  // Any base-scenario key steers slot outcomes, not just the campaign
  // fields — an edited workload parameter must invalidate old partials.
  exp::Campaign a(campaign_ini());
  auto edited = campaign_ini();
  edited.set("bricks", "mean_ops", "2000");
  exp::Campaign b(edited);
  EXPECT_NE(exp::grid_signature(a), exp::grid_signature(b));

  auto new_section = campaign_ini();
  new_section.set("network", "latency", "5ms");
  exp::Campaign c(new_section);
  EXPECT_NE(exp::grid_signature(a), exp::grid_signature(c));
}

TEST(GridSignature, IgnoresCampaignExecutionKeys) {
  // How and where the grid is computed must not invalidate partials:
  // --resume is allowed a different fleet, timeout or partial directory.
  exp::Campaign a(campaign_ini());
  auto other_fleet = campaign_ini();
  other_fleet.set("campaign", "distribute", "8");
  other_fleet.set("campaign", "timeout", "30s");
  other_fleet.set("campaign", "retries", "5");
  other_fleet.set("campaign", "partial_dir", "elsewhere/");
  other_fleet.set("campaign", "keep_partials", "true");
  other_fleet.set("campaign", "workers", "7");
  other_fleet.set("campaign", "timing", "true");
  exp::Campaign b(other_fleet);
  EXPECT_EQ(exp::grid_signature(a), exp::grid_signature(b));
}

TEST(GridSignature, StableAcrossTheCoordinatorWorkerIniRoundTrip) {
  // The worker recomputes the signature from the scenario.ini the
  // coordinator saved; both sides must agree or no partial ever merges.
  exp::Campaign a(campaign_ini());
  exp::Campaign b(util::IniConfig::parse(campaign_ini().dump()));
  EXPECT_EQ(exp::grid_signature(a), exp::grid_signature(b));
}

// --- DistConfig parsing ------------------------------------------------------

TEST(DistConfig, ParsesCampaignSection) {
  const auto ini = util::IniConfig::parse(
      "[campaign]\n"
      "distribute = 4\n"
      "shard_size = 2\n"
      "timeout = 30s\n"
      "retries = 1\n"
      "keep_partials = true\n");
  const auto cfg = exp::DistConfig::parse(ini);
  EXPECT_EQ(cfg.processes, 4u);
  EXPECT_EQ(cfg.shard_size, 2u);
  EXPECT_DOUBLE_EQ(cfg.timeout_sec, 30.0);
  EXPECT_EQ(cfg.retries, 1u);
  EXPECT_TRUE(cfg.keep_partials);
}

TEST(DistConfig, RejectsBadValues) {
  EXPECT_THROW(exp::DistConfig::parse(util::IniConfig::parse("[campaign]\ndistribute = -1\n")),
               util::ConfigError);
  EXPECT_THROW(exp::DistConfig::parse(util::IniConfig::parse("[campaign]\nshard_size = 0\n")),
               util::ConfigError);
  EXPECT_THROW(exp::DistConfig::parse(util::IniConfig::parse("[campaign]\nretries = -2\n")),
               util::ConfigError);
  EXPECT_THROW(exp::DistConfig::parse(util::IniConfig::parse("[campaign]\ntimeout = 0s\n")),
               util::ConfigError);
  EXPECT_THROW(exp::DistConfig::parse(
                   util::IniConfig::parse("[campaign]\nhosts = /nonexistent/hosts.txt\n")),
               util::ConfigError);

  exp::DistConfig cfg;  // processes defaults to 0 = not a distributed run
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- byte-identity of the distributed merge ----------------------------------

TEST(DistributedCampaign, TwoAndFourProcessReportsAreByteIdentical) {
  const std::string reference = in_process_report();

  for (const unsigned processes : {2u, 4u}) {
    exp::DistConfig cfg;
    cfg.processes = processes;
    exp::DistributedCampaign dist(campaign_ini(), cfg);
    const exp::CampaignResult result = dist.run();
    EXPECT_EQ(result.to_json_string(), reference)
        << "report diverged at processes=" << processes;
    ASSERT_TRUE(result.distribution.has_value());
    EXPECT_EQ(result.distribution->processes, processes);
    EXPECT_EQ(result.distribution->shards, 6u);  // 2 points x 3 reps, shard_size 1
    EXPECT_TRUE(result.distribution->failures.empty());
  }
}

TEST(DistributedCampaign, ShardSizeDoesNotChangeTheReport) {
  const std::string reference = in_process_report();
  exp::DistConfig cfg;
  cfg.processes = 2;
  cfg.shard_size = 4;  // ragged plan: 4 + 2 slots
  exp::DistributedCampaign dist(campaign_ini(), cfg);
  const exp::CampaignResult result = dist.run();
  EXPECT_EQ(result.to_json_string(), reference);
  ASSERT_TRUE(result.distribution.has_value());
  EXPECT_EQ(result.distribution->shards, 2u);
}

// --- failure recovery --------------------------------------------------------

TEST(DistributedCampaign, KilledWorkerIsReassignedAndReportConverges) {
  const std::string reference = in_process_report();
  exp::DistConfig cfg;
  cfg.processes = 2;
  cfg.kill_shard = 1;  // SIGKILL shard 1's first attempt right after spawn
  exp::DistributedCampaign dist(campaign_ini(), cfg);
  const exp::CampaignResult result = dist.run();

  EXPECT_EQ(result.to_json_string(), reference);
  ASSERT_TRUE(result.distribution.has_value());
  EXPECT_GE(result.distribution->retries_used, 1u);
  ASSERT_FALSE(result.distribution->failures.empty());
  EXPECT_EQ(result.distribution->failures[0].shard, 1u);
  EXPECT_EQ(result.distribution->failures[0].reason, "signal");
}

TEST(DistributedCampaign, HungWorkerTimesOutAndReportConverges) {
  const std::string reference = in_process_report();
  exp::DistConfig cfg;
  cfg.processes = 2;
  cfg.timeout_sec = 1.0;  // short budget so the test stays fast
  cfg.hang_shard = 0;     // first attempt of shard 0 sleeps forever
  exp::DistributedCampaign dist(campaign_ini(), cfg);
  const exp::CampaignResult result = dist.run();

  EXPECT_EQ(result.to_json_string(), reference);
  ASSERT_TRUE(result.distribution.has_value());
  ASSERT_FALSE(result.distribution->failures.empty());
  EXPECT_EQ(result.distribution->failures[0].shard, 0u);
  EXPECT_EQ(result.distribution->failures[0].reason, "timeout");
}

TEST(DistributedCampaign, ExhaustedRetriesThrowWithShardDiagnostic) {
  exp::DistConfig cfg;
  cfg.processes = 1;
  cfg.retries = 1;
  cfg.worker_binary = "/bin/false";  // every attempt exits 1
  exp::DistributedCampaign dist(campaign_ini(), cfg);
  try {
    dist.run();
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("2 attempt"), std::string::npos) << what;
  }
}

// --- resume ------------------------------------------------------------------

TEST(DistributedCampaign, ResumeFromCompletePartialDirIsByteIdentical) {
  const std::string reference = in_process_report();
  const fs::path dir = scratch_dir("resume");

  exp::DistConfig first;
  first.processes = 2;
  first.partial_dir = dir.string();
  first.keep_partials = true;
  exp::DistributedCampaign run1(campaign_ini(), first);
  EXPECT_EQ(run1.run().to_json_string(), reference);

  exp::DistConfig second = first;
  second.resume = true;
  exp::DistributedCampaign run2(campaign_ini(), second);
  const exp::CampaignResult resumed = run2.run();
  EXPECT_EQ(resumed.to_json_string(), reference);
  ASSERT_TRUE(resumed.distribution.has_value());
  EXPECT_EQ(resumed.distribution->shards_resumed, resumed.distribution->shards);

  fs::remove_all(dir);
}

TEST(DistributedCampaign, ResumeAfterScenarioEditRecomputesEverything) {
  // Editing any scenario key between a run and its --resume changes the
  // grid signature, so the old partials are stale: the resumed run must
  // recompute every shard and match a clean run of the *edited* scenario.
  const fs::path dir = scratch_dir("edited");

  exp::DistConfig first;
  first.processes = 2;
  first.partial_dir = dir.string();
  first.keep_partials = true;
  exp::DistributedCampaign run1(campaign_ini(), first);
  run1.run();

  auto edited = campaign_ini();
  edited.set("bricks", "mean_ops", "900");  // a workload key, not a campaign one
  exp::Campaign reference_campaign(edited);
  const std::string reference = reference_campaign.run().to_json_string();

  exp::DistConfig second = first;
  second.resume = true;
  exp::DistributedCampaign run2(edited, second);
  const exp::CampaignResult resumed = run2.run();
  EXPECT_EQ(resumed.to_json_string(), reference);
  ASSERT_TRUE(resumed.distribution.has_value());
  EXPECT_EQ(resumed.distribution->shards_resumed, 0u);

  fs::remove_all(dir);
}

TEST(DistributedCampaign, ResumeRecomputesStaleAndMissingPartials) {
  const std::string reference = in_process_report();
  const fs::path dir = scratch_dir("stale");

  exp::DistConfig first;
  first.processes = 2;
  first.partial_dir = dir.string();
  first.keep_partials = true;
  exp::DistributedCampaign run1(campaign_ini(), first);
  run1.run();

  // Corrupt one partial and delete another: resume must trust neither.
  const auto plan = exp::plan_shards(run1.campaign().run_count(), 1);
  {
    std::ofstream f(dir / exp::partial_filename(plan[0]), std::ios::trunc);
    f << "{\"schema\": \"lsds.campaign_partial/1\", \"signature\": \"feedface\"}";
  }
  fs::remove(dir / exp::partial_filename(plan[1]));

  exp::DistConfig second = first;
  second.resume = true;
  exp::DistributedCampaign run2(campaign_ini(), second);
  const exp::CampaignResult resumed = run2.run();
  EXPECT_EQ(resumed.to_json_string(), reference);
  ASSERT_TRUE(resumed.distribution.has_value());
  EXPECT_EQ(resumed.distribution->shards_resumed, resumed.distribution->shards - 2);

  fs::remove_all(dir);
}

TEST(DistributedCampaign, WorkersAcceptEveryCampaignKey) {
  // The coordinator ships the scenario with its [campaign] section intact,
  // so a worker must know every key it holds. Every key is set except
  // `hosts`, which needs ssh targets.
  const fs::path dir = scratch_dir("all_keys");
  auto ini = campaign_ini();
  ini.set("campaign", "warmup", "1");
  ini.set("campaign", "confidence", "0.95");
  ini.set("campaign", "workers", "2");
  ini.set("campaign", "timing", "false");
  ini.set("campaign", "distribute", "2");
  ini.set("campaign", "shard_size", "2");
  ini.set("campaign", "timeout", "60s");
  ini.set("campaign", "retries", "1");
  ini.set("campaign", "partial_dir", dir.string());
  ini.set("campaign", "keep_partials", "true");
  // As scenario_runner does: DistConfig reads its keys before the campaign
  // copies the INI.
  const exp::DistConfig cfg = exp::DistConfig::parse(ini);
  const std::string distributed = exp::DistributedCampaign(ini, cfg).run().to_json_string();
  EXPECT_EQ(distributed, exp::Campaign(ini).run().to_json_string());
  fs::remove_all(dir);
}

// --- replication failures stay deterministic ---------------------------------

TEST(DistributedCampaign, ReplicationFailureDiagnosticMatchesInProcess) {
  // A malformed unit value makes every replication fail inside the worker
  // (the facade parses its section per run); the distributed run must
  // surface the same first-slot-in-grid-order diagnostic the in-process
  // runner picks, not an arrival-order one.
  auto ini = campaign_ini();
  ini.set("bricks", "interarrival", "notaduration");

  std::string in_process_what;
  try {
    exp::Campaign campaign(ini);
    campaign.run();
    FAIL() << "expected the in-process campaign to throw";
  } catch (const std::runtime_error& e) {
    in_process_what = e.what();
  }
  EXPECT_NE(in_process_what.find("point 0 replication 0"), std::string::npos)
      << in_process_what;

  exp::DistConfig cfg;
  cfg.processes = 4;
  exp::DistributedCampaign dist(ini, cfg);
  try {
    dist.run();
    FAIL() << "expected the distributed campaign to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), in_process_what);
  }
}

// --- worker entry point ------------------------------------------------------

TEST(CampaignWorker, RejectsMissingShardFlags) {
  const char* argv[] = {"self", "--campaign-worker", "--scenario=/nonexistent.ini"};
  util::Flags flags(3, argv);
  EXPECT_EQ(exp::run_campaign_worker(flags), 3);
}

// Custom main (this target links GTest::gtest, not gtest_main): a child
// spawned by DistributedCampaign re-enters this binary with
// --campaign-worker and must become a worker, not a second test run.
int main(int argc, char** argv) {
  {
    util::Flags flags(argc, argv);
    if (flags.has("campaign-worker")) return exp::run_campaign_worker(flags);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
