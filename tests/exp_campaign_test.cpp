// Experiment campaigns: sweep expansion, substream seeding, CI aggregation,
// and the workers-independence determinism contract.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/engine.hpp"
#include "exp/campaign.hpp"
#include "exp/sweep.hpp"
#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "util/ini.hpp"

namespace exp = lsds::exp;
namespace sim = lsds::sim;
namespace util = lsds::util;

// --- sweep expansion ---------------------------------------------------------

TEST(SweepSpec, CrossProductOdometerOrder) {
  const auto ini = util::IniConfig::parse(
      "[sweep]\n"
      "net.mode = a|b\n"
      "load.jobs = 1,2,3\n");
  const auto sweep = exp::SweepSpec::parse(ini);
  ASSERT_EQ(sweep.axes().size(), 2u);
  EXPECT_EQ(sweep.axes()[0].section, "net");
  EXPECT_EQ(sweep.axes()[0].key, "mode");
  EXPECT_EQ(sweep.axes()[1].values.size(), 3u);
  EXPECT_EQ(sweep.point_count(), 6u);

  // First axis varies slowest: (a,1) (a,2) (a,3) (b,1) (b,2) (b,3).
  const auto p0 = sweep.params(0);
  EXPECT_EQ(p0[0].second, "a");
  EXPECT_EQ(p0[1].second, "1");
  const auto p2 = sweep.params(2);
  EXPECT_EQ(p2[0].second, "a");
  EXPECT_EQ(p2[1].second, "3");
  const auto p3 = sweep.params(3);
  EXPECT_EQ(p3[0].second, "b");
  EXPECT_EQ(p3[1].second, "1");
}

TEST(SweepSpec, PipeSeparatorPreservesCommaFreeValues) {
  // Rates keep their unit syntax; '|' wins over ',' when both could apply.
  const auto ini = util::IniConfig::parse("[sweep]\nmonarc.link = 2.5Gbps|30Gbps\n");
  const auto sweep = exp::SweepSpec::parse(ini);
  ASSERT_EQ(sweep.axes().size(), 1u);
  EXPECT_EQ(sweep.axes()[0].values, (std::vector<std::string>{"2.5Gbps", "30Gbps"}));
}

TEST(SweepSpec, ApplyOverwritesTargetSection) {
  const auto ini = util::IniConfig::parse("[sweep]\nbricks.clients = 2,8\n");
  const auto sweep = exp::SweepSpec::parse(ini);
  auto target = util::IniConfig::parse("[bricks]\nclients = 4\n");
  sweep.apply(1, target);
  EXPECT_EQ(target.get_int("bricks", "clients", 0), 8);
}

TEST(SweepSpec, EmptySweepIsOnePoint) {
  const auto sweep = exp::SweepSpec::parse(util::IniConfig::parse(""));
  EXPECT_TRUE(sweep.empty());
  EXPECT_EQ(sweep.point_count(), 1u);
  EXPECT_TRUE(sweep.params(0).empty());
}

TEST(SweepSpec, RejectsMalformedKeys) {
  EXPECT_THROW(exp::SweepSpec::parse(util::IniConfig::parse("[sweep]\nnodot = 1,2\n")),
               util::ConfigError);
  EXPECT_THROW(exp::SweepSpec::parse(util::IniConfig::parse("[sweep]\ntrailing. = 1,2\n")),
               util::ConfigError);
}

// --- campaign spec -----------------------------------------------------------

TEST(CampaignSpec, DefaultsAndValidation) {
  const auto spec = exp::CampaignSpec::parse(util::IniConfig::parse(""));
  EXPECT_EQ(spec.replications, 5u);
  EXPECT_EQ(spec.warmup, 0u);
  EXPECT_DOUBLE_EQ(spec.confidence, 0.95);
  EXPECT_EQ(spec.workers, 1u);
  EXPECT_FALSE(spec.timing);

  EXPECT_THROW(
      exp::CampaignSpec::parse(util::IniConfig::parse("[campaign]\nreplications = 0\n")),
      util::ConfigError);
  EXPECT_THROW(exp::CampaignSpec::parse(
                   util::IniConfig::parse("[campaign]\nreplications = 3\nwarmup = 3\n")),
               util::ConfigError);
  EXPECT_THROW(
      exp::CampaignSpec::parse(util::IniConfig::parse("[campaign]\nconfidence = 0.99\n")),
      util::ConfigError);
}

TEST(CampaignSpec, RejectsNegativeValuesBeforeTheUnsignedCast) {
  // A negative INI integer must be rejected as written, not wrap into a
  // huge std::size_t (replications = -3 once meant ~2^64 runs).
  EXPECT_THROW(
      exp::CampaignSpec::parse(util::IniConfig::parse("[campaign]\nreplications = -3\n")),
      util::ConfigError);
  EXPECT_THROW(exp::CampaignSpec::parse(util::IniConfig::parse("[campaign]\nwarmup = -1\n")),
               util::ConfigError);
  EXPECT_THROW(exp::CampaignSpec::parse(util::IniConfig::parse("[campaign]\nworkers = -2\n")),
               util::ConfigError);
  try {
    exp::CampaignSpec::parse(util::IniConfig::parse("[campaign]\nreplications = -3\n"));
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("-3"), std::string::npos) << e.what();
  }
}

// --- substream seeding -------------------------------------------------------

TEST(SubstreamSeed, DeterministicAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::size_t r = 0; r < 100; ++r) {
    const auto s = exp::substream_seed(42, r);
    EXPECT_EQ(s, exp::substream_seed(42, r));  // pure function
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 100u);                              // no collisions
  EXPECT_NE(exp::substream_seed(42, 0), exp::substream_seed(43, 0));  // base matters
}

// --- end-to-end campaigns ----------------------------------------------------

namespace {

util::IniConfig bricks_campaign(std::size_t replications, std::size_t warmup) {
  auto ini = util::IniConfig::parse(
      "[scenario]\n"
      "facade = bricks\n"
      "seed = 7\n"
      "[bricks]\n"
      "clients = 3\n"
      "jobs_per_client = 5\n"
      "[sweep]\n"
      "bricks.server_cores = 1,2\n");
  ini.set("campaign", "replications", std::to_string(replications));
  ini.set("campaign", "warmup", std::to_string(warmup));
  return ini;
}

const exp::MetricStats* find_metric(const exp::PointResult& point, const std::string& name) {
  for (const auto& [n, ms] : point.metrics) {
    if (n == name) return &ms;
  }
  return nullptr;
}

}  // namespace

TEST(Campaign, ReportIsByteIdenticalAcrossWorkerCounts) {
  // The determinism acceptance gate: workers must not leak into the output.
  exp::Campaign c1(bricks_campaign(5, 0));
  c1.set_workers(1);
  const std::string r1 = c1.run().to_json_string();

  exp::Campaign c4(bricks_campaign(5, 0));
  c4.set_workers(4);
  const std::string r4 = c4.run().to_json_string();
  EXPECT_EQ(r1, r4);

  // And across repeated runs with the same seed.
  exp::Campaign again(bricks_campaign(5, 0));
  again.set_workers(4);
  EXPECT_EQ(r4, again.run().to_json_string());
}

TEST(Campaign, AggregatesMakespanAndUtilizationWithCI) {
  exp::Campaign campaign(bricks_campaign(5, 0));
  campaign.set_workers(2);
  const auto result = campaign.run();
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.runs, 10u);
  EXPECT_EQ(result.seeds.size(), 5u);

  for (const auto& point : result.points) {
    const auto* makespan = find_metric(point, "makespan");
    const auto* util_m = find_metric(point, "server_utilization");
    ASSERT_NE(makespan, nullptr);
    ASSERT_NE(util_m, nullptr);
    EXPECT_EQ(makespan->n, 5u);
    EXPECT_GT(makespan->mean, 0.0);
    EXPECT_GE(makespan->ci95, 0.0);
    EXPECT_GE(makespan->max, makespan->min);
    EXPECT_GT(util_m->mean, 0.0);
    EXPECT_LE(util_m->mean, 1.0);
  }
  // Substream seeds differ, so replications genuinely vary: a scalar that
  // depends on the RNG should have a non-degenerate spread.
  const auto* resp = find_metric(result.points[0], "mean_response_s");
  ASSERT_NE(resp, nullptr);
  EXPECT_GT(resp->stddev, 0.0);
  EXPECT_GT(resp->ci95, 0.0);
}

TEST(Campaign, WarmupDeletionShrinksSampleCount) {
  exp::Campaign campaign(bricks_campaign(6, 2));
  const auto result = campaign.run();
  const auto* makespan = find_metric(result.points[0], "makespan");
  ASSERT_NE(makespan, nullptr);
  EXPECT_EQ(makespan->n, 4u);  // 6 replications - 2 warmup
  EXPECT_EQ(result.runs, 12u);  // warmup replications still executed
}

TEST(Campaign, SecondFacadeMonarcSweepsTheLink) {
  // Campaigns are facade-agnostic: the MONARC data grid aggregates through
  // the same path, and common random numbers pair the two link points.
  auto ini = util::IniConfig::parse(
      "[scenario]\n"
      "facade = monarc\n"
      "seed = 2005\n"
      "queue = calendar\n"
      "[monarc]\n"
      "t1 = 2\n"
      "files = 8\n"
      "file_size = 2GB\n"
      "interval = 10s\n"
      "[sweep]\n"
      "monarc.link = 2.5Gbps|30Gbps\n"
      "[campaign]\n"
      "replications = 5\n"
      "workers = 2\n");
  exp::Campaign campaign(ini);
  const auto result = campaign.run();
  ASSERT_EQ(result.points.size(), 2u);
  EXPECT_EQ(result.points[0].params[0].first, "monarc.link");

  const auto* slow = find_metric(result.points[0], "makespan");
  const auto* fast = find_metric(result.points[1], "makespan");
  const auto* lutil = find_metric(result.points[0], "link_utilization");
  ASSERT_NE(slow, nullptr);
  ASSERT_NE(fast, nullptr);
  ASSERT_NE(lutil, nullptr);
  EXPECT_EQ(slow->n, 5u);
  // 12x the bandwidth cannot make the campaign slower.
  EXPECT_LE(fast->mean, slow->mean + 1e-9);
  EXPECT_GT(lutil->mean, 0.0);
}

TEST(Campaign, UnknownFacadeThrows) {
  const auto ini = util::IniConfig::parse("[scenario]\nfacade = nosuch\n");
  EXPECT_THROW(exp::Campaign{ini}, util::ConfigError);
}

// --- key validation of the campaign sections --------------------------------

namespace {

/// The campaign's diagnostic, or "" when every replication succeeded.
std::string campaign_error(const std::string& text) {
  try {
    exp::Campaign campaign(util::IniConfig::parse(text));
    campaign.run();
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

}  // namespace

TEST(CampaignStrict, SweepKeysValidateAgainstFacadeDeclarations) {
  EXPECT_EQ(campaign_error("[scenario]\nfacade = bricks\n"
                           "[sweep]\nbricks.clients = 2,4\n"
                           "[campaign]\nreplications = 3\n"),
            "");

  // A typo'd sweep target is a key the facade never reads in the point INI.
  const std::string typo =
      campaign_error("[scenario]\nfacade = bricks\n[sweep]\nbricks.clyents = 2,4\n");
  EXPECT_NE(typo.find("[bricks] clyents: unknown key — did you mean 'clients'?"),
            std::string::npos)
      << typo;

  // Seeds and queue belong to the campaign, not to the grid.
  EXPECT_THROW(exp::Campaign{util::IniConfig::parse(
                   "[scenario]\nfacade = bricks\n[sweep]\nscenario.seed = 1,2\n")},
               util::ConfigError);

  const std::string bad_campaign_key =
      campaign_error("[scenario]\nfacade = bricks\n[campaign]\nreplicas = 3\n");
  EXPECT_NE(bad_campaign_key.find("[campaign] replicas: unknown key"), std::string::npos)
      << bad_campaign_key;

  // Campaign mode never reads [observability].
  const std::string observed =
      campaign_error("[scenario]\nfacade = bricks\n[observability]\nenabled = true\n");
  EXPECT_NE(observed.find("[observability]: unknown section"), std::string::npos) << observed;
}

TEST(Campaign, ParallelModeReplicationsRunTheirOwnSubstream) {
  // [execution] mode = parallel builds its own engines from a seed; each
  // replication must take its substream seed, not the [scenario] one.
  const std::string scenario =
      "[gridsim]\njobs = 40\nstrategy = time\n"
      "[execution]\nmode = parallel\nthreads = 2\npartition = round-robin\n";
  exp::Campaign campaign(util::IniConfig::parse(
      "[scenario]\nfacade = gridsim\nseed = 7\n" + scenario + "[campaign]\nreplications = 3\n"));
  const auto outcomes = campaign.run_slots(0, campaign.run_count(), 1);

  const auto* entry = sim::FacadeRegistry::global().find("gridsim");
  ASSERT_NE(entry, nullptr);
  std::set<double> makespans;
  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    ASSERT_EQ(outcomes[r].rc, 0) << outcomes[r].error;
    // The standalone run scenario_runner makes at that seed.
    const std::uint64_t seed = exp::substream_seed(7, r);
    const auto ini = util::IniConfig::parse("[scenario]\nfacade = gridsim\nseed = " +
                                            std::to_string(seed) + "\n" + scenario);
    const auto study = entry->parse(ini);
    lsds::core::Engine::Config ecfg;
    ecfg.seed = seed;
    lsds::core::Engine engine(ecfg);
    lsds::obs::RunReport report;
    ASSERT_EQ(study(engine, report), 0);
    const double standalone = report.result()["makespan"].as_double();

    double replicated = -1;
    for (const auto& [name, value] : outcomes[r].metrics) {
      if (name == "makespan") replicated = value;
    }
    EXPECT_EQ(replicated, standalone) << "replication " << r;
    makespans.insert(replicated);
  }
  EXPECT_GT(makespans.size(), 1u) << "every replication ran the same seed";
}
