// FacadeRegistry: name -> runnable-study dispatch, duplicate rejection, and
// INI key validation (the facade's reads are its key list) with near-miss
// suggestions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/hash.hpp"
#include "exp/campaign.hpp"
#include "exp/dist_campaign.hpp"
#include "obs/observability.hpp"
#include "obs/report.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "util/ini.hpp"

namespace {

using namespace lsds;

TEST(FacadeRegistry, AllBuiltinsResolve) {
  sim::register_builtin_facades();
  const auto& reg = sim::FacadeRegistry::global();
  EXPECT_EQ(reg.size(), 10u);
  for (const char* name : {"bricks", "optorsim", "monarc", "gridsim", "chicsim", "simg", "chaos",
                           "explore", "platform", "p2p"}) {
    const auto* entry = reg.find(name);
    ASSERT_NE(entry, nullptr) << name;
    EXPECT_EQ(entry->name, name);
    EXPECT_TRUE(static_cast<bool>(entry->parse)) << name;
  }
}

TEST(FacadeRegistry, RegisterBuiltinsIsIdempotent) {
  sim::register_builtin_facades();
  sim::register_builtin_facades();
  EXPECT_EQ(sim::FacadeRegistry::global().size(), 10u);
}

TEST(FacadeRegistry, NamesAreSorted) {
  sim::register_builtin_facades();
  const auto names = sim::FacadeRegistry::global().names();
  ASSERT_EQ(names.size(), 10u);
  for (std::size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(FacadeRegistry, UnknownNameReturnsNull) {
  sim::register_builtin_facades();
  EXPECT_EQ(sim::FacadeRegistry::global().find("nope"), nullptr);
}

TEST(FacadeRegistry, DuplicateRegistrationThrows) {
  sim::FacadeRegistry reg;  // fresh, not the global one
  sim::register_simg_facade(reg);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_THROW(sim::register_simg_facade(reg), std::invalid_argument);
}

// --- key validation: the parser's reads are the key list --------------------

sim::FacadeRegistry::Entry demo_entry() {
  return {"demo", [](const util::IniConfig& ini) -> sim::FacadeRegistry::Study {
            ini.get_count("demo", "hosts", 1);
            ini.get_count("demo", "jobs", 1);
            ini.get_double("demo", "mean_ops", 1);
            return [](core::Engine&, obs::RunReport&) { return 0; };
          }};
}

/// What scenario_runner does before a single run: its own [scenario] and
/// [observability] reads, the facade's parse, then the unread-key check.
void parse_single_run(const util::IniConfig& ini, const sim::FacadeRegistry::Entry& entry) {
  ini.get_string("scenario", "facade", "");
  ini.get_count("scenario", "seed", 42);
  ini.get_string("scenario", "queue", "heap");
  obs::parse_options(ini);
  entry.parse(ini);
  ini.reject_unread();
}

TEST(StrictKeys, AcceptsDeclaredAndRunnerKeys) {
  const auto ini = util::IniConfig::parse(
      "[scenario]\nfacade = demo\nseed = 1\n"
      "[observability]\nenabled = true\n"
      "[demo]\nhosts = 4\njobs = 10\n");
  EXPECT_NO_THROW(parse_single_run(ini, demo_entry()));

  // The old opt-in is now an unknown key like any other.
  const auto leftover = util::IniConfig::parse("[scenario]\nfacade = demo\nstrict = true\n");
  EXPECT_THROW(parse_single_run(leftover, demo_entry()), util::ConfigError);
}

TEST(StrictKeys, UnknownKeySuggestsNearMiss) {
  const auto ini = util::IniConfig::parse("[demo]\nhots = 4\n");
  try {
    parse_single_run(ini, demo_entry());
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("hots"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean 'hosts'"), std::string::npos) << msg;
  }
}

TEST(StrictKeys, UnknownSectionRejected) {
  const auto ini = util::IniConfig::parse("[demos]\nhosts = 4\n");
  try {
    parse_single_run(ini, demo_entry());
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("[demos]: unknown section"), std::string::npos) << msg;
    EXPECT_NE(msg.find("did you mean [demo]"), std::string::npos) << msg;
  }
}

TEST(StrictKeys, FarTypoGetsNoSuggestion) {
  const auto ini = util::IniConfig::parse("[demo]\nzzzzzzzz = 4\n");
  try {
    parse_single_run(ini, demo_entry());
    FAIL() << "expected ConfigError";
  } catch (const util::ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("zzzzzzzz"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("did you mean"), std::string::npos) << msg;
  }
}

/// The shipped `examples/scenarios/*.ini` files, sorted.
std::vector<std::filesystem::path> shipped_scenarios() {
  std::vector<std::filesystem::path> files;
  for (const auto& f : std::filesystem::directory_iterator(LSDS_SCENARIO_DIR)) {
    if (f.path().extension() == ".ini") files.push_back(f.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// True for a campaign or sweep scenario, false for a single run.
bool is_campaign(const util::IniConfig& ini) {
  const auto sections = ini.sections();
  return std::find(sections.begin(), sections.end(), "campaign") != sections.end() ||
         std::find(sections.begin(), sections.end(), "sweep") != sections.end();
}

// Every scenario users copy must pass the always-on check, campaign points
// included, without running any study.
TEST(StrictKeys, EveryShippedScenarioParses) {
  sim::register_builtin_facades();
  const auto files = shipped_scenarios();
  ASSERT_EQ(files.size(), 15u);
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const auto ini = util::IniConfig::load(path.string());
    const auto* entry =
        sim::FacadeRegistry::global().find(ini.get_string("scenario", "facade", ""));
    ASSERT_NE(entry, nullptr);
    if (!is_campaign(ini)) {
      EXPECT_NO_THROW(parse_single_run(ini, *entry));
      continue;
    }
    // The runner's campaign reads, then what Campaign::run_slots does per
    // slot before it runs the study.
    exp::DistConfig::parse(ini);
    const exp::Campaign c(ini);
    for (std::size_t p = 0; p < c.point_count(); ++p) {
      util::IniConfig point = c.base();
      c.sweep().apply(p, point);
      entry->parse(point);
      EXPECT_NO_THROW(point.reject_unread()) << "point " << p;
    }
  }
}

// The event-queue structure is a performance knob, never a results knob:
// every shipped single-run scenario reports the same result bytes under all
// five queue kinds. Campaign and distributed scenarios have their own ctests.
//
// Each result is also pinned by the FNV-1a digest of its dump, so a model
// change shows even when every queue kind agrees. A refactor keeps every
// digest; re-record one only at a parent commit, and say why in CHANGES.md.

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Runs `base` as scenario_runner would under all five queue kinds, expects
/// one `result` section from all of them, and returns that section's digest.
std::string queue_invariant_result_digest(const util::IniConfig& base) {
  std::string want;
  for (const char* queue : {"heap", "sorted", "splay", "calendar", "ladder"}) {
    SCOPED_TRACE(queue);
    util::IniConfig ini = base;
    ini.set("scenario", "queue", queue);
    const auto* entry =
        sim::FacadeRegistry::global().find(ini.get_string("scenario", "facade", ""));
    if (entry == nullptr) {
      ADD_FAILURE() << "unknown facade";
      return "";
    }
    core::Engine::Config ecfg;
    ecfg.seed = ini.get_count("scenario", "seed", 42);
    ecfg.queue = sim::facades::parse_queue(ini.get_string("scenario", "queue", "heap"));
    obs::parse_options(ini);  // read, not applied: no report file is written
    const auto study = entry->parse(ini);
    ini.reject_unread();
    core::Engine engine(ecfg);
    obs::RunReport report;
    EXPECT_EQ(study(engine, report), 0);
    std::string got = report.result().dump(0);
    // A parallel run's result does not read its storage timings, so its
    // event and cross-LP message counts are pinned with it.
    if (const obs::Json* ex = report.root().find("execution")) {
      got += ex->find("events")->dump(0) + ex->find("cross_messages")->dump(0);
    }
    if (want.empty()) {
      want = got;
      EXPECT_GT(want.size(), 2u);  // not an empty object
    } else {
      EXPECT_EQ(got, want);
    }
  }
  return hex64(core::StateHash().mix(std::string_view(want)).value());
}

TEST(ShippedScenarios, ResultIsQueueInvariant) {
  const std::map<std::string, std::string> pinned = {
      {"chaos_bag.ini", "9b1542b0076c8d1c"},
      {"datagrid_economic.ini", "75144a0f3e0b7f35"},
      {"economy_parallel.ini", "299fa963c53ea419"},
      {"economy_tight_budget.ini", "c21040dce17f8a1e"},
      {"explore_fault_choice.ini", "e062cb83a2f04e81"},
      {"explore_recovery.ini", "c70bec0f86a60e21"},
      {"lhc_2.5gbps.ini", "fd82fa22e4b2b055"},
      {"lhc_30gbps.ini", "68100fa80c086a1c"},
      {"lhc_parallel.ini", "1b58fb3ab5be656d"},
      // peak_pending, an event-queue depth, fell from 4067 to 4063 when a
      // maintenance round of an announced peer became one event; every
      // model result of the run stayed the same.
      {"p2p_churn.ini", "716b93dc5f16f4b6"},
      {"platform_fattree.ini", "f7f2172ae9a0d35b"},
  };
  sim::register_builtin_facades();
  std::size_t ran = 0;
  for (const auto& path : shipped_scenarios()) {
    const std::string name = path.filename().string();
    SCOPED_TRACE(name);
    const auto base = util::IniConfig::load(path.string());
    if (is_campaign(base)) continue;
    const std::string digest = queue_invariant_result_digest(base);
    const auto it = pinned.find(name);
    EXPECT_EQ(digest, it == pinned.end() ? std::string("(none pinned)") : it->second);
    ++ran;
  }
  EXPECT_EQ(ran, 11u);
}

// The max-min storage path no shipped single-run scenario takes: the serial
// study with T2 centers and the tape archive. The parallel tier model does
// not model max-min storage, so it refuses it.
TEST(ShippedScenarios, MaxMinStorageVariantsArePinned) {
  sim::register_builtin_facades();
  const std::filesystem::path dir(LSDS_SCENARIO_DIR);
  auto serial = util::IniConfig::load((dir / "lhc_2.5gbps.ini").string());
  serial.set("storage", "sharing", "maxmin");
  serial.set("monarc", "archive", "true");
  serial.set("monarc", "t2_per_t1", "2");
  EXPECT_EQ(queue_invariant_result_digest(serial), "ff0e96e74671b605");
  auto parallel = util::IniConfig::load((dir / "lhc_parallel.ini").string());
  parallel.set("storage", "sharing", "maxmin");
  try {
    sim::FacadeRegistry::global().find("monarc")->parse(parallel);
    FAIL() << "parallel max-min storage accepted";
  } catch (const util::ConfigError& e) {
    EXPECT_STREQ(e.what(),
                 "[execution] mode = parallel cannot model [storage] sharing = maxmin "
                 "(use mode = serial)");
  }
}

// --- no silent enum fallbacks -------------------------------------------------

void expect_rejected(const char* facade, const std::string& text, const char* accepted) {
  sim::register_builtin_facades();
  const auto* entry = sim::FacadeRegistry::global().find(facade);
  ASSERT_NE(entry, nullptr);
  try {
    entry->parse(util::IniConfig::parse(text));
    FAIL() << "accepted: " << text;
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(accepted), std::string::npos) << e.what();
  }
}

TEST(FacadeRegistry, GridsimUnknownStrategyIsRejected) {
  expect_rejected("gridsim", "[gridsim]\nstrategy = tiem\n", "tiem (cost|time)");
}

TEST(FacadeRegistry, SimgUnknownModeIsRejected) {
  expect_rejected("simg", "[simg]\nmode = compiletime\n", "compiletime (runtime|compile-time)");
}

TEST(FacadeRegistry, ParallelMonarcRefusesWhatTheTierModelCannotModel) {
  const std::string parallel = "[execution]\nmode = parallel\n";
  expect_rejected("monarc", parallel + "[failures]\nmtbf = 100\n",
                  "[execution] mode = parallel cannot model [failures] (use mode = serial)");
  expect_rejected("monarc", parallel + "[storage]\nsharing = maxmin\n[failures]\nmtbf = 100\n",
                  "cannot model [storage] sharing = maxmin or [failures] (use mode = serial)");
}

TEST(FacadeRanges, OutOfRangeNumbersAreRejected) {
  sim::register_builtin_facades();
  const struct {
    const char* facade;
    const char* text;
    const char* message;
  } cases[] = {
      {"optorsim", "[optorsim]\ncache_fraction = 1.5\n",
       "[optorsim] cache_fraction must be in [0, 1] (got 1.5)"},
      {"simg", "[simg]\nestimate_error = -0.1\n",
       "[simg] estimate_error must be in [0, 1] (got -0.1)"},
      {"gridsim", "[gridsim]\nbudget = -1\n", "[gridsim] budget must be finite and >= 0 (got -1)"},
      {"chaos", "[failures]\ncheckpoint_interval_ops = -5\n",
       "[failures] checkpoint_interval_ops must be finite and >= 0 (got -5)"},
      {"explore", "[explore]\ncheckpoint_overhead_ops = nan\n",
       "[explore] checkpoint_overhead_ops must be finite and >= 0 (got nan)"},
      {"monarc", "[failures]\nmtbf = 100\nweibull_shape = -1\n",
       "[failures] weibull_shape must be finite and >= 0 (got -1)"},
      {"p2p", "[p2p]\nbandwidth = 0\n", "[p2p] bandwidth must be > 0 (got 0)"},
      {"p2p", "[p2p]\nbackbone_latency = -1\n",
       "[p2p] backbone_latency must be finite and >= 0 (got -1)"},
      {"p2p", "[p2p]\nlookup_rate = inf\n", "[p2p] lookup_rate must be finite (got inf)"},
      {"chicsim", "[chicsim]\nzipf = 0\n", "[chicsim] zipf must be > 0 (got 0)"},
      {"optorsim", "[optorsim]\nzipf = -1\n", "[optorsim] zipf must be > 0 (got -1)"},
      {"platform", "[platform]\nzone = star\nbandwidth = -1e9\n",
       "[platform] bandwidth must be > 0 (got -1e+09)"},
      {"platform", "[platform]\nzone = cluster\nbackbone_bandwidth = 0\n",
       "[platform] backbone_bandwidth must be > 0 (got 0)"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    expect_rejected(c.facade, c.text, c.message);
  }
  // weibull_shape = 0 still means exponential failures.
  EXPECT_NO_THROW(sim::FacadeRegistry::global().find("monarc")->parse(
      util::IniConfig::parse("[failures]\nmtbf = 100\nweibull_shape = 0\n")));
}

// The typed getters are the facades' only number readers: a raw
// ini.get_double in a facade is a value nothing range-checks.
TEST(FacadeRanges, OnlyCommonCppCallsGetDouble) {
  namespace fs = std::filesystem;
  std::size_t scanned = 0;
  for (const auto& entry : fs::directory_iterator(LSDS_FACADE_SRC_DIR)) {
    if (entry.path().extension() != ".cpp") continue;
    std::ifstream in(entry.path());
    const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const bool calls = text.find("get_double(") != std::string::npos;
    if (entry.path().filename() == "common.cpp") {
      EXPECT_TRUE(calls) << "the typed getters moved out of common.cpp; update this scan";
    } else {
      EXPECT_FALSE(calls) << entry.path().filename() << " reads a number with the unchecked "
                          << "get_double; use get_positive, get_non_negative or get_probability";
    }
    ++scanned;
  }
  EXPECT_GE(scanned, 11u);
}

}  // namespace
