// Registry adapter for the explore facade: exhaustive event-ordering
// verification of the recovery layer. `[explore]` shapes the scenario
// (hosts/jobs/fault) and the exploration (depth/state caps, pruning,
// invariant list); `[scenario]` supplies queue + seed as everywhere else.
// Exit code 0 = every policy verified, 1 = a counterexample was found.
#include <cstdio>

#include "mc/invariants.hpp"
#include "sim/explore/explore.hpp"
#include "sim/facade_registry.hpp"
#include "sim/facades/common.hpp"
#include "util/strings.hpp"

namespace lsds::sim {

namespace {

std::vector<double> parse_double_list(const std::string& raw, const char* what) {
  std::vector<double> out;
  for (const std::string& part : util::split(raw, ',')) {
    const std::string item{util::trim(part)};
    if (item.empty()) continue;
    try {
      out.push_back(std::stod(item));
    } catch (const std::exception&) {
      throw util::ConfigError(std::string(what) + ": '" + item + "' is not a number");
    }
  }
  return out;
}

FacadeRegistry::Study parse_explore(const util::IniConfig& ini) {
  explore::Config cfg;
  // The explorer builds a fresh engine per interleaving; mirror the
  // runner's [scenario] knobs instead of using `eng` (see explore.hpp).
  cfg.engine.queue = facades::parse_queue(ini.get_string("scenario", "queue", "heap"));

  auto& scn = cfg.scenario;
  scn.hosts = ini.get_count("explore", "hosts", 2);
  scn.speed = facades::get_positive(ini, "explore", "speed", 1);
  if (const std::string ops = ini.get_string("explore", "job_ops", ""); !ops.empty()) {
    scn.job_ops = parse_double_list(ops, "explore.job_ops");
  }
  facades::parse_enum("heuristic", ini.get_string("explore", "heuristic", "fifo"),
                      middleware::kAllHeuristics, scn.heuristic);
  scn.fault_time = ini.get_duration("explore", "fault_time", scn.fault_time);
  scn.repair_after = ini.get_duration("explore", "repair_after", scn.repair_after);
  const auto choices =
      parse_double_list(ini.get_string("explore", "fault_choices", ""), "explore.fault_choices");
  if (ini.get_bool("explore", "fault_choice", false)) {
    if (choices.empty()) {
      throw util::ConfigError("explore.fault_choice = true needs a fault_choices list");
    }
    scn.fault_choices = choices;
  } else if (!choices.empty()) {
    scn.fault_time = choices.front();  // default order: the first candidate fires
  }

  auto& rec = scn.recovery;
  rec.backoff_base = ini.get_duration("explore", "backoff", rec.backoff_base);
  rec.blacklist_duration = ini.get_duration("explore", "blacklist", rec.blacklist_duration);
  rec.checkpoint_interval_ops =
      ini.get_double("explore", "checkpoint_interval_ops", rec.checkpoint_interval_ops);
  rec.checkpoint_overhead_ops =
      ini.get_double("explore", "checkpoint_overhead_ops", rec.checkpoint_overhead_ops);
  rec.replicas = ini.get_count("explore", "replicas", rec.replicas);
  rec.max_attempts = ini.get_count("explore", "max_attempts", rec.max_attempts);

  if (const std::string p = ini.get_string("explore", "policy", "all"); p != "all") {
    middleware::RecoveryPolicyKind policy{};
    try {
      facades::parse_enum("recovery policy", p, middleware::kAllRecoveryPolicies, policy);
    } catch (const util::ConfigError&) {
      throw util::ConfigError("unknown recovery policy: " + p +
                              " (retry|resubmit|checkpoint|replicate|all)");
    }
    cfg.policies = {policy};
  }

  if (const std::string inv = ini.get_string("explore", "invariants", ""); !inv.empty()) {
    cfg.invariants.clear();
    for (const std::string& part : util::split(inv, ',')) {
      const std::string name{util::trim(part)};
      if (!name.empty()) cfg.invariants.push_back(name);  // validated by add_builtin
    }
  }

  auto& mc = cfg.explore;
  mc.max_depth = ini.get_count("explore", "max_depth", 0);
  mc.max_states = ini.get_count("explore", "max_states", mc.max_states);
  mc.step_budget = ini.get_count("explore", "step_budget", mc.step_budget);
  mc.sleep_sets = ini.get_bool("explore", "sleep_sets", mc.sleep_sets);
  mc.hash_pruning = ini.get_bool("explore", "hash_pruning", mc.hash_pruning);
  mc.stop_at_first = ini.get_bool("explore", "stop_at_first", mc.stop_at_first);

  return [cfg](core::Engine& eng, obs::RunReport& report) {
    explore::Config seeded = cfg;
    seeded.engine.seed = eng.seed();
    const auto res = explore::run(seeded);
    res.to_report(report, seeded);
    std::printf("explore: %zu polic%s checked — %s\n", res.policies.size(),
                res.policies.size() == 1 ? "y" : "ies", res.ok() ? "all verified" : "VIOLATIONS");
    return res.ok() ? 0 : 1;
  };
}

}  // namespace

void register_explore_facade(FacadeRegistry& reg) { reg.add({"explore", parse_explore}); }

}  // namespace lsds::sim
