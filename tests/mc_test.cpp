// Exhaustive event-ordering exploration: the recovery layer is verified
// over every interleaving of simultaneous events; a deliberately broken
// recovery policy yields a minimized, replayable counterexample.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/event_queue.hpp"
#include "core/hash.hpp"
#include "hosts/cpu.hpp"
#include "mc/explorer.hpp"
#include "mc/invariants.hpp"
#include "mc/recovery_model.hpp"
#include "middleware/recovery.hpp"

namespace core = lsds::core;
namespace hosts = lsds::hosts;
namespace mw = lsds::middleware;
namespace mc = lsds::mc;

namespace {

mc::Invariants all_builtins() {
  mc::Invariants inv;
  for (const auto& name : mc::Invariants::builtin_names()) inv.add_builtin(name);
  return inv;
}

mc::RecoveryScenario contended_scenario(mw::RecoveryPolicyKind policy) {
  mc::RecoveryScenario s;  // 2 hosts, 3 equal jobs, crash at the completion tie
  s.recovery.policy = policy;
  s.recovery.backoff_base = 1.0;  // re-dispatch ties with the repair
  return s;
}

// --- invariant registry ---------------------------------------------------

TEST(Invariants, BuiltinNamesAndUnknownRejection) {
  const auto& names = mc::Invariants::builtin_names();
  ASSERT_EQ(names.size(), 3u);
  mc::Invariants inv;
  for (const auto& n : names) EXPECT_NO_THROW(inv.add_builtin(n));
  EXPECT_EQ(inv.size(), 3u);
  EXPECT_THROW(inv.add_builtin("no-such-invariant"), std::invalid_argument);
}

TEST(Invariants, CustomCheckReportsFirstFailure) {
  mc::Invariants inv;
  inv.add("always-ok", [](const mc::CheckContext&) { return std::string(); });
  inv.add("always-bad", [](const mc::CheckContext&) { return std::string("broken"); });
  mc::CheckContext ctx;
  const auto r = inv.check(ctx);
  EXPECT_EQ(r.index, 1u);
  EXPECT_EQ(r.message, "broken");
  EXPECT_EQ(inv.name(r.index), "always-bad");
}

TEST(Invariants, AllPassingReturnsSize) {
  mc::Invariants inv;
  inv.add("ok", [](const mc::CheckContext&) { return std::string(); });
  mc::CheckContext ctx;
  EXPECT_EQ(inv.check(ctx).index, inv.size());
  EXPECT_TRUE(inv.check(ctx).message.empty());
}

TEST(Invariants, BuiltinsPassVacuouslyWithoutScheduler) {
  mc::Invariants inv = all_builtins();
  mc::CheckContext ctx;  // scheduler == nullptr
  ctx.terminal = true;
  EXPECT_EQ(inv.check(ctx).index, inv.size());
}

// --- the shipped recovery scenario, all four policies ---------------------

TEST(Explorer, VerifiesAllFourRecoveryPolicies) {
  for (const auto policy : mw::kAllRecoveryPolicies) {
    const auto s = contended_scenario(policy);
    mc::Explorer ex(mc::RecoveryModel::factory(s), core::Engine::Config{}, all_builtins(),
                    mc::ExploreConfig{});
    const auto res = ex.run();
    SCOPED_TRACE(mw::to_string(policy));
    EXPECT_TRUE(res.ok()) << (res.violations.empty() ? "" : res.violations[0].message);
    EXPECT_TRUE(res.complete);
    // The whole point: more than one ordering of the tied events exists and
    // every one of them was driven through the invariants.
    EXPECT_GT(res.executions, 1u);
    EXPECT_GE(res.choice_points, 1u);
    EXPECT_GE(res.max_depth_seen, 1u);
  }
}

TEST(Explorer, SimultaneousCrashAndRepairAtOneTimestamp) {
  // repair_after = 0: the crash and the repair land at the same instant —
  // the double-start guard must hold in both orders, for every policy.
  for (const auto policy : mw::kAllRecoveryPolicies) {
    auto s = contended_scenario(policy);
    s.repair_after = 0.0;
    mc::Explorer ex(mc::RecoveryModel::factory(s), core::Engine::Config{}, all_builtins(),
                    mc::ExploreConfig{});
    const auto res = ex.run();
    SCOPED_TRACE(mw::to_string(policy));
    EXPECT_TRUE(res.ok()) << (res.violations.empty() ? "" : res.violations[0].message);
    EXPECT_TRUE(res.complete);
    EXPECT_GT(res.executions, 1u);
  }
}

TEST(Explorer, FaultTimingChoicesWidenTheTree) {
  auto fixed = contended_scenario(mw::RecoveryPolicyKind::kRetry);
  mc::Explorer ex_fixed(mc::RecoveryModel::factory(fixed), core::Engine::Config{}, all_builtins(),
                        mc::ExploreConfig{});
  const auto res_fixed = ex_fixed.run();

  auto chosen = contended_scenario(mw::RecoveryPolicyKind::kRetry);
  chosen.fault_choices = {2.0, 4.0, 8.0};
  mc::Explorer ex_chosen(mc::RecoveryModel::factory(chosen), core::Engine::Config{},
                         all_builtins(), mc::ExploreConfig{});
  const auto res_chosen = ex_chosen.run();

  EXPECT_TRUE(res_fixed.ok());
  EXPECT_TRUE(res_chosen.ok());
  EXPECT_TRUE(res_chosen.complete);
  // When the crash lands is one more explored dimension.
  EXPECT_GT(res_chosen.executions, res_fixed.executions);
}

TEST(Explorer, DepthCapReportedAndStillSound) {
  auto s = contended_scenario(mw::RecoveryPolicyKind::kRetry);
  mc::ExploreConfig ec;
  ec.max_depth = 1;
  mc::Explorer ex(mc::RecoveryModel::factory(s), core::Engine::Config{}, all_builtins(), ec);
  const auto res = ex.run();
  EXPECT_TRUE(res.ok());
  EXPECT_TRUE(res.depth_capped);
  EXPECT_FALSE(res.complete);  // capped exploration must not claim exhaustiveness
}

TEST(Explorer, StateCapReported) {
  auto s = contended_scenario(mw::RecoveryPolicyKind::kRetry);
  mc::ExploreConfig ec;
  ec.max_states = 1;
  mc::Explorer ex(mc::RecoveryModel::factory(s), core::Engine::Config{}, all_builtins(), ec);
  const auto res = ex.run();
  EXPECT_TRUE(res.state_capped);
  EXPECT_FALSE(res.complete);
}

// --- a deliberately broken recovery policy --------------------------------

// One host, one job, one crash. The killed-handler retry is careful (it
// checks the host is back before re-dispatching) but the online observer
// is not: on repair it re-dispatches whenever the job is unfinished,
// without checking for an in-flight copy. The retry and the repair tie at
// t = 3; in the default order the retry runs first, finds the host still
// down, and stands down — the bug is invisible. The explorer finds the
// other order: repair dispatches a copy, then the retry sees the host
// online and dispatches a second one.
class BrokenRecoveryModel : public mc::Model {
 public:
  explicit BrokenRecoveryModel(core::Engine& eng) : eng_(eng) {
    cpu_ = std::make_unique<hosts::CpuResource>(eng_, "c0", 1, 1.0,
                                                hosts::SharingPolicy::kSpaceShared);
    cpu_->set_failure_semantics(core::FailureSemantics::kFailStop);
    cpu_->set_killed_handler([this](hosts::JobId, double) {
      eng_.schedule_in(1.0, [this] {
        if (!finished_ && cpu_->online()) dispatch();
      });
    });
    cpu_->set_online_observer([this](bool up) {
      if (up && !finished_) dispatch();  // the bug: no in-flight check
    });
    eng_.schedule_at(0.0, [this] { dispatch(); });
    eng_.schedule_at(2.0, [this] {
      cpu_->set_online(false);  // kill fires first: the retry gets the lower seq
      eng_.schedule_in(1.0, [this] { cpu_->set_online(true); });
    });
  }

  void hash_state(core::StateHash& h) const override {
    h.mix(static_cast<std::uint64_t>(finished_));
    cpu_->state_digest(h);
  }

  mc::CheckContext context(bool terminal) override {
    mc::CheckContext ctx;
    ctx.engine = &eng_;
    ctx.cpus = {cpu_.get()};
    ctx.num_jobs = 1;
    ctx.terminal = terminal;
    return ctx;
  }

 private:
  void dispatch() {
    cpu_->submit(1, 4.0, [this](hosts::JobId) { finished_ = true; });
  }

  core::Engine& eng_;
  std::unique_ptr<hosts::CpuResource> cpu_;
  bool finished_ = false;
};

mc::ModelFactory broken_factory() {
  return [](core::Engine& eng) -> std::unique_ptr<mc::Model> {
    return std::make_unique<BrokenRecoveryModel>(eng);
  };
}

mc::Invariants single_copy_invariant() {
  mc::Invariants inv;
  inv.add("single-copy", [](const mc::CheckContext& ctx) -> std::string {
    std::size_t copies = 0;
    for (const auto* cpu : ctx.cpus) copies += cpu->running() + cpu->queued();
    if (copies <= 1) return "";
    return "the one job has " + std::to_string(copies) + " live copies";
  });
  return inv;
}

TEST(Explorer, BrokenPolicyYieldsMinimizedReplayableCounterexample) {
  mc::Explorer ex(broken_factory(), core::Engine::Config{}, single_copy_invariant(),
                  mc::ExploreConfig{});
  const auto res = ex.run();
  ASSERT_FALSE(res.ok());
  ASSERT_EQ(res.violations.size(), 1u);
  const mc::Violation& v = res.violations[0];
  EXPECT_EQ(v.invariant, "single-copy");
  EXPECT_DOUBLE_EQ(v.time, 3.0);  // the retry/repair tie
  EXPECT_GT(v.execution, 1u);     // the default order is clean

  // Minimization: exactly one non-default decision survives.
  ASSERT_EQ(v.schedule.size(), 1u);
  EXPECT_NE(v.schedule[0], 0u);
  ASSERT_FALSE(v.trace.empty());

  // The counterexample replays: same violation, byte-identical trace.
  const auto replay = mc::replay_schedule(broken_factory(), core::Engine::Config{},
                                          single_copy_invariant(), v.schedule);
  EXPECT_TRUE(replay.violated);
  EXPECT_EQ(replay.invariant, v.invariant);
  EXPECT_EQ(replay.message, v.message);
  EXPECT_DOUBLE_EQ(replay.violation_time, v.time);
  EXPECT_EQ(replay.trace, v.trace);

  // ...and the default order really is clean.
  const auto clean = mc::replay_schedule(broken_factory(), core::Engine::Config{},
                                         single_copy_invariant(), {});
  EXPECT_FALSE(clean.violated);
}

TEST(Explorer, ScheduleReplaysIdenticallyAcrossAllQueueKinds) {
  // Property (satellite of the paper's queue-interchangeability claim):
  // every queue implementation pops in ascending (time, seq) order, so a
  // recorded interleaving is queue-agnostic — the counterexample found on
  // the heap replays byte-for-byte on every other queue kind.
  mc::Explorer ex(broken_factory(), core::Engine::Config{}, single_copy_invariant(),
                  mc::ExploreConfig{});
  const auto res = ex.run();
  ASSERT_FALSE(res.ok());
  const auto& schedule = res.violations[0].schedule;

  const std::array<core::QueueKind, 5> kinds = {
      core::QueueKind::kSortedList, core::QueueKind::kBinaryHeap, core::QueueKind::kSplayTree,
      core::QueueKind::kCalendarQueue, core::QueueKind::kLadderQueue};
  std::vector<mc::ReplayOutcome> outcomes;
  for (const auto kind : kinds) {
    core::Engine::Config cfg;
    cfg.queue = kind;
    outcomes.push_back(
        mc::replay_schedule(broken_factory(), cfg, single_copy_invariant(), schedule));
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    SCOPED_TRACE(to_string(kinds[i]));
    EXPECT_TRUE(outcomes[i].violated);
    EXPECT_EQ(outcomes[i].trace, outcomes[0].trace);
    EXPECT_EQ(outcomes[i].invariant, outcomes[0].invariant);
    EXPECT_DOUBLE_EQ(outcomes[i].violation_time, outcomes[0].violation_time);
  }
}

// --- sleep sets on a model with genuinely independent entities ------------

// Three no-op events tied at t = 1, each tagged as its own entity: all six
// orderings reach the same state. Sleep sets prove most orderings redundant
// without ever hashing a state.
class TaggedNopModel : public mc::Model {
 public:
  explicit TaggedNopModel(core::Engine& eng) : eng_(eng) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      core::TagScope scope(eng_, i + 1);
      eng_.schedule_at(1.0, [this, i] { ++fired_[i]; });
    }
  }
  void hash_state(core::StateHash& h) const override {
    for (int f : fired_) h.mix(static_cast<std::uint64_t>(f));
  }
  mc::CheckContext context(bool terminal) override {
    mc::CheckContext ctx;
    ctx.engine = &eng_;
    ctx.terminal = terminal;
    return ctx;
  }

 private:
  core::Engine& eng_;
  std::array<int, 3> fired_{};
};

TEST(Explorer, SleepSetsPruneIndependentOrderings) {
  const mc::ModelFactory factory = [](core::Engine& eng) -> std::unique_ptr<mc::Model> {
    return std::make_unique<TaggedNopModel>(eng);
  };
  mc::Invariants none;

  mc::ExploreConfig plain;
  plain.sleep_sets = false;
  plain.hash_pruning = false;
  mc::Explorer ex_plain(factory, core::Engine::Config{}, none, plain);
  const auto res_plain = ex_plain.run();
  EXPECT_TRUE(res_plain.ok());
  EXPECT_TRUE(res_plain.complete);
  EXPECT_EQ(res_plain.executions, 6u);  // 3! orderings, nothing pruned
  EXPECT_EQ(res_plain.choice_points, 4u);
  EXPECT_EQ(res_plain.sleep_pruned, 0u);

  mc::ExploreConfig slept;
  slept.sleep_sets = true;
  slept.hash_pruning = false;
  mc::Explorer ex_slept(factory, core::Engine::Config{}, none, slept);
  const auto res_slept = ex_slept.run();
  EXPECT_TRUE(res_slept.ok());
  EXPECT_TRUE(res_slept.complete);
  // Pinned exactly, so that a change in the tags the explorer reads cannot
  // prune more or less unnoticed.
  EXPECT_EQ(res_slept.executions, 4u);
  EXPECT_EQ(res_slept.choice_points, 3u);
  EXPECT_EQ(res_slept.sleep_pruned, 5u);
}

}  // namespace
