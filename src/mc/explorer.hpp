// Exhaustive event-ordering exploration (stateless model checking).
//
// The engine's (time, seq) total order makes every run deterministic — but
// seq order is an *artifact* of scheduling order, not a law of the modeled
// system: events tied at one timestamp could fire in any order on a real
// system. The Explorer turns that artifact into a verified property: it
// drives the engine through *every* ordering of simultaneous events (DFS
// over choice points, in the style of systematic concurrency testers like
// SimGrid's DFS explorer), checking registered invariants after every
// event of every interleaving.
//
// Mechanics:
//   * Choice points come from Engine::set_choice_hook — whenever >= 2 live
//     events are tied at the minimum timestamp, the hook picks which runs
//     first. The explorer is also the engine's probe (core/probe.hpp), so
//     it sees every executed event. Index 0 reproduces the engine's normal FIFO order, so the
//     first execution of any exploration is byte-identical to a plain run.
//   * Backtracking is replay-based: the engine has no state snapshots, so
//     the explorer re-runs the scenario from t = 0 (fresh Engine + Model
//     per execution) and steers the prefix down the recorded path. Sound
//     because executions are deterministic given the choice sequence.
//   * Hash pruning: at every choice point the (engine, model) state is
//     fingerprinted (core/hash.hpp); a revisited fingerprint aborts the
//     execution — its subtree was already explored from the first visit.
//     Classic hash compaction: a collision can only over-prune.
//   * Sleep sets (Godefroid): candidates carry entity tags
//     (Engine::enable_event_tags), handed over with the tie and read off
//     current_tag() as each event runs; two events with different non-zero tags
//     commute, so of their two orderings only one is explored. After
//     exploring branch t at a node, t joins the sleep set for the node's
//     later branches; executing an event that conflicts with a sleeping
//     event wakes it; executing a sleeping event (or having every
//     candidate asleep) proves the path redundant and aborts it.
//
// A violation produces a *replayable counterexample*: the sequence of
// chosen event ids, greedily minimized (each decision reverted to the
// default order when the violation survives without it), plus the full
// (time, seq) trace of the minimized run. replay_schedule() re-executes a
// schedule through a fresh engine — tests assert byte-identical traces.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/probe.hpp"
#include "mc/invariants.hpp"
#include "mc/model.hpp"

namespace lsds::mc {

struct ExploreConfig {
  /// Choice points per execution that may branch; deeper ties take the
  /// default order (the run still completes and is checked, but the
  /// exploration is reported depth-capped). 0 = unlimited.
  std::size_t max_depth = 0;
  /// Cap on distinct fingerprinted states; hitting it stops exploration
  /// (reported state-capped). 0 = unlimited.
  std::uint64_t max_states = 200000;
  /// Per-execution executed-event watchdog (zero-delay loop guard).
  std::uint64_t step_budget = 200000;
  bool sleep_sets = true;
  bool hash_pruning = true;
  /// Stop at the first violation (default) or keep exploring and collect.
  bool stop_at_first = true;
};

struct Violation {
  std::string invariant;
  std::string message;
  double time = 0;           // simulation time of the violating state
  std::uint64_t execution = 0;  // 1-based index of the execution that found it
  /// Minimized replayable schedule: the chosen event id per choice point
  /// (0 = default order). Feed to replay_schedule().
  std::vector<core::EventId> schedule;
  /// Full (time, seq) event trace of the minimized counterexample run.
  std::vector<std::pair<double, core::EventId>> trace;
};

struct ExploreResult {
  std::uint64_t executions = 0;      // complete or pruned replays run
  std::uint64_t choice_points = 0;   // DFS nodes created
  std::uint64_t states_hashed = 0;   // fingerprints computed
  std::uint64_t hash_pruned = 0;     // executions cut at a revisited state
  std::uint64_t sleep_pruned = 0;    // branches/paths cut by sleep sets
  std::uint64_t max_depth_seen = 0;  // deepest branching choice point
  bool depth_capped = false;
  bool state_capped = false;
  bool budget_hit = false;  // some execution hit step_budget
  /// True when the full interleaving tree was explored (no caps hit). With
  /// stop_at_first, a found violation also clears this.
  bool complete = false;
  std::vector<Violation> violations;
  bool ok() const { return violations.empty(); }
};

/// Outcome of re-running one recorded schedule (see replay_schedule).
struct ReplayOutcome {
  std::vector<std::pair<double, core::EventId>> trace;
  bool violated = false;
  std::string invariant;
  std::string message;
  double violation_time = 0;
};

/// Re-execute `schedule` through a fresh engine + model: choice point k
/// runs the event with id schedule[k] (default order when the id is 0,
/// absent, or past the end). Deterministic — equal schedules yield
/// byte-identical traces. Stops at the first violation.
ReplayOutcome replay_schedule(const ModelFactory& factory, const core::Engine::Config& engine_cfg,
                              const Invariants& invariants,
                              const std::vector<core::EventId>& schedule,
                              std::uint64_t step_budget = 200000);

class Explorer : private core::EngineProbe {
 public:
  Explorer(ModelFactory factory, core::Engine::Config engine_cfg, Invariants invariants,
           ExploreConfig cfg);

  ExploreResult run();

 private:
  /// One DFS node: the tie set at a branching choice point, which branches
  /// were already explored, and the sleep set on entry (for replay).
  struct Node {
    std::vector<core::Engine::TiedEvent> candidates;  // ascending seq (default order first)
    std::vector<std::pair<core::EventId, std::uint32_t>> sleep_entry;
    std::vector<bool> explored;
    std::size_t current = 0;
  };

  enum class ExecStatus { kCompleted, kPruned, kViolation, kBudget };

  ExecStatus run_one();
  bool advance_path();
  std::size_t on_choice(core::SimTime t, const std::vector<core::Engine::TiedEvent>& tied);
  /// Records the trace and updates the sleep set as each event runs.
  void on_event(core::SimTime t, core::EventId id) override;
  std::uint32_t queue_stride() const override { return 0; }
  void record_violation(double time, const std::string& invariant, const std::string& message);
  void minimize(Violation& v) const;

  ModelFactory factory_;
  core::Engine::Config engine_cfg_;
  Invariants invariants_;
  ExploreConfig cfg_;

  // Per-run() state.
  std::vector<Node> path_;
  std::unordered_set<std::uint64_t> visited_;
  ExploreResult res_;

  // Per-execution state.
  core::Engine* engine_ = nullptr;
  Model* model_ = nullptr;
  std::size_t depth_ = 0;  // choice points consumed this execution
  bool aborting_ = false;
  std::unordered_map<core::EventId, std::uint32_t> sleep_;
  std::vector<core::EventId> run_choices_;
  std::vector<std::pair<double, core::EventId>> trace_;
};

}  // namespace lsds::mc
