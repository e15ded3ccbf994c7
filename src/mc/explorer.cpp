#include "mc/explorer.hpp"

#include <algorithm>
#include <cassert>

namespace lsds::mc {

namespace {
/// Two events conflict (must be ordered both ways) unless both carry
/// non-zero tags and the tags differ. Tag 0 = untagged = dependent on
/// everything, the conservative default.
bool conflicts(std::uint32_t a, std::uint32_t b) { return a == 0 || b == 0 || a == b; }

/// Records a replay's (time, seq) trace.
struct TraceRecorder final : core::EngineProbe {
  explicit TraceRecorder(std::vector<std::pair<double, core::EventId>>& out) : trace(out) {}
  void on_event(core::SimTime t, core::EventId id) override { trace.emplace_back(t, id); }
  std::uint32_t queue_stride() const override { return 0; }
  std::vector<std::pair<double, core::EventId>>& trace;
};
}  // namespace

ReplayOutcome replay_schedule(const ModelFactory& factory, const core::Engine::Config& engine_cfg,
                              const Invariants& invariants,
                              const std::vector<core::EventId>& schedule,
                              std::uint64_t step_budget) {
  ReplayOutcome out;
  TraceRecorder recorder(out.trace);
  core::Engine eng(engine_cfg);
  std::unique_ptr<Model> model = factory(eng);
  std::size_t k = 0;
  eng.set_probe(&recorder);
  eng.set_choice_hook([&schedule, &k](core::SimTime,
                                      const std::vector<core::Engine::TiedEvent>& tied) {
    std::size_t pick = 0;
    if (k < schedule.size() && schedule[k] != 0) {
      auto it = std::find_if(tied.begin(), tied.end(),
                             [&](const core::Engine::TiedEvent& e) { return e.id == schedule[k]; });
      if (it != tied.end()) pick = static_cast<std::size_t>(it - tied.begin());
    }
    ++k;
    return pick;
  });

  const auto violated = [&](bool terminal) {
    CheckContext ctx = model->context(terminal);
    const Invariants::Result r = invariants.check(ctx);
    if (r.index == invariants.size()) return false;
    out.violated = true;
    out.invariant = invariants.name(r.index);
    out.message = r.message;
    out.violation_time = eng.now();
    return true;
  };

  std::uint64_t steps = 0;
  while (eng.step()) {
    if (violated(false)) return out;
    if (step_budget && ++steps >= step_budget) return out;
  }
  violated(true);
  return out;
}

Explorer::Explorer(ModelFactory factory, core::Engine::Config engine_cfg, Invariants invariants,
                   ExploreConfig cfg)
    : factory_(std::move(factory)),
      engine_cfg_(engine_cfg),
      invariants_(std::move(invariants)),
      cfg_(cfg) {}

ExploreResult Explorer::run() {
  path_.clear();
  visited_.clear();
  res_ = ExploreResult{};

  bool exhausted = false;
  for (;;) {
    const ExecStatus status = run_one();
    ++res_.executions;
    if (status == ExecStatus::kViolation && cfg_.stop_at_first) break;
    if (status == ExecStatus::kBudget) res_.budget_hit = true;
    if (res_.state_capped) break;
    if (!advance_path()) {
      exhausted = true;
      break;
    }
  }
  res_.complete = exhausted && !res_.depth_capped && !res_.state_capped && !res_.budget_hit;
  return res_;
}

Explorer::ExecStatus Explorer::run_one() {
  core::Engine eng(engine_cfg_);
  if (cfg_.sleep_sets) eng.enable_event_tags();
  std::unique_ptr<Model> model = factory_(eng);
  engine_ = &eng;
  model_ = model.get();
  depth_ = 0;
  aborting_ = false;
  sleep_.clear();
  run_choices_.clear();
  trace_.clear();

  eng.set_probe(this);
  eng.set_choice_hook([this](core::SimTime t, const std::vector<core::Engine::TiedEvent>& tied) {
    return on_choice(t, tied);
  });

  ExecStatus status = ExecStatus::kCompleted;
  std::uint64_t steps = 0;
  while (eng.step()) {
    if (aborting_) {
      status = ExecStatus::kPruned;
      break;
    }
    CheckContext ctx = model->context(false);
    const Invariants::Result r = invariants_.check(ctx);
    if (r.index < invariants_.size()) {
      record_violation(eng.now(), invariants_.name(r.index), r.message);
      status = ExecStatus::kViolation;
      break;
    }
    if (cfg_.step_budget && ++steps >= cfg_.step_budget) {
      status = ExecStatus::kBudget;
      break;
    }
  }
  if (status == ExecStatus::kCompleted) {
    CheckContext ctx = model->context(true);
    const Invariants::Result r = invariants_.check(ctx);
    if (r.index < invariants_.size()) {
      record_violation(eng.now(), invariants_.name(r.index), r.message);
      status = ExecStatus::kViolation;
    }
  }
  engine_ = nullptr;
  model_ = nullptr;
  return status;
}

std::size_t Explorer::on_choice(core::SimTime t,
                                const std::vector<core::Engine::TiedEvent>& tied) {
  if (aborting_) return 0;

  if (depth_ < path_.size()) {
    // Replay phase: steer down the recorded path and restore the sleep set
    // this branch entered with (entry sleep + already-explored siblings —
    // the classic "t joins Sleep after its subtree" rule).
    Node& n = path_[depth_];
    assert(tied == n.candidates && "non-deterministic replay: tie set changed");
    if (cfg_.sleep_sets) {
      sleep_.clear();
      sleep_.insert(n.sleep_entry.begin(), n.sleep_entry.end());
      for (std::size_t i = 0; i < n.candidates.size(); ++i) {
        const core::Engine::TiedEvent& c = n.candidates[i];
        if (n.explored[i] && i != n.current) sleep_.emplace(c.id, c.tag);
      }
    }
    run_choices_.push_back(n.candidates[n.current].id);
    ++depth_;
    return n.current;
  }

  // Frontier: a choice point this path has never branched at.
  if (cfg_.max_depth && path_.size() >= cfg_.max_depth) {
    res_.depth_capped = true;
    run_choices_.push_back(0);  // default order beyond the cap
    ++depth_;
    return 0;
  }

  if (cfg_.hash_pruning) {
    ++res_.states_hashed;
    core::StateHash h;
    h.mix(t);
    h.mix(static_cast<std::uint64_t>(engine_->pending()));
    h.mix(engine_->stats().scheduled);
    for (const core::Engine::TiedEvent& e : tied) h.mix(static_cast<std::uint64_t>(e.id));
    model_->hash_state(h);
    if (!visited_.insert(h.value()).second) {
      // Same state reached through a different ordering: its subtree was
      // already explored from the first visit.
      ++res_.hash_pruned;
      aborting_ = true;
      engine_->stop();
      return 0;
    }
    if (cfg_.max_states && visited_.size() >= cfg_.max_states) res_.state_capped = true;
  }

  Node n;
  n.candidates = tied;
  n.explored.assign(tied.size(), false);
  if (cfg_.sleep_sets) {
    n.sleep_entry.assign(sleep_.begin(), sleep_.end());
    // A candidate already asleep is redundant here by construction — its
    // ordering with everything it commutes with is covered elsewhere.
    for (std::size_t i = 0; i < tied.size(); ++i) {
      if (sleep_.count(tied[i].id)) {
        n.explored[i] = true;
        ++res_.sleep_pruned;
      }
    }
  }
  std::size_t first = n.candidates.size();
  for (std::size_t i = 0; i < n.candidates.size(); ++i) {
    if (!n.explored[i]) {
      first = i;
      break;
    }
  }
  if (first == n.candidates.size()) {
    // Every candidate asleep: the whole continuation is redundant.
    aborting_ = true;
    engine_->stop();
    return 0;
  }
  n.current = first;
  ++res_.choice_points;
  res_.max_depth_seen = std::max<std::uint64_t>(res_.max_depth_seen, path_.size() + 1);
  run_choices_.push_back(n.candidates[first].id);
  path_.push_back(std::move(n));
  ++depth_;
  return first;
}

void Explorer::on_event(core::SimTime t, core::EventId id) {
  trace_.emplace_back(t, id);
  if (aborting_ || !cfg_.sleep_sets) return;
  if (sleep_.count(id)) {
    // Executing a sleeping event: this interleaving is a reordering of one
    // already explored. (Happens when the tie shrank to a single sleeping
    // event — single events bypass the choice hook.)
    ++res_.sleep_pruned;
    aborting_ = true;
    engine_->stop();
    return;
  }
  const std::uint32_t tag = engine_->current_tag();
  if (tag == 0) {
    // Untagged events conflict with everything: wake the whole set.
    sleep_.clear();
    return;
  }
  for (auto it = sleep_.begin(); it != sleep_.end();) {
    it = conflicts(tag, it->second) ? sleep_.erase(it) : std::next(it);
  }
}

bool Explorer::advance_path() {
  while (!path_.empty()) {
    Node& n = path_.back();
    n.explored[n.current] = true;
    std::size_t next = n.candidates.size();
    for (std::size_t i = n.current + 1; i < n.candidates.size(); ++i) {
      if (!n.explored[i]) {
        next = i;
        break;
      }
    }
    if (next < n.candidates.size()) {
      n.current = next;
      return true;
    }
    path_.pop_back();
  }
  return false;
}

void Explorer::record_violation(double time, const std::string& invariant,
                                const std::string& message) {
  Violation v;
  v.invariant = invariant;
  v.message = message;
  v.time = time;
  v.execution = res_.executions + 1;  // run_one() hasn't been tallied yet
  v.schedule = run_choices_;
  minimize(v);
  // Re-run the minimized schedule once to capture its trace (and its
  // possibly-sharper message: minimization keeps any violation, not
  // necessarily the original invariant).
  ReplayOutcome out = replay_schedule(factory_, engine_cfg_, invariants_, v.schedule,
                                      cfg_.step_budget);
  if (out.violated) {
    v.invariant = out.invariant;
    v.message = out.message;
    v.time = out.violation_time;
    v.trace = std::move(out.trace);
  } else {
    // Shouldn't happen (minimize only keeps violating schedules), but never
    // report an empty counterexample.
    v.trace = trace_;
  }
  res_.violations.push_back(std::move(v));
}

void Explorer::minimize(Violation& v) const {
  // Greedy left-to-right: revert each decision to the default order; keep
  // the reversion when the schedule still violates. O(decisions) replays.
  for (std::size_t k = 0; k < v.schedule.size(); ++k) {
    if (v.schedule[k] == 0) continue;
    std::vector<core::EventId> trial = v.schedule;
    trial[k] = 0;
    if (replay_schedule(factory_, engine_cfg_, invariants_, trial, cfg_.step_budget).violated) {
      v.schedule = std::move(trial);
    }
  }
  while (!v.schedule.empty() && v.schedule.back() == 0) v.schedule.pop_back();
}

}  // namespace lsds::mc
