// Stochastic failure injection.
//
// Large-scale distributed systems fail routinely; a simulator that cannot
// express outages cannot answer availability questions. FailureInjector
// drives registered CPU resources and network links through fail/repair
// cycles: each target independently alternates up-time drawn from a
// lifetime distribution (exponential MTBF/MTTR classic, or Weibull — the
// empirical fit for real node lifetimes, per the dependability follow-up
// work) and down-time ~ Exp(mttr), all from a named engine stream so chaos
// runs are reproducible.
//
// Correlated outages: a *site group* registers several CPUs (and,
// optionally, links) as one target — a power or uplink event takes the
// whole regional center down together, the failure correlation that
// independent per-node draws cannot produce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/failure.hpp"
#include "hosts/cpu.hpp"
#include "net/flow.hpp"

namespace lsds::middleware {

/// Declarative chaos knobs, embeddable in facade configs and parseable from
/// a scenario `[failures]` section (see examples/scenario_runner.cpp).
struct FailureSpec {
  bool enabled = false;
  double mtbf = 1000;    // mean up-time per target
  double mttr = 10;      // mean down-time per outage
  double horizon = 0;    // no outage starts after this time (0 = required by caller)
  /// 0 = exponential lifetimes; > 0 = Weibull with this shape (scale chosen
  /// so the mean stays mtbf; shape < 1 models infant mortality).
  double weibull_shape = 0;
  /// What an outage does to in-flight work (see core/failure.hpp). Facades
  /// without a recovery layer only support kFailResume.
  core::FailureSemantics semantics = core::FailureSemantics::kFailResume;
  /// Also fail network links, not just CPUs.
  bool include_links = true;
};

class FailureInjector {
 public:
  /// `stream` names the RNG stream used for all draws.
  FailureInjector(core::Engine& engine, std::string stream = "failures");

  void add_cpu(hosts::CpuResource& cpu);
  void add_link(net::FlowNetwork& net, net::LinkId link);
  /// Correlated site-wide outages: all of `cpus` (and `links`, optionally)
  /// fail and repair together as a single target.
  void add_site(std::vector<hosts::CpuResource*> cpus, net::FlowNetwork* net = nullptr,
                std::vector<net::LinkId> links = {});

  /// Start fail/repair cycles on every registered target with exponential
  /// lifetimes. Outages whose start would fall beyond `t_end` are not
  /// scheduled. Throws std::logic_error when called twice (double-starting
  /// would silently double every target's failure rate).
  void start(double mean_time_between_failures, double mean_time_to_repair, double t_end);

  /// Weibull lifetimes with mean `mtbf` and the given shape (shape == 1 is
  /// exponential; < 1 infant mortality; > 1 wear-out); shape <= 0 draws the
  /// exponential lifetimes of start(), so a FailureSpec's weibull_shape
  /// passes straight through. Same guard as start().
  void start_weibull(double shape, double mtbf, double mean_time_to_repair, double t_end);

  bool started() const { return started_; }

  // --- deterministic outages (tests, exhaustive exploration) ----------------

  /// Registered targets, in add_*() order (index = the `target` argument of
  /// the deterministic APIs below).
  std::size_t target_count() const { return targets_.size(); }

  /// Inject exactly one outage on `target` at absolute time `at`, repaired
  /// `repair_after` later (repair_after < 0 = permanent; == 0 ties the
  /// repair with the crash at one timestamp — the double-start stress case).
  /// Independent of the stochastic cycles and of started(); usable any
  /// number of times per target.
  void schedule_outage(std::size_t target, double at, double repair_after);

  /// Fault-timing choice point for mc::Explorer: the outage fires at exactly
  /// one of `candidate_times`, decided by which of the tied selector events
  /// (all scheduled at the current time) executes first. Under the default
  /// engine order the first candidate wins, so normal runs stay
  /// deterministic; under exploration each candidate becomes a branch.
  void schedule_outage_choice(std::size_t target, std::vector<double> candidate_times,
                              double repair_after);

  // --- statistics -----------------------------------------------------------

  std::uint64_t outages_started() const { return outages_; }
  std::uint64_t repairs_completed() const { return repairs_; }
  /// Total injected downtime, truncated at the horizon: an outage still
  /// open at t_end only contributes up to t_end.
  double total_downtime() const { return downtime_; }

 private:
  struct Target {
    std::vector<hosts::CpuResource*> cpus;
    net::FlowNetwork* net = nullptr;
    std::vector<net::LinkId> links;
  };

  void schedule_failure(std::size_t target, double t_end);
  void apply(std::size_t target, bool up);
  double draw_lifetime();

  core::Engine& engine_;
  std::string stream_;
  std::vector<Target> targets_;
  bool started_ = false;
  double mtbf_ = 0;
  double mttr_ = 0;
  double weibull_shape_ = 0;  // 0 = exponential
  double weibull_scale_ = 0;
  std::uint64_t outages_ = 0;
  std::uint64_t repairs_ = 0;
  double downtime_ = 0;
};

}  // namespace lsds::middleware
