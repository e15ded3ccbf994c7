// CPU resources with the two allocation policies the surveyed simulators
// model (GridSim: "heterogeneous computing resources, both time and space
// shared"):
//
//   * space-shared — each job owns one core exclusively; excess jobs wait in
//     a FIFO queue (a cluster batch node);
//   * time-shared  — processor sharing: all admitted jobs progress
//     simultaneously, each at min(core_speed, total_capacity / n_jobs)
//     (an interactive timesharing node), validated against the M/M/1-PS
//     closed form in experiment E5.
//
// Every running job progresses at one rate: `speed` space-shared,
// min(speed, capacity / n) time-shared, 0 offline. So a CPU is the flow
// network's single-constraint-set case: one `rate_`, running jobs in
// ascending id order (progress, callbacks, kill spans and state digests
// visit them by id), and the next completion at the least remaining work
// over that rate — bit-identical to the least per-job service time, since
// dividing by a positive constant is monotone.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/failure.hpp"
#include "core/hash.hpp"
#include "hosts/job.hpp"

namespace lsds::hosts {

enum class SharingPolicy { kSpaceShared, kTimeShared };

const char* to_string(SharingPolicy p);

class CpuResource {
 public:
  using DoneFn = std::function<void(JobId)>;
  /// Fired per job lost to a fail-stop outage or returned from the queue;
  /// `lost_ops` is the work completed on this attempt and now lost (0 for
  /// jobs that were still queued).
  using KilledFn = std::function<void(JobId, double lost_ops)>;

  CpuResource(core::Engine& engine, std::string name, unsigned cores, double speed,
              SharingPolicy policy);

  /// Submit `ops` of work; `on_done` fires when it completes.
  void submit(JobId id, double ops, DoneFn on_done = nullptr);

  /// True when at least one core is idle (space-shared) / always admitted
  /// (time-shared).
  bool has_idle_core() const;

  /// Remove a job from service or from the wait queue without firing its
  /// completion callback (k-replication cancels the losing copies). When
  /// `done_ops` is non-null it receives the work completed on this attempt.
  /// Returns false if the job is unknown (already finished or never here).
  bool cancel(JobId id, double* done_ops = nullptr);

  /// Failure injection. Under kFailResume (default), while offline running
  /// jobs stop progressing and queued jobs stay queued; work resumes where
  /// it left off when the resource comes back. Under kFailStop, going
  /// offline kills every running job (progress is lost) and returns every
  /// queued job; each fires the KilledFn. Idempotent.
  void set_online(bool up);
  bool online() const { return online_; }
  std::uint64_t outages() const { return outages_; }

  /// Crash semantics applied by set_online(false). Switching policy while
  /// offline is the caller's foot-gun; set it before injecting failures.
  void set_failure_semantics(core::FailureSemantics s) { semantics_ = s; }
  core::FailureSemantics failure_semantics() const { return semantics_; }
  /// Observer for fail-stop kills. One handler per resource (the recovery
  /// layer); replaces any previous handler.
  void set_killed_handler(KilledFn fn) { killed_ = std::move(fn); }
  /// Observer for online/offline transitions (fires after kill callbacks);
  /// the recovery layer uses repairs to resume dispatching.
  using OnlineFn = std::function<void(bool up)>;
  void set_online_observer(OnlineFn fn) { online_observer_ = std::move(fn); }

  std::size_t running() const { return running_.size(); }
  std::size_t queued() const { return queue_.size(); }
  unsigned cores() const { return cores_; }
  double speed() const { return speed_; }
  double total_capacity() const { return speed_ * cores_; }
  SharingPolicy policy() const { return policy_; }
  const std::string& name() const { return name_; }

  // --- statistics ----------------------------------------------------------

  std::uint64_t jobs_completed() const { return jobs_completed_; }
  /// Jobs killed or returned by fail-stop outages.
  std::uint64_t jobs_killed() const { return jobs_killed_; }
  /// Integral of in-service work rate; busy_time/capacity/elapsed = utilization.
  double busy_ops() const;
  /// Utilization over [0, t]: delivered ops / (capacity * t).
  double utilization(double t_end) const;
  /// Cumulative time spent offline (up to now for an ongoing outage).
  double downtime() const;
  /// Fraction of [0, t_end] the resource was up — the availability metric
  /// of the dependability literature.
  double availability(double t_end) const;

  /// Fold the resource's mutable state into `h` (mc state pruning; see
  /// core/hash.hpp). Running jobs are visited in id order.
  void state_digest(core::StateHash& h) const;

 private:
  struct Running {
    JobId id = kInvalidJob;
    double ops;  // total demand of this attempt (for lost-work accounting)
    double remaining;
    DoneFn on_done;
    double submitted = 0;  // span bookkeeping (obs/span.hpp)
  };

  /// Publish a finished job-attempt span to the observability bus.
  void publish_span(const Running& r, const char* status) const;

  void admit(Running r);  // insert into running_ in id order
  void progress_to_now();
  void resolve_and_reschedule();
  void on_completion_event(std::uint64_t generation);
  void try_dispatch();  // space-shared admission

  core::Engine& engine_;
  std::string name_;
  unsigned cores_;
  double speed_;
  SharingPolicy policy_;

  std::vector<Running> running_;  // ascending id
  std::deque<Running> queue_;     // space-shared wait queue, FIFO
  double rate_ = 0;               // of every running job
  bool online_ = true;
  core::FailureSemantics semantics_ = core::FailureSemantics::kFailResume;
  KilledFn killed_;
  OnlineFn online_observer_;
  std::uint64_t outages_ = 0;
  double last_update_ = 0;
  double down_since_ = 0;
  double downtime_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_killed_ = 0;
  double delivered_ops_ = 0;
};

}  // namespace lsds::hosts
