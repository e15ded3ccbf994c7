#include "hosts/cpu.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

#include "obs/span.hpp"

namespace lsds::hosts {

namespace {
constexpr double kOpsEpsilon = 1e-6;
constexpr auto kIdBelow = [](const auto& r, JobId id) { return r.id < id; };
constexpr auto kLessRemaining = [](const auto& a, const auto& b) {
  return a.remaining < b.remaining;
};
}  // namespace

const char* to_string(SharingPolicy p) {
  switch (p) {
    case SharingPolicy::kSpaceShared: return "space-shared";
    case SharingPolicy::kTimeShared: return "time-shared";
  }
  return "?";
}

CpuResource::CpuResource(core::Engine& engine, std::string name, unsigned cores, double speed,
                         SharingPolicy policy)
    : engine_(engine), name_(std::move(name)), cores_(cores), speed_(speed), policy_(policy) {
  assert(cores_ > 0 && speed_ > 0);
}

bool CpuResource::has_idle_core() const {
  if (policy_ == SharingPolicy::kSpaceShared) return running_.size() < cores_;
  return true;
}

void CpuResource::submit(JobId id, double ops, DoneFn on_done) {
  assert(id != kInvalidJob && ops >= 0);
  const double demand = std::max(ops, kOpsEpsilon);
  Running r{id, demand, demand, std::move(on_done), engine_.now()};
  if (policy_ == SharingPolicy::kSpaceShared && running_.size() >= cores_) {
    queue_.push_back(std::move(r));
    return;
  }
  progress_to_now();
  admit(std::move(r));
  resolve_and_reschedule();
}

void CpuResource::admit(Running r) {
  const auto at = std::lower_bound(running_.begin(), running_.end(), r.id, kIdBelow);
  assert(at == running_.end() || at->id != r.id);
  running_.insert(at, std::move(r));
}

void CpuResource::progress_to_now() {
  const double now = engine_.now();
  const double dt = now - last_update_;
  last_update_ = now;
  if (dt <= 0) return;
  const double step = rate_ * dt;
  for (auto& r : running_) {
    const double done = std::min(step, r.remaining);
    r.remaining -= done;
    delivered_ops_ += done;
  }
}

void CpuResource::resolve_and_reschedule() {
  // Zero while offline: progress freezes, state is kept.
  const std::size_t n = running_.size();
  if (!online_) {
    rate_ = 0;
  } else if (policy_ == SharingPolicy::kSpaceShared || n == 0) {
    rate_ = speed_;  // each running job owns one core
  } else {
    rate_ = std::min(speed_, total_capacity() / static_cast<double>(n));
  }
  ++generation_;
  if (n == 0 || rate_ <= 0) return;
  const double soonest = std::min_element(running_.begin(), running_.end(), kLessRemaining)
                             ->remaining / rate_;
  if (soonest == std::numeric_limits<double>::infinity()) return;
  const std::uint64_t gen = generation_;
  engine_.schedule_in(soonest, [this, gen] { on_completion_event(gen); });
}

void CpuResource::on_completion_event(std::uint64_t generation) {
  if (generation != generation_) return;
  // Scheduled only with jobs running at a positive rate; both still hold.
  assert(!running_.empty() && rate_ > 0);
  progress_to_now();
  auto done = std::stable_partition(running_.begin(), running_.end(),
                                    [](const Running& r) { return r.remaining > kOpsEpsilon; });
  if (done == running_.end()) {
    // Same float-livelock guard as FlowNetwork::on_completion_event: when
    // the residual service time is below the clock ulp, dt rounds to zero
    // and the epsilon test cannot fire; finish the job this event was
    // scheduled for (the least remaining work, lowest id on a tie).
    const auto victim = std::min_element(running_.begin(), running_.end(), kLessRemaining);
    std::rotate(victim, victim + 1, running_.end());
    done = running_.end() - 1;
  }
  std::vector<std::pair<JobId, DoneFn>> callbacks;
  callbacks.reserve(static_cast<std::size_t>(running_.end() - done));
  for (auto it = done; it != running_.end(); ++it) {
    publish_span(*it, "done");
    callbacks.emplace_back(it->id, std::move(it->on_done));
  }
  jobs_completed_ += callbacks.size();
  running_.erase(done, running_.end());
  try_dispatch();
  resolve_and_reschedule();
  // Callbacks last: they may resubmit work re-entrantly.
  for (auto& [id, cb] : callbacks) {
    if (cb) cb(id);
  }
}

void CpuResource::try_dispatch() {
  while (policy_ == SharingPolicy::kSpaceShared && running_.size() < cores_ && !queue_.empty()) {
    admit(std::move(queue_.front()));
    queue_.pop_front();
  }
}

bool CpuResource::cancel(JobId id, double* done_ops) {
  progress_to_now();  // credit work before measuring this attempt's progress
  if (const auto it = std::lower_bound(running_.begin(), running_.end(), id, kIdBelow);
      it != running_.end() && it->id == id) {
    if (done_ops) *done_ops = it->ops - it->remaining;
    publish_span(*it, "cancelled");
    running_.erase(it);
    try_dispatch();
    resolve_and_reschedule();
    return true;
  }
  const auto qit =
      std::find_if(queue_.begin(), queue_.end(), [id](const Running& r) { return r.id == id; });
  if (qit == queue_.end()) return false;
  if (done_ops) *done_ops = 0;
  queue_.erase(qit);
  return true;
}

void CpuResource::set_online(bool up) {
  if (up == online_) return;
  progress_to_now();  // credit work done before the state change
  online_ = up;
  if (!up) {
    ++outages_;
    down_since_ = engine_.now();
  } else {
    downtime_ += engine_.now() - down_since_;
  }
  // Fail-stop: the crash wipes the node. Running jobs lose their progress,
  // queued jobs bounce; both are reported through the killed handler so a
  // recovery policy can re-drive them.
  std::vector<std::pair<JobId, double>> killed;
  if (!up && semantics_ == core::FailureSemantics::kFailStop) {
    killed.reserve(running_.size() + queue_.size());
    for (const auto& r : running_) {
      publish_span(r, "killed");
      killed.emplace_back(r.id, r.ops - r.remaining);
    }
    for (const auto& r : queue_) {
      publish_span(r, "returned");
      killed.emplace_back(r.id, 0.0);
    }
    running_.clear();
    queue_.clear();
    std::sort(killed.begin(), killed.end());  // deterministic callback order
    jobs_killed_ += killed.size();
  }
  resolve_and_reschedule();
  // Callbacks last: they may resubmit work re-entrantly.
  if (killed_) {
    for (const auto& [id, lost] : killed) killed_(id, lost);
  }
  if (online_observer_) online_observer_(up);
}

double CpuResource::downtime() const {
  return downtime_ + (online_ ? 0.0 : engine_.now() - down_since_);
}

double CpuResource::availability(double t_end) const {
  if (t_end <= 0) return 1.0;
  return 1.0 - std::min(downtime(), t_end) / t_end;
}

double CpuResource::busy_ops() const { return delivered_ops_; }

void CpuResource::publish_span(const Running& r, const char* status) const {
  const auto& bus = obs::SpanBus::global();
  if (!bus.enabled()) return;
  obs::Span s;
  s.kind = "job";
  s.status = status;
  s.id = r.id;
  s.t0 = r.submitted;
  s.t1 = engine_.now();
  s.quantity = r.ops;
  s.name = name_.c_str();
  bus.publish(s);
}

double CpuResource::utilization(double t_end) const {
  if (t_end <= 0) return 0;
  // delivered_ops_ is only current up to last_update_; add nothing beyond —
  // callers should query after the horizon.
  return delivered_ops_ / (total_capacity() * t_end);
}

void CpuResource::state_digest(core::StateHash& h) const {
  h.mix(std::string_view(name_));
  h.mix(online_);
  h.mix(static_cast<std::uint64_t>(running_.size()));
  for (const auto& r : running_) {
    h.mix(static_cast<std::uint64_t>(r.id));
    h.mix(r.ops);
    h.mix(r.remaining);
    h.mix(rate_);
  }
  h.mix(static_cast<std::uint64_t>(queue_.size()));
  for (const auto& r : queue_) {
    h.mix(static_cast<std::uint64_t>(r.id));
    h.mix(r.ops);
  }
  h.mix(static_cast<std::uint64_t>(jobs_completed_));
  h.mix(static_cast<std::uint64_t>(jobs_killed_));
  h.mix(static_cast<std::uint64_t>(outages_));
}

}  // namespace lsds::hosts
