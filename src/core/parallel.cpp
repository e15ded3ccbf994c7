#include "core/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace lsds::core {

namespace {

// Busy-wait rounds before a waiting thread blocks in std::atomic::wait. A
// round with a handful of events lasts microseconds, far less than a futex
// sleep/wake round trip, so waiters poll first and only sleep through long
// pauses (the caller building the next round's inboxes, or idle engines).
// With more threads than hardware threads a spinning waiter only steals the
// core a working thread needs, so then nobody spins.
constexpr int kSpinRounds = 4096;

// A multi-hop horizon adds the delays in another order than the model's
// own sends do, so the model's sum may round up to one ulp per addition
// below it. Keeping (hops + 1) * 2^-52 less of it covers a path of `hops`
// channels; a direct channel (one addition on either side, monotone) keeps
// all of it.
double path_keep(unsigned hops) {
  return hops <= 1 ? 1.0 : 1.0 - static_cast<double>(hops + 1) * 0x1p-52;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ParallelEngine::ParallelEngine(Config cfg)
    : cfg_(cfg),
      inboxes_(cfg.num_lps),
      inbox_mu_(cfg.num_lps),
      errors_(cfg.num_lps) {
  if (cfg.num_lps == 0) throw std::invalid_argument("ParallelEngine: num_lps must be >= 1");
  // No channel until connect() declares one.
  delay_.assign(static_cast<std::size_t>(cfg.num_lps) * cfg.num_lps, kInfTime);
  lps_.reserve(cfg.num_lps);
  for (unsigned i = 0; i < cfg.num_lps; ++i) {
    // Per-LP seeds derived from the master seed; stable across thread counts.
    std::uint64_t s = cfg.seed;
    for (unsigned k = 0; k <= i; ++k) splitmix64(s);
    lps_.emplace_back(new Lp(*this, i, cfg, s));
  }
  busy_.reserve(cfg.num_lps);
  // More threads than LPs would never find work.
  const unsigned threads = std::min(std::max(cfg.num_threads, 1u), cfg.num_lps);
  const unsigned cores = std::thread::hardware_concurrency();
  spin_rounds_ = cores == 0 || threads <= cores ? kSpinRounds : 0;
  helpers_.reserve(threads - 1);
  try {
    for (unsigned i = 1; i < threads; ++i) helpers_.emplace_back([this] { helper_loop(); });
  } catch (...) {
    stop_helpers();  // a failed thread start must not leave the others running
    throw;
  }
}

ParallelEngine::~ParallelEngine() { stop_helpers(); }

void ParallelEngine::stop_helpers() {
  if (helpers_.empty()) return;
  stopping_.store(true);
  ticket_.store(++epoch_ << 32);
  ticket_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

ParallelEngine::Lp::Lp(ParallelEngine& parent, unsigned index, const Config& cfg,
                       std::uint64_t seed)
    : parent_(parent),
      index_(index),
      // max_events is the per-LP budget, enforced by Engine::run_window.
      engine_(Engine::Config{.queue = cfg.queue, .seed = seed, .max_events = cfg.max_events}),
      delays_(parent.delay_.data() + static_cast<std::size_t>(index) * cfg.num_lps),
      rng_(seed) {}

void ParallelEngine::Lp::schedule_at(SimTime t, EventFn fn) {
  engine_.schedule_at(t, std::move(fn));
}

void ParallelEngine::connect(unsigned src, unsigned dst, double min_delay) {
  const unsigned n = num_lps();
  if (src >= n || dst >= n) {
    throw std::out_of_range("ParallelEngine::connect: LP " + std::to_string(std::max(src, dst)) +
                            " out of range (num_lps() = " + std::to_string(n) + ")");
  }
  if (src == dst) {
    throw std::invalid_argument("ParallelEngine::connect: channel from LP " +
                                std::to_string(src) + " to itself");
  }
  if (!(min_delay > 0)) {
    throw std::invalid_argument("ParallelEngine::connect: min_delay must be > 0 (got " +
                                std::to_string(min_delay) + ")");
  }
  double& d = delay_[src * n + dst];
  d = std::min(d, min_delay);
}

void ParallelEngine::Lp::send(unsigned dst_lp, SimTime t, EventFn fn) {
  const unsigned n = parent_.num_lps();
  if (dst_lp >= n) {
    throw std::out_of_range("ParallelEngine::Lp::send: dst_lp " + std::to_string(dst_lp) +
                            " out of range (num_lps() = " + std::to_string(n) + ")");
  }
  if (dst_lp == index_) {
    schedule_at(t, std::move(fn));
    return;
  }
  const double delay = delays_[dst_lp];
  if (delay == kInfTime) {
    throw std::logic_error("ParallelEngine::Lp::send: no channel from LP " +
                           std::to_string(index_) + " to LP " + std::to_string(dst_lp) +
                           " was declared with connect()");
  }
  // Every horizon assumes this bound: an earlier message could land below
  // the horizon the destination, or an LP it forwards to, already ran to.
  const SimTime earliest = now() + delay;
  if (t < earliest) {
    t = earliest;
    parent_.la_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  // Only a round shared with helpers has concurrent senders.
  std::unique_lock lock(parent_.inbox_mu_[dst_lp], std::defer_lock);
  if (parent_.dispatched_) lock.lock();
  parent_.inboxes_[dst_lp].push_back(CrossMessage{t, index_, next_seq_++, std::move(fn)});
  // cross_messages is tallied at delivery time (single-threaded phase).
}

void ParallelEngine::deliver_inboxes() {
  for (unsigned dst = 0; dst < num_lps(); ++dst) {
    auto& inbox = inboxes_[dst];
    if (inbox.empty()) continue;
    // Deterministic merge independent of sender thread interleaving.
    std::sort(inbox.begin(), inbox.end(), [](const CrossMessage& a, const CrossMessage& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.src_lp != b.src_lp) return a.src_lp < b.src_lp;
      return a.src_seq < b.src_seq;
    });
    stats_.cross_messages += inbox.size();
    Lp& lp = *lps_[dst];
    // A send is no earlier than the sender's clock plus the channel delay,
    // which no horizon of the destination passed, so delivery never clamps
    // and the earliest message is the new bound.
    lp.next_ = std::min(lp.next_, inbox.front().time);
    for (CrossMessage& m : inbox) lp.schedule_at(m.time, std::move(m.fn));
    inbox.clear();
  }
}

ParallelEngine::Stats ParallelEngine::snapshot_stats() {
  stats_.events = 0;
  stats_.past_clamped = 0;
  stats_.per_lp_events.clear();
  for (auto& lp : lps_) {
    const Engine::Stats& es = lp->engine_.stats();
    stats_.events += es.executed;
    stats_.past_clamped += es.past_clamped;
    stats_.per_lp_events.push_back(es.executed);
  }
  stats_.lookahead_violations = la_violations_.load(std::memory_order_relaxed);
  return stats_;
}

void ParallelEngine::compute_paths() {
  // Floyd-Warshall over the declared delays. The diagonal starts at +inf,
  // so it ends as the shortest cycle through each LP.
  const unsigned n = num_lps();
  path_ = delay_;
  std::vector<unsigned> hops(path_.size(), 1);
  for (unsigned k = 0; k < n; ++k) {
    for (unsigned i = 0; i < n; ++i) {
      const double ik = path_[i * n + k];
      if (ik == kInfTime) continue;
      for (unsigned j = 0; j < n; ++j) {
        const double via = ik + path_[k * n + j];
        if (via < path_[i * n + j]) {
          path_[i * n + j] = via;
          hops[i * n + j] = hops[i * n + k] + hops[k * n + j];
        }
      }
    }
  }
  keep_.resize(path_.size());
  for (std::size_t e = 0; e < path_.size(); ++e) keep_[e] = path_keep(hops[e]);
  bound_.resize(n);
}

void ParallelEngine::plan_round(SimTime t_end) {
  const unsigned n = num_lps();
  // bound_[i] = min over senders j of (next_j + D[j][i]). Sender-major, so
  // the inner loop updates n independent minima.
  std::fill(bound_.begin(), bound_.end(), kInfTime);
  for (unsigned j = 0; j < n; ++j) {
    const SimTime next = lps_[j]->next_;
    if (next == kInfTime) continue;  // drained: it sends nothing
    const double* path = &path_[j * n];
    const double* keep = &keep_[j * n];
    for (unsigned i = 0; i < n; ++i) bound_[i] = std::min(bound_[i], (next + path[i]) * keep[i]);
  }
  busy_.clear();
  SimTime earliest = kInfTime;
  for (unsigned i = 0; i < n; ++i) {
    Lp& lp = *lps_[i];
    const SimTime h = bound_[i];
    lp.closed_ = h >= t_end;
    lp.horizon_ = std::min(h, t_end);
    if (lp.next_ == kInfTime) continue;  // drained
    if (lp.closed_ ? lp.next_ <= t_end : lp.next_ < h) busy_.push_back(&lp);
    earliest = std::min(earliest, lp.next_);
  }
  // The LP holding the earliest event always clears it unless a delay is
  // below the rounding of the clock — rounds would then stop advancing.
  if (busy_.empty() && earliest < kInfTime && earliest <= t_end) {
    throw std::logic_error("ParallelEngine: channel delays too small to advance past t = " +
                           std::to_string(earliest));
  }
}

void ParallelEngine::run_lp(Lp& lp) {
  tl_running_lp_ = static_cast<int>(lp.index());
  try {
    if (lp.horizon_ == kInfTime) {
      // Nothing can reach this LP again: drain it, and keep its clock at
      // its last event rather than at infinity.
      lp.engine_.run();
      lp.next_ = lp.engine_.next_event_time();
    } else {
      lp.next_ = lp.engine_.run_window(lp.horizon_, lp.closed_);
    }
  } catch (...) {
    errors_[lp.index()] = std::current_exception();
  }
  tl_running_lp_ = -1;
}

std::uint64_t ParallelEngine::claim_lps() {
  std::uint64_t t = ticket_.load(std::memory_order_acquire);
  while (static_cast<std::uint32_t>(t) != 0) {
    // A successful CAS proves the round is still open (its countdown
    // cannot finish without this LP), so busy_ and the horizons read below
    // are the ones the caller published with the ticket.
    if (!ticket_.compare_exchange_weak(t, t - 1, std::memory_order_acquire)) continue;
    const auto n = static_cast<unsigned>(busy_.size());
    run_lp(*busy_[static_cast<std::uint32_t>(t) - 1]);
    if (done_.fetch_add(1, std::memory_order_release) + 1 == n) done_.notify_one();
    --t;
  }
  return t;
}

void ParallelEngine::helper_loop() {
  for (;;) {
    // Check for the stop only after claiming: claim_lps() may itself have
    // read the stop ticket, which never changes again, and stopping_ is set
    // before that ticket is published.
    const std::uint64_t seen = claim_lps();
    if (stopping_.load()) return;
    for (int i = 0; i < spin_rounds_ && ticket_.load(std::memory_order_relaxed) == seen; ++i) {
      cpu_relax();
    }
    ticket_.wait(seen, std::memory_order_acquire);
  }
}

void ParallelEngine::dispatch_round() {
  const auto n = static_cast<unsigned>(busy_.size());
  done_.store(0, std::memory_order_relaxed);
  ticket_.store((++epoch_ << 32) | n, std::memory_order_release);
  ticket_.notify_all();
  claim_lps();
  unsigned d = done_.load(std::memory_order_acquire);
  if (d == n) return;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < spin_rounds_ && d != n; ++i) {
    cpu_relax();
    d = done_.load(std::memory_order_acquire);
  }
  while (d != n) {
    done_.wait(d, std::memory_order_acquire);
    d = done_.load(std::memory_order_acquire);
  }
  stats_.barrier_wait_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

ParallelEngine::Stats ParallelEngine::run_until(SimTime t_end) {
  compute_paths();
  // Events may have been scheduled, and messages sent, since the last call.
  for (auto& lp : lps_) lp->next_ = lp->engine_.next_event_time();
  deliver_inboxes();
  std::fill(errors_.begin(), errors_.end(), nullptr);
  for (;;) {
    // Only LPs with work below their horizon run; an idle LP's clock lags
    // harmlessly (it jumps forward when it next executes).
    plan_round(t_end);
    if (busy_.empty()) break;  // drained, or nothing left at or before t_end
    dispatched_ = !helpers_.empty() && busy_.size() > 1;
    if (dispatched_) {
      dispatch_round();
    } else {
      ++stats_.inline_windows;
      for (Lp* lp : busy_) run_lp(*lp);
    }

    // An LP that threw (budget trip or model exception) parked it; the
    // lowest index wins, whichever thread ran it.
    for (Lp* lp : busy_) {
      if (errors_[lp->index()]) std::rethrow_exception(errors_[lp->index()]);
    }

    deliver_inboxes();  // single-threaded phase
    ++stats_.windows;
  }

  return snapshot_stats();
}

}  // namespace lsds::core
