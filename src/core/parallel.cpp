#include "core/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>

namespace lsds::core {

namespace {

// Busy-wait rounds before a waiting thread blocks in std::atomic::wait. A
// window with a handful of events lasts microseconds, far less than a futex
// sleep/wake round trip, so waiters poll first and only sleep through long
// pauses (the caller building the next window's inboxes, or idle engines).
// With more threads than hardware threads a spinning waiter only steals the
// core a working thread needs, so then nobody spins.
constexpr int kSpinRounds = 4096;

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
  if (!(cfg.lookahead > 0)) {
    throw std::invalid_argument("ParallelEngine: lookahead must be > 0 (got " +
                                std::to_string(cfg.lookahead) + ")");
  }
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
      rng_(seed) {}

void ParallelEngine::Lp::schedule_at(SimTime t, EventFn fn) {
  engine_.schedule_at(t, std::move(fn));
}

void ParallelEngine::Lp::send(unsigned dst_lp, SimTime t, EventFn fn) {
  if (dst_lp >= parent_.num_lps()) {
    throw std::out_of_range("ParallelEngine::Lp::send: dst_lp " + std::to_string(dst_lp) +
                            " out of range (num_lps() = " +
                            std::to_string(parent_.num_lps()) + ")");
  }
  if (dst_lp == index_) {
    schedule_at(t, std::move(fn));
    return;
  }
  // Conservative correctness: a message must not arrive inside the window
  // that is currently being processed in parallel.
  if (t < parent_.window_end_) {
    t = parent_.window_end_;
    parent_.la_violations_.fetch_add(1, std::memory_order_relaxed);
  }
  // Only a window shared with helpers has concurrent senders.
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
    // Sends clamp to the window end, which no LP clock has passed, so
    // delivery never clamps and the earliest message is the new bound.
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

void ParallelEngine::run_lp(Lp& lp) {
  tl_running_lp_ = static_cast<int>(lp.index());
  try {
    lp.next_ = lp.engine_.run_window(window_end_, final_window_);
  } catch (...) {
    errors_[lp.index()] = std::current_exception();
  }
  tl_running_lp_ = -1;
}

std::uint64_t ParallelEngine::claim_lps() {
  std::uint64_t t = ticket_.load(std::memory_order_acquire);
  while (static_cast<std::uint32_t>(t) != 0) {
    // A successful CAS proves the window is still open (its countdown
    // cannot finish without this LP), so busy_ and the window bounds read
    // below are the ones the caller published with the ticket.
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

void ParallelEngine::dispatch_window() {
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
  // Events may have been scheduled directly since the last call.
  for (auto& lp : lps_) lp->next_ = lp->engine_.next_event_time();
  std::fill(errors_.begin(), errors_.end(), nullptr);
  for (;;) {
    // Conservative time advance: the next window starts at the earliest
    // pending event anywhere — empty stretches of virtual time cost no
    // windows (and no barriers).
    SimTime next = kInfTime;
    for (auto& lp : lps_) next = std::min(next, lp->next_);
    if (next == kInfTime) break;  // drained
    if (next > t_end) {
      window_start_ = t_end;
      break;
    }
    window_start_ = std::max(window_start_, next);

    window_end_ = std::min(window_start_ + cfg_.lookahead, t_end);
    final_window_ = (window_end_ >= t_end);

    // Only LPs with work inside the window run; an idle LP's clock lags
    // harmlessly (it jumps forward when it next executes).
    busy_.clear();
    for (auto& lp : lps_) {
      if (final_window_ ? (lp->next_ <= window_end_) : (lp->next_ < window_end_)) {
        busy_.push_back(lp.get());
      }
    }
    dispatched_ = !helpers_.empty() && busy_.size() > 1;
    if (dispatched_) {
      dispatch_window();
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
    window_start_ = window_end_;
  }

  return snapshot_stats();
}

}  // namespace lsds::core
