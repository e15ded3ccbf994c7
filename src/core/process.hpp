// Process-oriented modeling layer on C++20 coroutines.
//
// MONARC 2 is "built based on a process oriented approach for discrete event
// simulation … Threaded objects or 'Active Objects' allow a natural way to
// map the specific behavior of distributed data processing into the
// simulation program". LSDS-Sim provides the same modeling style with
// coroutines instead of kernel threads: a Process is a resumable function
// whose suspension points are simulation-time operations —
//
//   Process worker(Engine& eng, Resource& cpu) {
//     co_await delay(eng, 1.5);            // hold for simulated time
//     co_await cpu.acquire(2);             // wait for 2 CPU units
//     ...
//     cpu.release(2);
//   }
//
// SimGrid-style agents communicating over channels are expressed with
// Channel<T> (typed, FIFO); Condition provides broadcast wakeups.
//
// Starting a process: calling the coroutine starts it now, and it runs to
// its first suspension inside the call. A process that starts later is
// started with start_at(eng, t, factory), never by a coroutine whose first
// act is co_await delay(eng, t - eng.now()): a frame exists only while its
// process runs. start_at() queues one event, and that event calls the
// factory, which creates the frame — so a study that submits 40,000 jobs
// up front holds 40,000 events, not 40,000 suspended frames.
//
// Lifetime rules:
//  * a coroutine whose first parameter is Engine& (or a member coroutine
//    whose first declared parameter is Engine&) is adopted by that engine;
//  * a start_at() start counts in live_processes() from the call; its start
//    event hands the count to the frame it creates, and a start that never
//    fires (a horizon cut) is destroyed, unrun, with the engine's events;
//  * frames self-destroy on completion; the engine destroys still-suspended
//    frames when it is itself destroyed;
//  * the engine finds its frames through an intrusive list: each promise
//    embeds a ProcessLink {prev, next, frame} (core/engine.hpp), linked at
//    creation and unlinked at completion, so spawning or finishing a
//    process is O(1) and allocates nothing beyond the frame itself, and
//    live_processes() is a counter;
//  * Resources/Channels/Conditions must outlive the processes awaiting them.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <exception>
#include <utility>
#include <vector>

#include "core/engine.hpp"

namespace lsds::core {

/// Detached handle type for simulation processes. The returned object is a
/// token only — the frame manages its own lifetime (see file comment).
class Process {
 public:
  struct promise_type {
    Engine* engine = nullptr;
    ProcessLink link;  // this frame's node in the engine's registry

    // Free-function coroutine: Process f(Engine&, ...).
    template <typename... Args>
    explicit promise_type(Engine& e, Args&&...) : engine(&e) {}
    // Member coroutine: Process C::f(Engine&, ...) — implicit object first.
    template <typename Obj, typename... Args>
    promise_type(Obj&, Engine& e, Args&&...) : engine(&e) {}

    Process get_return_object() {
      auto h = std::coroutine_handle<promise_type>::from_promise(*this);
      engine->adopt_coroutine(link, h);
      return Process{};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        h.promise().engine->drop_coroutine(h.promise().link);
        h.destroy();  // legal: the coroutine is suspended here
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }  // a crashed process is a model bug
  };
};

/// co_await delay(eng, dt): resume after dt simulated seconds.
struct DelayAwaiter {
  Engine& engine;
  SimTime dt;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine.schedule_in(dt, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};
inline DelayAwaiter delay(Engine& engine, SimTime dt) { return {engine, dt}; }

/// Start a process at simulated time `t`: queue one event there that calls
/// `factory(engine)`, which creates the coroutine and runs it to its first
/// suspension (see file comment). The event is keyed exactly as the
/// delay-first coroutine's initial `co_await delay(engine, t - now)` would
/// key it — at now + (t - now), with the next seq — so switching a process
/// to start_at() changes no trace. A past `t` is clamped to now and counted
/// in stats().past_clamped. The factory must be trivially copyable and
/// small (it is captured in the event's inline buffer):
///
///   core::start_at(eng, submit_at, [&ctx, job](Engine& e) { run_job(e, ctx, job); });
template <typename Factory>
void start_at(Engine& engine, SimTime t, Factory factory) {
  auto start = [eng = &engine, factory] {
    eng->release_deferred_start();
    factory(*eng);
  };
  static_assert(EventFn::fits_inline<decltype(start)>(),
                "start_at: the factory must be trivially copyable and fit EventFn's inline "
                "buffer; a heap box per start costs what deferring the frame saves");
  engine.hold_deferred_start();
  engine.schedule_in(t - engine.now(), start);
}

/// Counted resource with FIFO admission (CPU slots, disk drives, licenses…).
class Resource {
 public:
  Resource(Engine& engine, double capacity) : engine_(engine), capacity_(capacity) {}

  Resource(const Resource&) = delete;
  Resource& operator=(const Resource&) = delete;

  class AcquireAwaiter {
   public:
    AcquireAwaiter(Resource& res, double amount) : res_(res), amount_(amount) {}
    bool await_ready() {
      if (res_.waiters_.empty() && res_.fits(amount_)) {
        res_.in_use_ += amount_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) { res_.waiters_.push_back({amount_, h}); }
    void await_resume() const noexcept {}

   private:
    Resource& res_;
    double amount_;
  };

  /// co_await res.acquire(n). FIFO: a large request at the head blocks
  /// smaller ones behind it (no starvation).
  AcquireAwaiter acquire(double amount = 1) {
    assert(amount <= capacity_ && "request can never be satisfied");
    return AcquireAwaiter{*this, amount};
  }

  void release(double amount = 1) {
    in_use_ -= amount;
    if (in_use_ < 0) in_use_ = 0;
    grant();
  }

  double capacity() const { return capacity_; }
  double in_use() const { return in_use_; }
  double available() const { return capacity_ - in_use_; }
  std::size_t queue_length() const { return waiters_.size(); }

 private:
  struct Waiter {
    double amount;
    std::coroutine_handle<> handle;
  };

  bool fits(double amount) const { return in_use_ + amount <= capacity_ + 1e-9; }

  void grant() {
    while (!waiters_.empty() && fits(waiters_.front().amount)) {
      Waiter w = waiters_.front();
      waiters_.pop_front();
      in_use_ += w.amount;
      // Resume via the event queue (not inline) so wakeup order is part of
      // the deterministic event order and release() never recurses.
      engine_.schedule_in(0, [h = w.handle] { h.resume(); });
    }
  }

  Engine& engine_;
  double capacity_;
  double in_use_ = 0;
  std::deque<Waiter> waiters_;
};

/// Typed FIFO channel: SimGrid's "agents interact by sending and receiving
/// events via communication channels". Senders never block; receivers
/// co_await.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : engine_(engine) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T value) {
    items_.push_back(std::move(value));
    match();
  }

  class ReceiveAwaiter {
   public:
    explicit ReceiveAwaiter(Channel& ch) : ch_(ch) {}
    bool await_ready() {
      if (ch_.receivers_.empty() && ch_.reserved_ == 0 && !ch_.items_.empty()) {
        fast_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch_.receivers_.push_back(h);
      ch_.match();
    }
    T await_resume() {
      if (!fast_) --ch_.reserved_;
      T v = std::move(ch_.items_.front());
      ch_.items_.pop_front();
      return v;
    }

   private:
    Channel& ch_;
    bool fast_ = false;
  };

  /// co_await ch.receive() -> T.
  ReceiveAwaiter receive() { return ReceiveAwaiter{*this}; }

  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  std::size_t waiting_receivers() const { return receivers_.size(); }

 private:
  void match() {
    while (items_.size() > reserved_ && !receivers_.empty()) {
      auto h = receivers_.front();
      receivers_.pop_front();
      ++reserved_;
      engine_.schedule_in(0, [h] { h.resume(); });
    }
  }

  Engine& engine_;
  std::deque<T> items_;
  std::deque<std::coroutine_handle<>> receivers_;
  std::size_t reserved_ = 0;  // items earmarked for already-resumed receivers

  friend class ReceiveAwaiter;
};

/// Broadcast wakeup primitive.
class Condition {
 public:
  explicit Condition(Engine& engine) : engine_(engine) {}

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  struct WaitAwaiter {
    Condition& cond;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { cond.waiters_.push_back(h); }
    void await_resume() const noexcept {}
  };

  /// co_await cond.wait(): blocks until notify_one/notify_all.
  WaitAwaiter wait() { return WaitAwaiter{*this}; }

  void notify_one() {
    if (waiters_.empty()) return;
    auto h = waiters_.front();
    waiters_.erase(waiters_.begin());
    engine_.schedule_in(0, [h] { h.resume(); });
  }

  void notify_all() {
    for (auto h : waiters_) engine_.schedule_in(0, [h] { h.resume(); });
    waiters_.clear();
  }

  std::size_t waiting() const { return waiters_.size(); }

 private:
  Engine& engine_;
  // A vector, not a deque: models keep many short-lived conditions (one per
  // awaited file or fetch), and an empty vector allocates nothing.
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace lsds::core
