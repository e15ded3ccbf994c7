// Event records and handles.
//
// An event is a (timestamp, sequence-number, closure) triple. The sequence
// number imposes a total order on simultaneous events — FIFO among equal
// timestamps — which is what makes every run bit-reproducible for a fixed
// seed (the taxonomy's deterministic-behavior requirement).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "core/sim_time.hpp"

namespace lsds::core {

using EventId = std::uint64_t;

/// The event closure. A drop-in replacement for std::function<void()> on
/// the engine hot path: callables that are trivially copyable and fit the
/// inline buffer (the overwhelmingly common case — a captured `this` plus a
/// couple of ids) are stored in place, so schedule/pop never touches the
/// heap for them, and moving a record through a queue is a memcpy. Larger
/// or non-trivial callables (e.g. lambdas owning a std::function callback)
/// fall back to a heap box whose move is a pointer steal. Move-only, which
/// also lets events own move-only resources — something std::function
/// forbids.
class EventFn {
 public:
  /// Inline capacity: enough for several captured pointers/ids. EventRecord
  /// stays cache-friendly (time + seq + fn = 80 bytes).
  static constexpr std::size_t kInlineCapacity = 48;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cv_t<std::remove_reference_t<F>>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(inline_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    } else {
      heap_ = new Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { delete static_cast<Fn*>(p); };
    }
  }

  EventFn(EventFn&& other) noexcept { steal(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { invoke_(destroy_ ? heap_ : static_cast<void*>(inline_)); }
  explicit operator bool() const noexcept { return invoke_ != nullptr; }

 private:
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
  }

  void reset() noexcept {
    if (destroy_) destroy_(heap_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

  void steal(EventFn& other) noexcept {
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    if (destroy_) {
      heap_ = other.heap_;
    } else if (invoke_) {
      std::memcpy(inline_, other.inline_, kInlineCapacity);
    }
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  union {
    alignas(std::max_align_t) unsigned char inline_[kInlineCapacity];
    void* heap_;
  };
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;  // non-null iff heap-boxed
};

struct EventRecord {
  SimTime time = 0;
  EventId seq = 0;  // engine-assigned, unique (assigned in schedule order)
  EventFn fn;

  /// Total order: earlier time first, then earlier schedule order.
  friend bool operator<(const EventRecord& a, const EventRecord& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};

/// Key-only view used by queue implementations for comparisons.
struct EventKey {
  SimTime time;
  EventId seq;
  friend bool operator<(const EventKey& a, const EventKey& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  friend bool operator==(const EventKey& a, const EventKey& b) {
    return a.time == b.time && a.seq == b.seq;
  }
};

inline EventKey key_of(const EventRecord& ev) { return {ev.time, ev.seq}; }

/// Cancellation handle returned by Engine::schedule_*.
///
/// Cancellation is O(1): the engine tombstones the id and skips the record
/// when it surfaces — the optimization the paper lists under "optimizations
/// adopted in the design of the simulation engine".
struct EventHandle {
  EventId id = 0;
  SimTime time = 0;
  bool valid() const { return id != 0; }
};

}  // namespace lsds::core
