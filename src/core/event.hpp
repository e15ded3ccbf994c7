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
/// heap for them, and moving one is a memcpy. Larger, over-aligned or
/// non-trivial callables (e.g. lambdas owning a std::function callback)
/// fall back to a heap box whose move is a pointer steal. Move-only, which
/// also lets events own move-only resources — something std::function
/// forbids.
///
/// 56 bytes: the inline buffer plus one pointer to a static {invoke,
/// destroy} table, so an engine slab slot (fn + owning seq) is one 64-byte
/// cache line.
class EventFn {
 public:
  /// Inline capacity: enough for several captured pointers/ids.
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
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kBoxedOps<Fn>;
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

  void operator()() { ops_->invoke(storage_); }
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// True when a callable of type Fn is stored in place, with no heap box:
  /// what a caller static_asserts to keep a per-event closure allocation-free.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineCapacity && alignof(Fn) <= alignof(void*) &&
           std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage);  // null for inline (trivially destructible) callables
  };

  template <typename Fn>
  static constexpr Ops kInlineOps{[](void* p) { (*static_cast<Fn*>(p))(); }, nullptr};
  template <typename Fn>
  static constexpr Ops kBoxedOps{[](void* p) { (**static_cast<Fn**>(p))(); },
                                 [](void* p) { delete *static_cast<Fn**>(p); }};

  void reset() noexcept {
    if (ops_ && ops_->destroy) ops_->destroy(storage_);
    ops_ = nullptr;
  }

  // Both representations are trivially relocatable: an inline callable is
  // trivially copyable, a boxed one is a pointer in storage_.
  void steal(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_) std::memcpy(storage_, other.storage_, kInlineCapacity);
    other.ops_ = nullptr;
  }

  alignas(void*) unsigned char storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};
static_assert(sizeof(EventFn) == 56);

/// Sentinel slot of a key that owns no body (a reservation not yet queued).
inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

/// One pending-set entry: the key every queue orders by, plus the engine
/// slab slot that holds the event's body. Queues never see the body.
struct EventRecord {
  SimTime time = 0;
  EventId seq = 0;  // engine-assigned, unique (assigned in schedule order)
  std::uint32_t slot = kNoSlot;

  /// Total order: earlier time first, then earlier schedule order.
  friend bool operator<(const EventRecord& a, const EventRecord& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
};
static_assert(sizeof(EventRecord) <= 24);

/// Cancellation handle returned by Engine::schedule_*.
///
/// Cancellation is O(1): the body lives in an engine slab slot stamped with
/// the owning event's seq. Cancel frees the slot at once; the key stays
/// queued and is skipped when it surfaces, because its seq no longer
/// matches the slot's stamp — the optimization the paper lists under
/// "optimizations adopted in the design of the simulation engine". Seqs are
/// unique, so a stale handle can never cancel the slot's next occupant.
struct EventHandle {
  EventId id = 0;
  SimTime time = 0;
  std::uint32_t slot = kNoSlot;  // kNoSlot for a reservation (not cancellable)
  bool valid() const { return id != 0; }
};

}  // namespace lsds::core
