// The pending event set, as a pluggable strategy.
//
// The paper's engine-implementation axis singles out the event-list queuing
// structure as the dominant performance factor: "A system using an O(1)
// structure for the event list will behave better than another one using an
// O(log n) queuing structure", while noting that "they all tend to behave
// different depending on various parameters". To let one engine test that
// claim, the pending set is an abstract interface with five implementations:
//
//   kSortedList     O(n) insert, O(1) pop — the naive baseline
//   kBinaryHeap     O(log n) insert/pop — the textbook default
//   kSplayTree      amortized O(log n), fast on access locality
//   kCalendarQueue  amortized O(1) (Brown 1988)
//   kLadderQueue    amortized O(1) (Tang et al. 2005), robust to skew
//
// bench_event_queues (experiment E1) compares them under the classic
// hold model and under skewed increment distributions.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "core/event.hpp"

namespace lsds::core {

/// A container of event keys: the engine keeps event bodies in its own slab
/// (core/engine.hpp), so a queue only orders and moves 24-byte records.
class EventQueue {
 public:
  virtual ~EventQueue() = default;

  /// Insert an event key. `seq` values must be unique.
  virtual void push(EventRecord ev) = 0;

  /// Remove and return the minimum key. Precondition: !empty().
  virtual EventRecord pop() = 0;

  /// Timestamp of the minimum event, or kInfTime when empty. Not const: a
  /// queue may reorganise itself to answer (the calendar queue moves the
  /// next day's events into its sorted current day, as pop() would).
  virtual SimTime min_time() = 0;

  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  /// Implementation name for reports.
  virtual const char* name() const = 0;
};

enum class QueueKind {
  kSortedList,
  kBinaryHeap,
  kSplayTree,
  kCalendarQueue,
  kLadderQueue,
};

const char* to_string(QueueKind kind);

/// Factory. Every implementation is a drop-in replacement for the others.
std::unique_ptr<EventQueue> make_event_queue(QueueKind kind);

/// All kinds, for parameterized tests and benches.
inline constexpr QueueKind kAllQueueKinds[] = {
    QueueKind::kSortedList,  QueueKind::kBinaryHeap,   QueueKind::kSplayTree,
    QueueKind::kCalendarQueue, QueueKind::kLadderQueue,
};

}  // namespace lsds::core
