// Ladder queue (Tang, Goh, Thng, ACM TOMACS 2005) — an amortized-O(1)
// pending event set that, unlike the calendar queue, does not depend on a
// well-tuned bucket width: buckets are created lazily ("rungs" of a ladder)
// only for the time range currently being dequeued, which makes it robust
// to skewed timestamp distributions.
//
// Structure:
//   Top    — unsorted spill area for far-future events (O(1) append);
//   Ladder — rungs of progressively finer buckets, created on demand when
//            Top or an oversized bucket is split;
//   Bottom — a small sorted vector, kept descending so that the next event
//            to dequeue is popped off its back.
//
// This implementation follows the paper's algorithm with the standard
// simplifications: a bucket whose events are all simultaneous (or the
// maximum rung depth) is sorted straight into Bottom instead of spawning
// another rung. Events at kInfTime never enter a rung beside finite ones:
// a transfer spans the rung over Top's largest finite time and leaves the
// infinite keys in Top, so they pop last.
//
// Storage is recycled, so a steady-state push/pop pair does not allocate.
// A rung that empties stays in rungs_ and is reused, bucket array intact,
// by the next spawn at its depth. Draining a bucket copies it into Bottom,
// whose buffer is kept, and empties the bucket in place. A bucket index
// covers a different time range in every epoch, though, so a kept buffer
// would grow to the largest occupancy its index ever had (across the 50k
// buckets of a 25k-peer Chord run that is ~1M events, 17 MB): a drained
// bucket above kKeptBucketCapacity frees its buffer instead, and Top frees
// its buffer when it moves to the ladder.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/event_queue.hpp"

namespace lsds::core {

class LadderQueue final : public EventQueue {
 public:
  LadderQueue();

  void push(EventRecord ev) override;
  EventRecord pop() override;
  SimTime min_time() override;
  std::size_t size() const override { return size_; }
  const char* name() const override { return "ladder-queue"; }

 private:
  struct Rung {
    double start = 0;        // time of bucket 0's left edge
    double width = 0;        // bucket width
    std::size_t cur = 0;     // next bucket index to drain
    std::size_t n = 0;       // buckets in use; buckets.size() may be larger
    std::vector<std::vector<EventRecord>> buckets;  // all empty outside [cur, n)
    std::size_t count = 0;   // events in this rung

    std::size_t bucket_of(SimTime t) const;
  };

  /// Empty a drained bucket, keeping its buffer only if it is small.
  static void release(std::vector<EventRecord>& bucket);
  /// Make rungs_[depth_] the new innermost rung and copy `events` into it.
  void spawn_rung(std::span<const EventRecord> events, double start, double end);
  void transfer_top_to_ladder();
  /// Drain the next non-empty bucket of the innermost rung into Bottom
  /// (or a finer rung). Returns false when the ladder is empty.
  bool advance_ladder();

  std::vector<EventRecord> top_;  // unsorted
  double top_min_ = kInfTime;
  double top_max_ = -kInfTime;
  double top_start_ = 0;  // events with time >= top_start_ go to Top

  // rungs_[0, depth_) is the ladder, outermost first. A rung past depth_
  // is spent but keeps its bucket array for the next spawn at its depth.
  std::vector<Rung> rungs_;
  std::size_t depth_ = 0;

  std::vector<EventRecord> bottom_;  // sorted descending: the minimum is at the back

  std::size_t size_ = 0;
  static constexpr std::size_t kBottomThreshold = 50;
  static constexpr std::size_t kMaxRungs = 8;
  static constexpr std::size_t kKeptBucketCapacity = 8;
};

}  // namespace lsds::core
