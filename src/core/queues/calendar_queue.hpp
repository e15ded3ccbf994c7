// Calendar queue (R. Brown, CACM 1988) — the classic amortized-O(1)
// pending event set the paper alludes to with "a system using an O(1)
// structure for the event list will behave better".
//
// Events are hashed into "days" (buckets) of a circular "year" by
// timestamp; dequeue walks the calendar from the bucket of the last
// dequeued event. The bucket count doubles/halves as the population
// changes, and the bucket width is re-estimated from a sample of the
// earliest events so that a bucket holds O(1) events on average.
// Brown re-estimates the width only when the bucket count changes, so a
// population of steady size whose spread drifts (the hold model) keeps a
// stale width and degrades to long bucket scans. The queue therefore also
// measures its own cost — nodes passed per insert, buckets walked per
// dequeue — and re-estimates the width at the same bucket count when a
// window of operations averages more than kMaxCostPerOp.
//
// min_time() requires a calendar scan (worst case O(nbuckets)); the Engine
// therefore avoids polling it per event (see Engine::run_until).
//
// A bucket is a singly linked list threaded through a paged node pool
// (fixed pages, never reallocated, with an intrusive free list), so a push
// allocates nothing once the pool has grown and a resize relinks nodes
// instead of moving them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/event_queue.hpp"

namespace lsds::core {

class CalendarQueue final : public EventQueue {
 public:
  CalendarQueue();

  void push(EventRecord ev) override;
  EventRecord pop() override;
  SimTime min_time() const override;
  std::size_t size() const override { return size_; }
  const char* name() const override { return "calendar-queue"; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// A pooled list node: the key with the link packed into its padding.
  struct Node {
    SimTime time;
    EventId seq;
    std::uint32_t slot;
    std::uint32_t next;  // next node in the bucket (or the free list), kNil at the end

    EventRecord key() const { return {time, seq, slot}; }
  };
  static_assert(sizeof(Node) == 24);
  /// Ascending list of nodes; the tail makes the common append O(1).
  struct Bucket {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };
  static constexpr std::uint32_t kPageBits = 10;
  static constexpr std::uint32_t kPageMask = (1u << kPageBits) - 1;

  Node& node(std::uint32_t i) { return pages_[i >> kPageBits][i & kPageMask]; }
  const Node& node(std::uint32_t i) const { return pages_[i >> kPageBits][i & kPageMask]; }
  std::uint32_t alloc_node();
  std::size_t bucket_of(SimTime t) const;
  /// Link node `n` into bucket `b` at its ascending (time, seq) position.
  /// Returns the number of nodes passed on the way.
  std::size_t insert_sorted(Bucket& b, std::uint32_t n);
  void resize(std::size_t new_nbuckets);
  double estimate_width() const;
  /// Locate the bucket holding the next event to dequeue. Returns the
  /// number of buckets walked (the bucket count for the direct-scan
  /// fallback). Precondition: size_ > 0.
  std::size_t locate_min(std::size_t& bucket_out) const;
  /// Charge one operation of the given cost; re-estimate the width when a
  /// window of buckets_.size() operations ran too expensive.
  void account(std::size_t cost);

  std::vector<Bucket> buckets_;
  std::vector<std::unique_ptr<Node[]>> pages_;
  std::uint32_t node_count_ = 0;  // nodes handed out so far, across pages
  std::uint32_t free_ = kNil;     // head of the free-node list
  std::size_t size_ = 0;
  double width_ = 1.0;          // bucket width in seconds
  std::size_t last_bucket_ = 0; // where the last dequeue left off
  double bucket_top_ = 1.0;     // upper time edge of last_bucket_'s window
  double last_prio_ = 0.0;      // last dequeued time, lowered by earlier pushes
  std::size_t shrink_threshold_ = 0;
  std::size_t grow_threshold_ = 0;
  std::size_t window_ops_ = 0;   // operations since the window started
  std::size_t window_cost_ = 0;  // their summed cost
};

}  // namespace lsds::core
