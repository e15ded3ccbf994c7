// Calendar queue (R. Brown, CACM 1988) — the classic amortized-O(1)
// pending event set the paper alludes to with "a system using an O(1)
// structure for the event list will behave better".
//
// Events are hashed by timestamp into the "days" of a circular "year":
// day number d = floor(t / width) lands in bucket d mod nbuckets. The
// bucket count doubles/halves as the population changes, and the day width
// is re-estimated from the separation of the earliest pending events so
// that a day holds O(1) events on average. Brown re-estimates the width
// only when the bucket count changes, so a population of steady size whose
// spread drifts (the hold model) keeps a stale width and degrades to long
// scans. The queue therefore also measures its own cost — days walked and
// wrapped nodes skipped while finding the next day — and re-estimates the
// width at the same bucket count when a window of operations averages more
// than kMaxCostPerOp.
//
// Day numbers are integers. t / width is saturated at kMaxDay, so huge and
// infinite timestamps share the last day instead of overflowing; the day
// function is monotone in t, so an earlier day always holds earlier events.
//
// Inserts never walk a list. A bucket is an *unsorted* singly linked list,
// threaded through a paged node pool (fixed pages, never reallocated, with
// an intrusive free list), and holds every pending event of its days in any
// year: a push prepends in O(1) and allocates nothing once the pool has
// grown, and a resize relinks nodes instead of moving them. Order exists
// only for the current day: today_ holds every pending event of day
// today_day_ and earlier, sorted ascending from a moving head, so a pop
// advances the head. When today_ empties, the queue steps the day forward,
// unlinks that day's nodes from its bucket (skipping the wrapped nodes of
// later years) and sorts them into today_; a year with no event in it
// falls back to one direct minimum scan and jumps to that day. A push at
// or before the current day (an event scheduled during the current day, or
// earlier than one already peeked at) is a binary-search insert into
// today_. Ascending order makes the common cases O(1): a push later than
// the whole day, such as a run of simultaneous events in seq order,
// appends, and a new minimum takes the place the last pop freed. A
// descending vector popped from its back would shift every tie of the
// current instant on each such push — quadratic in the size of a
// simultaneous burst.
//
// min_time() shares pop's day advance, so it is amortized O(1) as well.
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
  SimTime min_time() override;
  std::size_t size() const override { return size_; }
  const char* name() const override { return "calendar-queue"; }

 private:
  using Day = std::uint64_t;
  static constexpr Day kMaxDay = Day{1} << 62;
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
  static constexpr std::uint32_t kPageBits = 10;
  static constexpr std::uint32_t kPageMask = (1u << kPageBits) - 1;

  Node& node(std::uint32_t i) { return pages_[i >> kPageBits][i & kPageMask]; }
  std::uint32_t alloc_node();
  void free_node(std::uint32_t n);
  Day day_of(SimTime t) const;
  /// Prepend `ev` to the bucket of its day `d` (> today_day_).
  void link(const EventRecord& ev, Day d);
  /// Sorted insert into today_.
  void insert_today(const EventRecord& ev);
  /// Erase today_'s popped places [0, head_).
  void drop_popped();
  /// Step today_day_ forward to the next day with events and move them
  /// into today_. Returns the days walked plus wrapped nodes skipped.
  /// Precondition: today_ is empty and size_ > 0.
  std::size_t advance();
  /// Unlink every node of day `d` from its bucket into today_. Returns the
  /// number of wrapped nodes (other days) skipped.
  std::size_t collect(Day d);
  void resize(std::size_t new_nbuckets);
  /// Brown's estimate: 3x the mean separation of the earliest kSampleSize
  /// of `times` (every pending time), which it reorders so that the
  /// earliest comes first.
  double estimate_width(std::vector<SimTime>& times) const;
  /// Charge one operation of the given cost; re-estimate the width when a
  /// window of buckets_.size() operations ran too expensive.
  void account(std::size_t cost);

  std::vector<std::uint32_t> buckets_;  // head node of each bucket's list, or kNil
  std::vector<std::unique_ptr<Node[]>> pages_;
  std::uint32_t node_count_ = 0;  // nodes handed out so far, across pages
  std::uint32_t free_ = kNil;     // head of the free-node list
  /// Days <= today_day_, ascending; [0, head_) is already popped, and the
  /// vector is cleared whenever the day runs out.
  std::vector<EventRecord> today_;
  std::size_t head_ = 0;
  Day today_day_ = 0;
  std::size_t size_ = 0;
  double width_ = 1.0;  // day width in seconds
  double inv_width_ = 1.0;
  std::size_t shrink_threshold_ = 0;
  std::size_t grow_threshold_ = 0;
  std::size_t window_ops_ = 0;   // operations since the window started
  std::size_t window_cost_ = 0;  // their summed cost
};

}  // namespace lsds::core
