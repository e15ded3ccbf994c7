// Calendar queue (R. Brown, CACM 1988) — the classic amortized-O(1)
// pending event set the paper alludes to with "a system using an O(1)
// structure for the event list will behave better".
//
// Events are hashed into "days" (buckets) of a circular "year" by
// timestamp; dequeue walks the calendar from the bucket of the last
// dequeued event. The bucket count doubles/halves as the population
// changes, and the bucket width is re-estimated from a sample of the
// earliest events so that a bucket holds O(1) events on average.
//
// min_time() requires a calendar scan (worst case O(nbuckets)); the Engine
// therefore avoids polling it per event (see Engine::run_until).
#pragma once

#include <cstddef>
#include <list>
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
  using Bucket = std::list<EventRecord>;  // kept sorted ascending

  std::size_t bucket_of(SimTime t) const;
  void insert_sorted(Bucket& b, EventRecord ev);
  void resize(std::size_t new_nbuckets);
  double estimate_width() const;
  /// Locate the next event to dequeue: (bucket index, year-walk state).
  /// Returns false when empty.
  bool locate_min(std::size_t& bucket_out, bool& via_direct_scan) const;

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;
  double width_ = 1.0;          // bucket width in seconds
  std::size_t last_bucket_ = 0; // where the last dequeue left off
  double bucket_top_ = 1.0;     // upper time edge of last_bucket_'s window
  double last_prio_ = 0.0;      // last dequeued time, lowered by earlier pushes
  std::size_t shrink_threshold_ = 0;
  std::size_t grow_threshold_ = 0;
};

}  // namespace lsds::core
