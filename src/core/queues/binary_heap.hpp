// Implicit binary min-heap over a contiguous vector — the O(log n) default.
//
// Hand-rolled rather than std::priority_queue so that pop returns the key
// directly and min_time is O(1).
#pragma once

#include <vector>

#include "core/event_queue.hpp"

namespace lsds::core {

class BinaryHeapQueue final : public EventQueue {
 public:
  void push(EventRecord ev) override;
  EventRecord pop() override;
  SimTime min_time() override;
  std::size_t size() const override { return heap_.size(); }
  const char* name() const override { return "binary-heap"; }

 private:
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<EventRecord> heap_;  // heap_[0] is the minimum
};

}  // namespace lsds::core
