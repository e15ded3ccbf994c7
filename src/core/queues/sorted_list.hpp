// O(n)-insert sorted vector — the naive pending-set baseline.
//
// Kept descending so that pop takes the minimum off the back in O(1);
// insertion binary-searches its place and shifts the later-dequeued keys
// up by one, which for 24-byte keys is one memmove.
#pragma once

#include <vector>

#include "core/event_queue.hpp"

namespace lsds::core {

class SortedListQueue final : public EventQueue {
 public:
  void push(EventRecord ev) override;
  EventRecord pop() override;
  SimTime min_time() override;
  std::size_t size() const override { return keys_.size(); }
  const char* name() const override { return "sorted-list"; }

 private:
  std::vector<EventRecord> keys_;  // descending (time, seq): the minimum is at the back
};

}  // namespace lsds::core
