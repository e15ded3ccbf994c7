#include "core/queues/sorted_list.hpp"

#include <algorithm>

namespace lsds::core {

void SortedListQueue::push(EventRecord ev) {
  const auto it = std::upper_bound(keys_.begin(), keys_.end(), ev,
                                   [](const EventRecord& a, const EventRecord& b) { return b < a; });
  keys_.insert(it, ev);
}

EventRecord SortedListQueue::pop() {
  const EventRecord ev = keys_.back();
  keys_.pop_back();
  return ev;
}

SimTime SortedListQueue::min_time() {
  return keys_.empty() ? kInfTime : keys_.back().time;
}

}  // namespace lsds::core
