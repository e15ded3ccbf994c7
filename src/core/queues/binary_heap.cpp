#include "core/queues/binary_heap.hpp"

#include <utility>  // std::swap

namespace lsds::core {

void BinaryHeapQueue::push(EventRecord ev) {
  heap_.push_back(ev);
  sift_up(heap_.size() - 1);
}

EventRecord BinaryHeapQueue::pop() {
  const EventRecord top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  return top;
}

SimTime BinaryHeapQueue::min_time() {
  return heap_.empty() ? kInfTime : heap_.front().time;
}

void BinaryHeapQueue::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!(heap_[i] < heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void BinaryHeapQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t smallest = i;
    if (l < n && heap_[l] < heap_[smallest]) smallest = l;
    if (r < n && heap_[r] < heap_[smallest]) smallest = r;
    if (smallest == i) return;
    std::swap(heap_[i], heap_[smallest]);
    i = smallest;
  }
}

}  // namespace lsds::core
