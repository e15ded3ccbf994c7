#include "core/queues/calendar_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace lsds::core {

namespace {
constexpr std::size_t kMinBuckets = 2;
constexpr std::size_t kSampleSize = 25;
constexpr std::size_t kMaxCostPerOp = 4;
}  // namespace

CalendarQueue::CalendarQueue() {
  buckets_.resize(kMinBuckets);
  width_ = 1.0;
  last_bucket_ = 0;
  bucket_top_ = width_;
  grow_threshold_ = 2 * buckets_.size();
  shrink_threshold_ = 0;  // never shrink below kMinBuckets
}

std::size_t CalendarQueue::bucket_of(SimTime t) const {
  // Hash by virtual day number. Guard against enormous quotients.
  const double day = t / width_;
  const auto n = static_cast<unsigned long long>(day);
  return static_cast<std::size_t>(n % buckets_.size());
}

std::uint32_t CalendarQueue::alloc_node() {
  if (free_ != kNil) {
    const std::uint32_t n = free_;
    free_ = node(n).next;
    return n;
  }
  if ((node_count_ & kPageMask) == 0) {
    pages_.push_back(std::make_unique_for_overwrite<Node[]>(std::size_t{1} << kPageBits));
  }
  return node_count_++;
}

std::size_t CalendarQueue::insert_sorted(Bucket& b, std::uint32_t n) {
  Node& nd = node(n);
  const EventRecord key = nd.key();
  if (b.head == kNil || !(key < node(b.tail).key())) {  // empty, or at or past the tail
    nd.next = kNil;
    (b.head == kNil ? b.head : node(b.tail).next) = n;
    b.tail = n;
    return 0;
  }
  if (key < node(b.head).key()) {
    nd.next = b.head;
    b.head = n;
    return 0;
  }
  std::size_t passed = 1;
  std::uint32_t prev = b.head;
  for (; !(key < node(node(prev).next).key()); ++passed) prev = node(prev).next;
  nd.next = node(prev).next;
  node(prev).next = n;
  return passed;
}

void CalendarQueue::account(std::size_t cost) {
  window_cost_ += cost;
  if (++window_ops_ < buckets_.size()) return;
  const bool too_slow = window_cost_ > kMaxCostPerOp * window_ops_;
  window_ops_ = 0;
  window_cost_ = 0;
  if (too_slow) resize(buckets_.size());
}

void CalendarQueue::push(EventRecord ev) {
  // Non-monotone insert: an event earlier than the current day breaks the
  // dequeue-scan invariant (no pending event before the anchor day), which
  // would make locate_min return a bucket-order event instead of the true
  // minimum. Re-anchor the cursor on the new event's day. This happens when
  // an event is popped, found past a horizon and requeued (Engine::run_until
  // / run_window), and earlier events are scheduled afterwards.
  if (ev.time < bucket_top_ - width_) {
    last_bucket_ = bucket_of(ev.time);
    const double day = std::floor(ev.time / width_);
    bucket_top_ = (day + 1.0) * width_;
  }
  // resize() re-anchors on last_prio_, so it must stay a lower bound on
  // every pending time: a later resize with a narrower width would
  // otherwise anchor past this event's new day and return it late.
  if (ev.time < last_prio_) last_prio_ = ev.time;
  const std::uint32_t n = alloc_node();
  node(n) = Node{ev.time, ev.seq, ev.slot, kNil};
  const std::size_t passed = insert_sorted(buckets_[bucket_of(ev.time)], n);
  ++size_;
  if (size_ > grow_threshold_) {
    resize(buckets_.size() * 2);
  } else {
    account(passed);
  }
}

std::size_t CalendarQueue::locate_min(std::size_t& bucket_out) const {
  std::size_t i = last_bucket_;
  double top = bucket_top_;
  for (std::size_t walked = 0; walked < buckets_.size(); ++walked) {
    const Bucket& b = buckets_[i];
    if (b.head != kNil && node(b.head).time < top) {
      bucket_out = i;
      return walked;
    }
    i = (i + 1) % buckets_.size();
    top += width_;
  }
  // Rare fallback: the next event lies beyond this calendar year. Direct scan.
  std::size_t best = buckets_.size();
  for (std::size_t j = 0; j < buckets_.size(); ++j) {
    if (buckets_[j].head == kNil) continue;
    if (best == buckets_.size() ||
        node(buckets_[j].head).key() < node(buckets_[best].head).key()) {
      best = j;
    }
  }
  bucket_out = best;
  return buckets_.size();
}

EventRecord CalendarQueue::pop() {
  std::size_t i = 0;
  const std::size_t walked = locate_min(i);
  Bucket& b = buckets_[i];
  const std::uint32_t n = b.head;
  const EventRecord ev = node(n).key();
  b.head = node(n).next;
  if (b.head == kNil) b.tail = kNil;
  node(n).next = free_;
  free_ = n;
  --size_;

  // Anchor the year on the dequeued event's day: the window the walk found
  // it in, or (after a direct scan) the day it lies beyond the year in.
  last_bucket_ = i;
  last_prio_ = ev.time;
  bucket_top_ = (std::floor(ev.time / width_) + 1.0) * width_;

  if (buckets_.size() > kMinBuckets && size_ < shrink_threshold_) {
    resize(buckets_.size() / 2);
  } else {
    account(walked);
  }
  return ev;
}

SimTime CalendarQueue::min_time() const {
  if (size_ == 0) return kInfTime;
  std::size_t i = 0;
  locate_min(i);
  return node(buckets_[i].head).time;
}

double CalendarQueue::estimate_width() const {
  if (size_ < 2) return 1.0;
  // Brown's heuristic estimates the width from the separation of the
  // *earliest* pending events (the ones about to be dequeued). Gather all
  // timestamps (resize is O(n) anyway), pull the kSampleSize smallest with
  // nth_element, and use 3x their average separation.
  std::vector<SimTime> times;
  times.reserve(size_);
  for (const Bucket& b : buckets_) {
    for (std::uint32_t n = b.head; n != kNil; n = node(n).next) times.push_back(node(n).time);
  }
  const std::size_t k = std::min<std::size_t>(kSampleSize, times.size());
  std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   times.end());
  std::sort(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k));
  double sum = 0;
  std::size_t n = 0;
  for (std::size_t i = 1; i < k; ++i) {
    sum += times[i] - times[i - 1];
    ++n;
  }
  if (n == 0 || sum <= 0) return width_;  // all simultaneous: keep current width
  const double avg_sep = sum / static_cast<double>(n);
  return std::max(3.0 * avg_sep, 1e-9);
}

void CalendarQueue::resize(std::size_t new_nbuckets) {
  new_nbuckets = std::max(new_nbuckets, kMinBuckets);
  const double new_width = estimate_width();

  std::vector<Bucket> old = std::move(buckets_);
  buckets_.clear();
  buckets_.resize(new_nbuckets);
  width_ = new_width;
  grow_threshold_ = 2 * new_nbuckets;
  shrink_threshold_ = new_nbuckets / 2;
  window_ops_ = 0;
  window_cost_ = 0;

  for (const Bucket& b : old) {
    for (std::uint32_t n = b.head; n != kNil;) {
      const std::uint32_t next = node(n).next;
      insert_sorted(buckets_[bucket_of(node(n).time)], n);
      n = next;
    }
  }
  // Re-anchor the dequeue cursor on the last dequeued priority.
  last_bucket_ = bucket_of(last_prio_);
  const double day = std::floor(last_prio_ / width_);
  bucket_top_ = (day + 1.0) * width_;
}

}  // namespace lsds::core
