#include "core/queues/calendar_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace lsds::core {

namespace {
constexpr std::size_t kMinBuckets = 2;
constexpr std::size_t kSampleSize = 25;
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

void CalendarQueue::insert_sorted(Bucket& b, EventRecord ev) {
  auto it = b.end();
  while (it != b.begin()) {
    auto prev = std::prev(it);
    if (!(ev < *prev)) break;
    it = prev;
  }
  b.insert(it, std::move(ev));
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
  insert_sorted(buckets_[bucket_of(ev.time)], std::move(ev));
  ++size_;
  if (size_ > grow_threshold_) resize(buckets_.size() * 2);
}

bool CalendarQueue::locate_min(std::size_t& bucket_out, bool& via_direct_scan) const {
  if (size_ == 0) return false;
  std::size_t i = last_bucket_;
  double top = bucket_top_;
  for (std::size_t walked = 0; walked < buckets_.size(); ++walked) {
    const Bucket& b = buckets_[i];
    if (!b.empty() && b.front().time < top) {
      bucket_out = i;
      via_direct_scan = false;
      return true;
    }
    i = (i + 1) % buckets_.size();
    top += width_;
  }
  // Rare fallback: the next event lies beyond this calendar year. Direct scan.
  std::size_t best = buckets_.size();
  for (std::size_t j = 0; j < buckets_.size(); ++j) {
    if (buckets_[j].empty()) continue;
    if (best == buckets_.size() || buckets_[j].front() < buckets_[best].front()) best = j;
  }
  bucket_out = best;
  via_direct_scan = true;
  return true;
}

EventRecord CalendarQueue::pop() {
  std::size_t i = 0;
  bool direct = false;
  locate_min(i, direct);
  Bucket& b = buckets_[i];
  EventRecord ev = std::move(b.front());
  b.pop_front();
  --size_;

  last_bucket_ = i;
  last_prio_ = ev.time;
  if (direct) {
    // Re-anchor the year on the dequeued event's day.
    const double day = std::floor(ev.time / width_);
    bucket_top_ = (day + 1.0) * width_;
  } else {
    // Advance bucket_top_ to the window in which we found the event.
    const double day = std::floor(ev.time / width_);
    bucket_top_ = (day + 1.0) * width_;
  }

  if (buckets_.size() > kMinBuckets && size_ < shrink_threshold_) {
    resize(buckets_.size() / 2);
  }
  return ev;
}

SimTime CalendarQueue::min_time() const {
  std::size_t i = 0;
  bool direct = false;
  if (!locate_min(i, direct)) return kInfTime;
  return buckets_[i].front().time;
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
    for (const EventRecord& ev : b) times.push_back(ev.time);
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

  for (Bucket& b : old) {
    for (EventRecord& ev : b) {
      insert_sorted(buckets_[bucket_of(ev.time)], std::move(ev));
    }
  }
  // Re-anchor the dequeue cursor on the last dequeued priority.
  last_bucket_ = bucket_of(last_prio_);
  const double day = std::floor(last_prio_ / width_);
  bucket_top_ = (day + 1.0) * width_;
}

}  // namespace lsds::core
