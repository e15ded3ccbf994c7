#include "core/queues/calendar_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace lsds::core {

namespace {
constexpr std::size_t kMinBuckets = 2;  // bucket counts stay powers of two
constexpr std::size_t kSampleSize = 25;
constexpr std::size_t kMaxCostPerOp = 4;

}  // namespace

CalendarQueue::CalendarQueue() {
  buckets_.assign(kMinBuckets, kNil);
  grow_threshold_ = 2 * buckets_.size();
  shrink_threshold_ = 0;  // never shrink below kMinBuckets
}

CalendarQueue::Day CalendarQueue::day_of(SimTime t) const {
  const double x = t * inv_width_;
  if (x < static_cast<double>(kMaxDay)) return x > 0 ? static_cast<Day>(x) : 0;
  return kMaxDay;  // huge and infinite times share the last day
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

void CalendarQueue::free_node(std::uint32_t n) {
  node(n).next = free_;
  free_ = n;
}

void CalendarQueue::link(const EventRecord& ev, Day d) {
  std::uint32_t& head = buckets_[d & (buckets_.size() - 1)];
  const std::uint32_t n = alloc_node();
  node(n) = Node{ev.time, ev.seq, ev.slot, head};
  head = n;
}

void CalendarQueue::insert_today(const EventRecord& ev) {
  if (head_ > 0 && ev < today_[head_]) {  // a new minimum takes a popped place
    today_[--head_] = ev;
    return;
  }
  if (head_ >= today_.size() - head_) drop_popped();  // amortized over the pops
  today_.insert(std::upper_bound(today_.begin() + static_cast<std::ptrdiff_t>(head_),
                                 today_.end(), ev),
                ev);
}

void CalendarQueue::drop_popped() {
  today_.erase(today_.begin(), today_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
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
  const Day d = day_of(ev.time);
  if (size_ == 0) today_day_ = d;  // an empty queue starts its calendar here
  if (d <= today_day_) {
    insert_today(ev);
  } else {
    link(ev, d);
  }
  ++size_;
  if (size_ > grow_threshold_) {
    resize(buckets_.size() * 2);
  } else {
    account(0);
  }
}

std::size_t CalendarQueue::collect(Day d) {
  std::size_t skipped = 0;
  for (std::uint32_t* at = &buckets_[d & (buckets_.size() - 1)]; *at != kNil;) {
    Node& nd = node(*at);
    if (day_of(nd.time) == d) {
      today_.push_back(nd.key());
      const std::uint32_t n = *at;
      *at = nd.next;
      free_node(n);
    } else {
      at = &nd.next;
      ++skipped;
    }
  }
  return skipped;
}

std::size_t CalendarQueue::advance() {
  assert(today_.empty() && size_ > 0);
  std::size_t cost = 0;
  for (std::size_t walked = 0; walked < buckets_.size() && today_.empty(); ++walked) {
    cost += 1 + collect(++today_day_);
  }
  if (today_.empty()) {
    // A year with no event in it: one direct scan finds the earliest day.
    Day first = kMaxDay;
    for (const std::uint32_t head : buckets_) {
      for (std::uint32_t n = head; n != kNil; n = node(n).next) {
        first = std::min(first, day_of(node(n).time));
        ++cost;
      }
    }
    today_day_ = first;
    cost += collect(first);
  }
  std::sort(today_.begin(), today_.end());
  return cost;
}

EventRecord CalendarQueue::pop() {
  const std::size_t cost = today_.empty() ? advance() : 0;
  const EventRecord ev = today_[head_];
  if (++head_ == today_.size()) {
    today_.clear();
    head_ = 0;
  }
  --size_;
  if (buckets_.size() > kMinBuckets && size_ < shrink_threshold_) {
    resize(buckets_.size() / 2);
  } else {
    account(cost);
  }
  return ev;
}

SimTime CalendarQueue::min_time() {
  if (size_ == 0) return kInfTime;
  if (today_.empty()) account(advance());
  return today_[head_].time;
}

double CalendarQueue::estimate_width(std::vector<SimTime>& times) const {
  // Brown's heuristic estimates the width from the separation of the
  // *earliest* pending events (the ones about to be dequeued): pull the
  // kSampleSize smallest with nth_element and use 3x their mean
  // separation. Infinite times say nothing about spacing.
  std::size_t k = std::min(kSampleSize, times.size());
  if (k < 2) return width_;
  std::nth_element(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k - 1), times.end());
  std::sort(times.begin(), times.begin() + static_cast<std::ptrdiff_t>(k));
  while (k > 1 && !std::isfinite(times[k - 1])) --k;
  const double sum = times[k - 1] - times[0];
  if (!(sum > 0)) return width_;  // all simultaneous: keep current width
  const double width = 3.0 * sum / static_cast<double>(k - 1);
  return std::isfinite(width) ? std::max(width, 1e-9) : width_;
}

void CalendarQueue::resize(std::size_t new_nbuckets) {
  new_nbuckets = std::max(new_nbuckets, kMinBuckets);
  assert((new_nbuckets & (new_nbuckets - 1)) == 0);
  std::vector<SimTime> times;
  times.reserve(size_);
  drop_popped();
  for (const EventRecord& ev : today_) times.push_back(ev.time);
  for (const std::uint32_t head : buckets_) {
    for (std::uint32_t n = head; n != kNil; n = node(n).next) times.push_back(node(n).time);
  }
  width_ = estimate_width(times);
  inv_width_ = 1.0 / width_;

  std::vector<std::uint32_t> old = std::move(buckets_);
  buckets_.assign(new_nbuckets, kNil);
  grow_threshold_ = 2 * new_nbuckets;
  shrink_threshold_ = new_nbuckets / 2;
  window_ops_ = 0;
  window_cost_ = 0;
  if (size_ == 0) return;

  // The new current day is the earliest event's (times.front() after the
  // estimate). today_ keeps what is still on or before it, a prefix, and
  // hands the rest to the buckets; bucket nodes on or before it join today_.
  today_day_ = day_of(times.front());
  const auto later = std::find_if(today_.begin(), today_.end(), [this](const EventRecord& ev) {
    return day_of(ev.time) > today_day_;
  });
  for (auto it = later; it != today_.end(); ++it) link(*it, day_of(it->time));
  today_.erase(later, today_.end());
  const std::size_t sorted = today_.size();
  for (const std::uint32_t head : old) {
    for (std::uint32_t n = head; n != kNil;) {
      Node& nd = node(n);
      const std::uint32_t next = nd.next;
      const Day d = day_of(nd.time);
      if (d <= today_day_) {
        today_.push_back(nd.key());
        free_node(n);
      } else {
        std::uint32_t& bucket = buckets_[d & (new_nbuckets - 1)];
        nd.next = bucket;
        bucket = n;
      }
      n = next;
    }
  }
  if (today_.size() > sorted) std::sort(today_.begin(), today_.end());
}

}  // namespace lsds::core
