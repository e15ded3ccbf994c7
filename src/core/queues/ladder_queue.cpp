#include "core/queues/ladder_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace lsds::core {

LadderQueue::LadderQueue() = default;

std::size_t LadderQueue::Rung::bucket_of(SimTime t) const {
  if (t <= start) return 0;
  auto i = static_cast<std::size_t>((t - start) / width);
  return std::min(i, buckets.size() - 1);
}

void LadderQueue::push(EventRecord ev) {
  ++size_;
  const SimTime t = ev.time;
  // 1) Far future -> Top.
  if (ladder_.empty() && bottom_.empty()) {
    // Everything funnels through Top when the rest is empty.
    top_.push_back(std::move(ev));
    top_min_ = std::min(top_min_, t);
    top_max_ = std::max(top_max_, t);
    return;
  }
  if (t >= top_start_) {
    top_.push_back(std::move(ev));
    top_min_ = std::min(top_min_, t);
    top_max_ = std::max(top_max_, t);
    return;
  }
  // 2) Within the ladder's active range -> deepest rung that covers t,
  //    but never into a bucket that has already been drained.
  for (auto& rung : ladder_) {
    const double cur_edge = rung.start + rung.width * static_cast<double>(rung.cur);
    if (t >= cur_edge) {
      auto idx = rung.bucket_of(t);
      if (idx >= rung.cur) {
        rung.buckets[idx].push_back(std::move(ev));
        ++rung.count;
        return;
      }
    }
  }
  // 3) Near future -> Bottom (sorted insert, descending).
  const auto it = std::upper_bound(bottom_.begin(), bottom_.end(), ev,
                                   [](const EventRecord& a, const EventRecord& b) { return b < a; });
  bottom_.insert(it, ev);
}

void LadderQueue::spawn_rung(std::vector<EventRecord> events, double start, double end) {
  Rung rung;
  rung.start = start;
  const std::size_t n = std::max<std::size_t>(events.size(), 1);
  double span = end - start;
  if (span <= 0) span = 1e-9;
  rung.width = span / static_cast<double>(n);
  if (rung.width <= 0 || !std::isfinite(rung.width)) rung.width = 1e-9;
  rung.buckets.resize(n);
  rung.cur = 0;
  for (EventRecord& ev : events) {
    rung.buckets[rung.bucket_of(ev.time)].push_back(std::move(ev));
  }
  rung.count = events.size();
  ladder_.push_back(std::move(rung));
}

void LadderQueue::transfer_top_to_ladder() {
  if (top_.empty()) return;
  // New epoch: events later pushed beyond the old max spill into Top again.
  top_start_ = top_max_ + 1e-12;
  std::vector<EventRecord> events = std::move(top_);
  top_.clear();
  const double start = top_min_;
  const double end = top_max_;
  top_min_ = kInfTime;
  top_max_ = -kInfTime;
  spawn_rung(std::move(events), start, end == start ? start + 1e-9 : end);
}

void LadderQueue::sort_into_bottom(std::vector<EventRecord> events) {
  // Only pop() advances the ladder, and only once Bottom has drained.
  assert(bottom_.empty());
  std::sort(events.begin(), events.end(),
            [](const EventRecord& a, const EventRecord& b) { return b < a; });
  bottom_ = std::move(events);
}

bool LadderQueue::advance_ladder() {
  while (!ladder_.empty()) {
    Rung& rung = ladder_.back();
    if (rung.count == 0) {
      ladder_.pop_back();
      continue;
    }
    while (rung.cur < rung.buckets.size() && rung.buckets[rung.cur].empty()) ++rung.cur;
    if (rung.cur >= rung.buckets.size()) {
      ladder_.pop_back();
      continue;
    }
    std::vector<EventRecord> bucket = std::move(rung.buckets[rung.cur]);
    rung.buckets[rung.cur].clear();
    rung.count -= bucket.size();
    const double b_start = rung.start + rung.width * static_cast<double>(rung.cur);
    const double b_end = b_start + rung.width;
    ++rung.cur;

    const bool all_simultaneous = [&] {
      for (const auto& ev : bucket) {
        if (std::fabs(ev.time - bucket.front().time) > 1e-15) return false;
      }
      return true;
    }();

    if (bucket.size() > kBottomThreshold && ladder_.size() < kMaxRungs && !all_simultaneous) {
      spawn_rung(std::move(bucket), b_start, b_end);
      continue;  // drain the finer rung next
    }
    sort_into_bottom(std::move(bucket));
    return true;
  }
  return false;
}

EventRecord LadderQueue::pop() {
  // Precondition: !empty(). The loop below would spin otherwise.
  while (bottom_.empty()) {
    if (!advance_ladder()) {
      transfer_top_to_ladder();
      // After a transfer the ladder is non-empty iff there were Top events.
    }
  }
  const EventRecord ev = bottom_.back();
  bottom_.pop_back();
  --size_;
  return ev;
}

SimTime LadderQueue::min_time() const {
  SimTime best = kInfTime;
  if (!bottom_.empty()) best = bottom_.back().time;
  for (const auto& rung : ladder_) {
    for (std::size_t i = rung.cur; i < rung.buckets.size(); ++i) {
      for (const auto& ev : rung.buckets[i]) best = std::min(best, ev.time);
    }
  }
  for (const auto& ev : top_) best = std::min(best, ev.time);
  return best;
}

}  // namespace lsds::core
