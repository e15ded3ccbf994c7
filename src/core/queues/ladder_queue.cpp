#include "core/queues/ladder_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace lsds::core {

LadderQueue::LadderQueue() { rungs_.reserve(kMaxRungs); }

std::size_t LadderQueue::Rung::bucket_of(SimTime t) const {
  if (t <= start) return 0;
  // Clamp before converting: a huge or infinite quotient has no size_t.
  const double i = (t - start) / width;
  return i < static_cast<double>(n - 1) ? static_cast<std::size_t>(i) : n - 1;
}

void LadderQueue::release(std::vector<EventRecord>& bucket) {
  if (bucket.capacity() > kKeptBucketCapacity) {
    std::vector<EventRecord>().swap(bucket);
  } else {
    bucket.clear();
  }
}

void LadderQueue::push(EventRecord ev) {
  ++size_;
  const SimTime t = ev.time;
  // 1) Far future -> Top.
  if (depth_ == 0 && bottom_.empty()) {
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
  for (std::size_t d = 0; d < depth_; ++d) {
    Rung& rung = rungs_[d];
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

void LadderQueue::spawn_rung(std::span<const EventRecord> events, double start, double end) {
  assert(depth_ < kMaxRungs);  // so rungs_ never outgrows its reserve
  if (depth_ == rungs_.size()) rungs_.emplace_back();
  Rung& rung = rungs_[depth_++];
  rung.start = start;
  rung.n = std::max<std::size_t>(events.size(), 1);
  double span = end - start;
  if (span <= 0) span = 1e-9;
  rung.width = span / static_cast<double>(rung.n);
  if (rung.width <= 0 || !std::isfinite(rung.width)) rung.width = 1e-9;
  if (rung.buckets.size() < rung.n) rung.buckets.resize(rung.n);
  rung.cur = 0;
  for (const EventRecord& ev : events) rung.buckets[rung.bucket_of(ev.time)].push_back(ev);
  rung.count = events.size();
}

void LadderQueue::transfer_top_to_ladder() {
  if (top_.empty()) return;
  // An infinite key would stretch the rung over an infinite span: its width
  // falls back to 1e-9 s and every finite event lands in the last bucket.
  // So the rung spans Top's finite keys only, and infinite keys stay in Top,
  // which pops last. Only this path pays for the split; push() does not.
  std::size_t finite = top_.size();
  double end = top_max_;
  if (std::isinf(top_max_) && std::isfinite(top_min_)) {
    finite = static_cast<std::size_t>(
        std::partition(top_.begin(), top_.end(),
                       [](const EventRecord& ev) { return std::isfinite(ev.time); }) -
        top_.begin());
    end = top_min_;
    for (std::size_t i = 0; i < finite; ++i) end = std::max(end, top_[i].time);
  }
  // New epoch: events later pushed beyond the old max spill into Top again.
  top_start_ = end + 1e-12;
  const double start = top_min_;
  spawn_rung(std::span<const EventRecord>(top_).first(finite), start,
             end == start ? start + 1e-9 : end);
  top_min_ = kInfTime;
  top_max_ = finite < top_.size() ? kInfTime : -kInfTime;
  // Top is refilled only as the clock nears the new epoch's end; a kept
  // buffer would sit resident, empty, beside the rung that now holds it all.
  std::vector<EventRecord>(top_.begin() + static_cast<std::ptrdiff_t>(finite), top_.end())
      .swap(top_);
}

bool LadderQueue::advance_ladder() {
  while (depth_ > 0) {
    Rung& rung = rungs_[depth_ - 1];
    if (rung.count == 0) {
      --depth_;
      continue;
    }
    while (rung.cur < rung.n && rung.buckets[rung.cur].empty()) ++rung.cur;
    if (rung.cur >= rung.n) {
      --depth_;
      continue;
    }
    std::vector<EventRecord>& bucket = rung.buckets[rung.cur];
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

    if (bucket.size() > kBottomThreshold && depth_ < kMaxRungs && !all_simultaneous) {
      spawn_rung(bucket, b_start, b_end);
      release(bucket);
      continue;  // drain the finer rung next
    }
    // Only pop() advances the ladder, and only once Bottom has drained.
    assert(bottom_.empty());
    bottom_.assign(bucket.begin(), bucket.end());
    release(bucket);
    std::sort(bottom_.begin(), bottom_.end(),
              [](const EventRecord& a, const EventRecord& b) { return b < a; });
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

SimTime LadderQueue::min_time() {
  // Pop order is Bottom, then the innermost rung's next non-empty bucket,
  // then the rungs outward, then Top: the first place holding an event
  // holds the minimum.
  if (!bottom_.empty()) return bottom_.back().time;
  for (std::size_t d = depth_; d-- > 0;) {
    const Rung& rung = rungs_[d];
    if (rung.count == 0) continue;
    for (std::size_t i = rung.cur; i < rung.n; ++i) {
      const auto& bucket = rung.buckets[i];
      if (bucket.empty()) continue;
      SimTime best = kInfTime;
      for (const auto& ev : bucket) best = std::min(best, ev.time);
      return best;
    }
  }
  return top_min_;
}

}  // namespace lsds::core
