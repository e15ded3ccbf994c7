#include "stats/timeseries.hpp"

#include <cassert>

namespace lsds::stats {

void TimeSeries::record(double t, double v) {
  assert(n_ == 0 || t >= last_t_);
  if (n_ > 0 && t == last_t_) {
    last_v_ = v;  // same-instant update overwrites
    if (n_ == 1) first_v_ = v;
    return;
  }
  if (n_ == 0) {
    first_t_ = t;
    first_v_ = v;
  } else {
    // The last point is now followed by another: close its segment.
    if (n_ == 1 || last_v_ > closed_max_) closed_max_ = last_v_;
    closed_integral_ += last_v_ * (t - last_t_);
  }
  last_t_ = t;
  last_v_ = v;
  ++n_;
}

double TimeSeries::time_weighted_mean(double t_end) const {
  assert(n_ == 0 || t_end >= last_t_);
  if (n_ == 0) return 0.0;
  const double span = t_end - first_t_;
  if (span <= 0) return first_v_;
  double sum = closed_integral_;
  if (t_end > last_t_) sum += last_v_ * (t_end - last_t_);
  return sum / span;
}

}  // namespace lsds::stats
