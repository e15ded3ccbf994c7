// Piecewise-constant time series for simulation outputs.
//
// Records step changes of a quantity over simulated time (queue length, link
// utilization, backlog…) and computes *time-weighted* aggregates — the
// statistically correct way to average a state variable in DES.
//
// The series is a running summary, not a list of points: the sample count,
// the first and last points, the max over the points before the last, and
// the integral up to the last point. A record updates a few doubles in
// place, so a series stays the same size however long the run. The mean can only be taken at or after the last point; a
// caller that needs the mean up to an earlier instant copies the series at
// that instant.
#pragma once

#include <cstddef>

namespace lsds::stats {

class TimeSeries {
 public:
  /// Record that the quantity has value `v` from time `t` onward. Times
  /// must be non-decreasing; a same-instant record overwrites the previous
  /// one.
  void record(double t, double v);

  /// Number of distinct record instants.
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  double last_t() const { return last_t_; }
  double last() const { return last_v_; }
  /// Maximum recorded value (0 when empty).
  double max_value() const {
    if (n_ == 0) return 0.0;
    return n_ == 1 || last_v_ > closed_max_ ? last_v_ : closed_max_;
  }
  /// Time-weighted mean over [first record, t_end]; t_end >= last_t(). The
  /// first value when the span is empty, 0 when nothing was recorded.
  double time_weighted_mean(double t_end) const;

 private:
  std::size_t n_ = 0;
  double first_t_ = 0, first_v_ = 0;
  double last_t_ = 0, last_v_ = 0;
  double closed_max_ = 0;       // max over the points before the last
  double closed_integral_ = 0;  // integral over [first_t_, last_t_]
};

}  // namespace lsds::stats
