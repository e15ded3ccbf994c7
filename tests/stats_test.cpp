// Stats library: accumulators, sample sets, histograms, time series, tables
// and the analytical queueing formulas.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "stats/analytical.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "stats/timeseries.hpp"

namespace stats = lsds::stats;

// --- Accumulator ------------------------------------------------------

TEST(Accumulator, EmptyIsZero) {
  stats::Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, BasicMoments) {
  stats::Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.variance(), 4.0);  // textbook population variance example
  EXPECT_DOUBLE_EQ(a.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
}

TEST(Accumulator, MergeEqualsCombined) {
  stats::Accumulator a, b, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10 + i * 0.1;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  stats::Accumulator a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  stats::Accumulator c;
  c.merge(a);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 2.0);
}

TEST(Accumulator, Ci95ShrinksWithSamples) {
  stats::Accumulator small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) large.add(i % 3);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

// --- SampleSet ----------------------------------------------------------

TEST(SampleSet, QuantilesExact) {
  stats::SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.p95(), 95.05, 0.01);
}

TEST(SampleSet, QuantileAfterInterleavedAdds) {
  stats::SampleSet s;
  s.add(5);
  s.add(1);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add(9);  // invalidates sorted cache
  EXPECT_DOUBLE_EQ(s.median(), 5.0);
}

TEST(SampleSet, EmptyQuantileIsZero) {
  stats::SampleSet s;
  EXPECT_DOUBLE_EQ(s.median(), 0.0);
}

// --- Histogram ----------------------------------------------------------

TEST(Histogram, BinningAndOverflow) {
  stats::Histogram h(0, 10, 10);
  h.add(-1);            // underflow
  h.add(0);             // bin 0
  h.add(9.999);         // bin 9
  h.add(10);            // overflow (hi is exclusive)
  h.add(5.5);           // bin 5
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(5), 1u);
  EXPECT_EQ(h.bin_count(9), 1u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, NonFiniteSamplesAreCountedInvalid) {
  // Regression: NaN slipped past both range guards into an undefined
  // float -> size_t cast; ±inf landed in under/overflow.
  stats::Histogram h(0, 10, 10);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(-std::numeric_limits<double>::infinity());
  h.add(5.0);
  EXPECT_EQ(h.invalid(), 3u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.total(), 4u);
  for (std::size_t b = 0; b < h.nbins(); ++b) {
    EXPECT_EQ(h.bin_count(b), b == 5 ? 1u : 0u);
  }
  // cdf excludes the invalid samples: the single finite sample is the whole
  // distribution.
  EXPECT_DOUBLE_EQ(h.cdf_at_bin(h.nbins() - 1), 1.0);
  EXPECT_DOUBLE_EQ(h.cdf_at_bin(4), 0.0);
}

TEST(Histogram, AllInvalidCdfIsZero) {
  stats::Histogram h(0, 1, 4);
  h.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.invalid(), 1u);
  EXPECT_DOUBLE_EQ(h.cdf_at_bin(3), 0.0);  // no finite mass, no div-by-zero
}

TEST(Histogram, CdfMonotone) {
  stats::Histogram h(0, 100, 20);
  for (int i = 0; i < 1000; ++i) h.add((i * 37) % 100);
  double prev = 0;
  for (std::size_t b = 0; b < h.nbins(); ++b) {
    const double c = h.cdf_at_bin(b);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);
}

TEST(Histogram, CsvHasHeaderAndRows) {
  stats::Histogram h(0, 2, 2);
  h.add(0.5);
  const auto csv = h.to_csv();
  EXPECT_NE(csv.find("bin_lo,bin_hi,count"), std::string::npos);
  EXPECT_NE(csv.find("0,1,1"), std::string::npos);
}

// --- TimeSeries -----------------------------------------------------------

TEST(TimeSeries, TimeWeightedMean) {
  stats::TimeSeries ts;
  ts.record(0, 1.0);
  ts.record(10, 3.0);  // value 1 for 10s, then 3 for 10s
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(20), 2.0);
}

TEST(TimeSeries, SameInstantOverwrites) {
  stats::TimeSeries ts;
  ts.record(1, 10.0);
  ts.record(1, 12.0);
  EXPECT_EQ(ts.size(), 1u);
  EXPECT_DOUBLE_EQ(ts.last(), 12.0);
  EXPECT_DOUBLE_EQ(ts.time_weighted_mean(3), 12.0);
}

TEST(TimeSeries, MaxValue) {
  stats::TimeSeries ts;
  ts.record(0, -5);
  ts.record(1, 7);
  ts.record(2, 3);
  EXPECT_DOUBLE_EQ(ts.max_value(), 7.0);
}

// --- tables -------------------------------------------------------------

TEST(AsciiTable, RendersAligned) {
  stats::AsciiTable t({"name", "value"});
  t.row().cell(std::string("alpha")).cell(1.5);
  t.row().cell(std::string("b")).cell(std::uint64_t{42});
  const auto out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1.5   |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 42    |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream out;
  stats::CsvWriter w(out, {"x", "y"});
  w.row({1.0, 2.5});
  w.row_strings({"a", "b"});
  EXPECT_EQ(out.str(), "x,y\n1,2.5\na,b\n");
}

// --- analytical queueing ----------------------------------------------

TEST(Analytical, MM1KnownValues) {
  stats::MM1 q{0.5, 1.0};
  EXPECT_DOUBLE_EQ(q.rho(), 0.5);
  EXPECT_TRUE(q.stable());
  EXPECT_DOUBLE_EQ(q.mean_in_system(), 1.0);
  EXPECT_DOUBLE_EQ(q.mean_in_queue(), 0.5);
  EXPECT_DOUBLE_EQ(q.mean_sojourn(), 2.0);
  EXPECT_DOUBLE_EQ(q.mean_wait(), 1.0);
}

TEST(Analytical, MM1LittlesLaw) {
  stats::MM1 q{0.8, 1.25};
  EXPECT_NEAR(q.mean_in_system(), q.lambda * q.mean_sojourn(), 1e-12);
  EXPECT_NEAR(q.mean_in_queue(), q.lambda * q.mean_wait(), 1e-12);
}

TEST(Analytical, MMcReducesToMM1) {
  stats::MM1 ref{0.7, 1.0};
  stats::MMc q{0.7, 1.0, 1};
  EXPECT_NEAR(q.erlang_c(), ref.rho(), 1e-12);  // for c=1, P(wait) = rho
  EXPECT_NEAR(q.mean_wait(), ref.mean_wait(), 1e-12);
  EXPECT_NEAR(q.mean_sojourn(), ref.mean_sojourn(), 1e-12);
}

TEST(Analytical, MMcKnownValue) {
  // Textbook: lambda=2, mu=1, c=3 => rho=2/3, ErlangC = 0.4444..
  stats::MMc q{2.0, 1.0, 3};
  EXPECT_NEAR(q.erlang_c(), 4.0 / 9.0, 1e-9);
  EXPECT_NEAR(q.mean_wait(), (4.0 / 9.0) / 1.0, 1e-9);
}

TEST(Analytical, MMcMoreServersLessWait) {
  stats::MMc a{4.0, 1.0, 5};
  stats::MMc b{4.0, 1.0, 8};
  EXPECT_GT(a.mean_wait(), b.mean_wait());
}

TEST(Analytical, MM1PSMatchesFCFSMean) {
  stats::MM1PS ps{0.6, 1.0};
  stats::MM1 fcfs{0.6, 1.0};
  EXPECT_DOUBLE_EQ(ps.mean_sojourn(), fcfs.mean_sojourn());
  EXPECT_DOUBLE_EQ(ps.conditional_sojourn(2.0), 2.0 / 0.4);
}

TEST(Analytical, MaxMinEqualShare) {
  // 4 flows of 1 GB over a 1 GB/s link: each gets 0.25 GB/s -> 4 s.
  EXPECT_DOUBLE_EQ(stats::maxmin_equal_share_completion(1e9, 1e9, 4), 4.0);
}
