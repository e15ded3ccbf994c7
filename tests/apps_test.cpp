// Apps layer: workload generators, activities, trace round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/activity.hpp"
#include "apps/trace_io.hpp"
#include "apps/workload.hpp"
#include "core/engine.hpp"
#include "text_mutator.hpp"

namespace apps = lsds::apps;
namespace core = lsds::core;
namespace hosts = lsds::hosts;

TEST(Workload, BagSizesAndArrivals) {
  core::RngStream rng(1);
  apps::BagWorkloadSpec spec;
  spec.num_jobs = 500;
  spec.mean_interarrival = 2.0;
  spec.ops = {apps::SizeDist::kExponential, 1000, 0};
  const auto jobs = apps::generate_bag(rng, spec);
  ASSERT_EQ(jobs.size(), 500u);
  EXPECT_TRUE(std::is_sorted(jobs.begin(), jobs.end(), [](const auto& a, const auto& b) {
    return a.arrival < b.arrival;
  }));
  double mean_ops = 0, last = 0;
  for (const auto& tj : jobs) {
    mean_ops += tj.job.ops;
    last = tj.arrival;
  }
  mean_ops /= 500;
  EXPECT_NEAR(mean_ops, 1000, 150);
  EXPECT_NEAR(last / 500, 2.0, 0.5);  // mean gap ~ 2
  // Unique sequential ids.
  EXPECT_EQ(jobs.front().job.id, 1u);
  EXPECT_EQ(jobs.back().job.id, 500u);
}

TEST(Workload, ZeroInterarrivalMeansSimultaneous) {
  core::RngStream rng(2);
  apps::BagWorkloadSpec spec;
  spec.num_jobs = 10;
  spec.mean_interarrival = 0;
  const auto jobs = apps::generate_bag(rng, spec);
  for (const auto& tj : jobs) EXPECT_DOUBLE_EQ(tj.arrival, 0.0);
}

TEST(Workload, DrawSizeDistributionMeans) {
  core::RngStream rng(3);
  const int n = 200000;
  for (auto dist : {apps::SizeDist::kConstant, apps::SizeDist::kExponential,
                    apps::SizeDist::kLognormal, apps::SizeDist::kWeibull,
                    apps::SizeDist::kPareto}) {
    apps::SizeSpec spec;
    spec.dist = dist;
    spec.mean = 500;
    spec.shape = dist == apps::SizeDist::kPareto ? 2.5 : 1.2;
    double sum = 0;
    for (int i = 0; i < n; ++i) sum += apps::draw_size(rng, spec);
    EXPECT_NEAR(sum / n, 500, 25) << apps::to_string(dist);
  }
}

TEST(Workload, DataGridZipfSkew) {
  core::RngStream rng(4);
  apps::DataGridWorkloadSpec spec;
  spec.num_jobs = 5000;
  spec.num_files = 50;
  spec.files_per_job = 1;
  spec.zipf_exponent = 1.0;
  const auto wl = apps::generate_data_grid(rng, spec);
  ASSERT_EQ(wl.files.size(), 50u);
  ASSERT_EQ(wl.jobs.size(), 5000u);
  std::map<std::string, int> counts;
  for (const auto& tj : wl.jobs) {
    ASSERT_EQ(tj.job.input_files.size(), 1u);
    ++counts[tj.job.input_files[0]];
  }
  // file0 must dominate file10 heavily under zipf(1.0).
  EXPECT_GT(counts[apps::file_lfn(0)], 3 * counts[apps::file_lfn(10)]);
}

TEST(Workload, UniformWhenZipfZero) {
  core::RngStream rng(5);
  apps::DataGridWorkloadSpec spec;
  spec.num_jobs = 6000;
  spec.num_files = 30;
  spec.zipf_exponent = 0;
  const auto wl = apps::generate_data_grid(rng, spec);
  std::map<std::string, int> counts;
  for (const auto& tj : wl.jobs) ++counts[tj.job.input_files[0]];
  for (const auto& [lfn, c] : counts) EXPECT_NEAR(c, 200, 80) << lfn;
}

TEST(Workload, ReproducibleForSeed) {
  apps::DataGridWorkloadSpec spec;
  core::RngStream a(42), b(42);
  const auto wa = apps::generate_data_grid(a, spec);
  const auto wb = apps::generate_data_grid(b, spec);
  ASSERT_EQ(wa.jobs.size(), wb.jobs.size());
  for (std::size_t i = 0; i < wa.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(wa.jobs[i].arrival, wb.jobs[i].arrival);
    EXPECT_DOUBLE_EQ(wa.jobs[i].job.ops, wb.jobs[i].job.ops);
    EXPECT_EQ(wa.jobs[i].job.input_files, wb.jobs[i].job.input_files);
  }
}

// --- activities --------------------------------------------------------

TEST(Activity, GeneratesRequestedJobs) {
  core::Engine eng;
  std::vector<hosts::Job> jobs;
  apps::ActivitySpec spec = apps::default_activity(apps::ActivityKind::kAnalysis, 25, 1.0);
  apps::run_activity(eng, spec, 3, 100, "act.test",
                     [&](hosts::SiteId origin, hosts::Job job) {
                       EXPECT_EQ(origin, 3u);
                       jobs.push_back(std::move(job));
                     });
  eng.run();
  ASSERT_EQ(jobs.size(), 25u);
  EXPECT_EQ(jobs.front().id, 100u);
  EXPECT_EQ(jobs.back().id, 124u);
  // Think times accumulate: submissions strictly increase.
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_GT(jobs[i].submit_time, jobs[i - 1].submit_time);
  }
}

TEST(Activity, ProductionProducesOutput) {
  core::Engine eng;
  double output = 0;
  apps::ActivitySpec spec = apps::default_activity(apps::ActivityKind::kProduction, 5, 1.0);
  apps::run_activity(eng, spec, 0, 1, "act.prod",
                     [&](hosts::SiteId, hosts::Job job) { output += job.output_bytes; });
  eng.run();
  EXPECT_DOUBLE_EQ(output, 5 * 2e9);
}

TEST(Activity, KindsHaveDistinctScales) {
  const auto prod = apps::default_activity(apps::ActivityKind::kProduction, 1, 1.0);
  const auto ana = apps::default_activity(apps::ActivityKind::kAnalysis, 1, 1.0);
  const auto inter = apps::default_activity(apps::ActivityKind::kInteractive, 1, 1.0);
  EXPECT_GT(prod.mean_ops, ana.mean_ops);
  EXPECT_GT(ana.mean_ops, inter.mean_ops);
  EXPECT_GT(prod.output_bytes, 0);
  EXPECT_DOUBLE_EQ(inter.output_bytes, 0);
}

// --- trace round-trip ---------------------------------------------------

TEST(TraceIo, RoundTripPreservesWorkload) {
  core::RngStream rng(7);
  apps::DataGridWorkloadSpec spec;
  spec.num_jobs = 40;
  spec.num_files = 10;
  spec.files_per_job = 2;
  const auto wl = apps::generate_data_grid(rng, spec);

  const auto text = apps::workload_to_trace(wl.jobs, wl.files);
  const auto back = apps::workload_from_trace(text);

  ASSERT_EQ(back.files.size(), wl.files.size());
  for (std::size_t i = 0; i < wl.files.size(); ++i) {
    EXPECT_EQ(back.files[i].first, wl.files[i].first);
    EXPECT_NEAR(back.files[i].second, wl.files[i].second, wl.files[i].second * 1e-6);
  }
  ASSERT_EQ(back.jobs.size(), wl.jobs.size());
  for (std::size_t i = 0; i < wl.jobs.size(); ++i) {
    EXPECT_NEAR(back.jobs[i].arrival, wl.jobs[i].arrival, 1e-6);
    EXPECT_EQ(back.jobs[i].job.id, wl.jobs[i].job.id);
    EXPECT_NEAR(back.jobs[i].job.ops, wl.jobs[i].job.ops, wl.jobs[i].job.ops * 1e-6);
    EXPECT_EQ(back.jobs[i].job.input_files, wl.jobs[i].job.input_files);
  }
}

TEST(TraceIo, SkipsUnknownKinds) {
  const auto parsed = apps::workload_from_trace(
      "0 file lfn=a bytes=10\n"
      "1 monitor site=x running=1\n"
      "2 job id=1 ops=100\n");
  EXPECT_EQ(parsed.files.size(), 1u);
  EXPECT_EQ(parsed.jobs.size(), 1u);
}

TEST(TraceIo, MalformedJobThrows) {
  EXPECT_THROW(apps::workload_from_trace("1 job ops=100\n"), std::runtime_error);
  EXPECT_THROW(apps::workload_from_trace("0 file bytes=10\n"), std::runtime_error);
  EXPECT_THROW(apps::workload_from_trace("1 job id=1 ops=-5\n"), std::runtime_error);
  EXPECT_THROW(apps::workload_from_trace("1 job id=1 ops=nan\n"), std::runtime_error);
  EXPECT_THROW(apps::workload_from_trace("1 job id=-3 ops=5\n"), std::runtime_error);
  EXPECT_THROW(apps::workload_from_trace("nan job id=1 ops=5\n"), std::runtime_error);
  EXPECT_THROW(apps::workload_from_trace("0 file lfn=a bytes=inf\n"), std::runtime_error);
  // A value that does not parse is not a 0-op job or a 0-byte file.
  EXPECT_THROW(apps::workload_from_trace("1 job id=1 ops=12x\n"), std::runtime_error);
  EXPECT_THROW(apps::workload_from_trace("0 file lfn=a bytes=1GB\n"), std::runtime_error);
}


// Seeded mutation fuzzing of the workload reader: every mutated trace either
// fails with std::runtime_error or yields a workload whose numbers are
// finite, and whose trace reads back to the same trace.
TEST(TraceIo, FuzzedTracesParseOrThrowAndRoundTrip) {
  core::RngStream rng(8);
  apps::DataGridWorkloadSpec spec;
  spec.num_jobs = 8;
  spec.num_files = 4;
  spec.files_per_job = 2;
  const auto wl = apps::generate_data_grid(rng, spec);
  const std::vector<std::string> corpus = {
      apps::workload_to_trace(wl.jobs, wl.files),
      "# comment\n"
      "0 file lfn=a bytes=10\n"
      "1 monitor site=x running=1\n"
      "2 job id=1 ops=100 output=5 inputs=a;b;;c\n"
      "3.5 job id=2 ops=1e3\n"};
  lsds::fuzz::TextMutator mutator(
      0x7ace10u, "=;# \t\r\n.-e0123456789",
      {"nan", "inf", "-1", "1e400", "18446744073709551616", "job", "file", "id=", "ops=",
       "output=", "lfn=", "bytes=", "inputs=", "\n"});
  int accepted = 0, rejected = 0;
  for (int it = 0; it < 4000; ++it) {
    const std::string text = mutator.mutate(corpus[static_cast<std::size_t>(it) % corpus.size()]);
    apps::ParsedWorkload p;
    try {
      p = apps::workload_from_trace(text);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++accepted;
    for (const auto& tj : p.jobs) {
      ASSERT_NE(tj.job.id, hosts::kInvalidJob) << ::testing::PrintToString(text);
      ASSERT_TRUE(std::isfinite(tj.arrival)) << ::testing::PrintToString(text);
      ASSERT_TRUE(std::isfinite(tj.job.ops) && tj.job.ops >= 0) << ::testing::PrintToString(text);
      ASSERT_TRUE(std::isfinite(tj.job.output_bytes) && tj.job.output_bytes >= 0)
          << ::testing::PrintToString(text);
    }
    for (const auto& [lfn, bytes] : p.files) {
      ASSERT_TRUE(std::isfinite(bytes) && bytes >= 0) << ::testing::PrintToString(text);
    }
    const std::string once = apps::workload_to_trace(p.jobs, p.files);
    const auto back = apps::workload_from_trace(once);
    ASSERT_EQ(apps::workload_to_trace(back.jobs, back.files), once)
        << ::testing::PrintToString(text);
  }
  // The loop must exercise both outcomes.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}
