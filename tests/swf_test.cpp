// Standard Workload Format: parsing, export round-trip, generation, and
// end-to-end replay into the batch queue.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/swf.hpp"
#include "core/engine.hpp"
#include "middleware/batch_queue.hpp"
#include "text_mutator.hpp"

namespace apps = lsds::apps;
namespace core = lsds::core;
namespace mw = lsds::middleware;

TEST(Swf, ParsesFieldsAndSkipsComments) {
  const auto jobs = apps::parse_swf(
      "; SWF header comment\n"
      ";  MaxNodes: 128\n"
      "1 0.0 5 100.5 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n"
      "2 10.0 -1 50 -1 -1 -1 8 -1 -1 1 1 1 1 1 1 -1 -1\n");
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].job.id, 1u);
  EXPECT_DOUBLE_EQ(jobs[0].submit_time, 0.0);
  EXPECT_DOUBLE_EQ(jobs[0].job.runtime_actual, 100.5);
  EXPECT_EQ(jobs[0].job.cores, 4u);
  EXPECT_DOUBLE_EQ(jobs[0].job.runtime_estimate, 200.0);  // requested time
  // Job 2: allocated procs missing -> requested; estimate missing -> actual.
  EXPECT_EQ(jobs[1].job.cores, 8u);
  EXPECT_DOUBLE_EQ(jobs[1].job.runtime_estimate, 50.0);
}

TEST(Swf, SkipsCancelledEntries) {
  const auto jobs = apps::parse_swf(
      "1 0 -1 -1 4 -1 -1 4 100 -1 5 1 1 1 1 1 -1 -1\n"   // runtime -1: skipped
      "2 0 -1 100 -1 -1 -1 -1 -1 -1 5 1 1 1 1 1 -1 -1\n" // no procs: skipped
      "4 0 -1 100 0.5 -1 -1 -1 -1 -1 5 1 1 1 1 1 -1 -1\n" // under 1 proc: skipped
      "3 0 -1 100 2 -1 -1 2 150 -1 1 1 1 1 1 1 -1 -1\n");
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].job.id, 3u);
}

TEST(Swf, MalformedLineThrows) {
  EXPECT_THROW(apps::parse_swf("1 2 3\n"), std::runtime_error);
  EXPECT_THROW(apps::parse_swf("x 0 -1 100 2 -1 -1 2 150\n"), std::runtime_error);
  EXPECT_THROW(apps::parse_swf("1 0 -1 nan 2 -1 -1 2 150\n"), std::runtime_error);
  EXPECT_THROW(apps::parse_swf("-1 0 -1 100 2 -1 -1 2 150\n"), std::runtime_error);
  EXPECT_THROW(apps::parse_swf("1 0 -1 100 4294967296 -1 -1 2 150\n"), std::runtime_error);
}

TEST(Swf, ExportRoundTrip) {
  core::RngStream rng(4);
  const auto orig = apps::generate_swf_like(rng, 50, 5.0, 60.0, 32);
  const auto back = apps::parse_swf(apps::to_swf(orig));
  ASSERT_EQ(back.size(), orig.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(back[i].job.id, orig[i].job.id);
    EXPECT_EQ(back[i].job.cores, orig[i].job.cores);
    EXPECT_NEAR(back[i].submit_time, orig[i].submit_time, 1e-3);
    EXPECT_NEAR(back[i].job.runtime_actual, orig[i].job.runtime_actual, 1e-3);
    EXPECT_NEAR(back[i].job.runtime_estimate, orig[i].job.runtime_estimate, 1e-3);
  }
}

// Seeded mutation fuzzing of the reader: every mutated text either fails
// with std::runtime_error or yields jobs a batch queue can run, and the
// export of those jobs reads back to the same export after one round trip
// (the first may drop a runtime that rounds to 0.000).
TEST(Swf, FuzzedTracesParseOrThrowAndRoundTrip) {
  core::RngStream gen(6);
  const std::vector<std::string> corpus = {
      apps::to_swf(apps::generate_swf_like(gen, 12, 5.0, 60.0, 32)),
      "; SWF header comment\n"
      ";  MaxNodes: 128\n"
      "1 0.0 5 100.5 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n"
      "2 10.0 -1 50 -1 -1 -1 8 -1 -1 1 1 1 1 1 1 -1 -1\n"
      "3 0 -1 -1 4 -1 -1 4 100 -1 5 1 1 1 1 1 -1 -1\n"
      "4 12 -1 100 0.5 -1 -1 -1 -1 -1 5 1 1 1 1 1 -1 -1\n"};
  lsds::fuzz::TextMutator mutator(
      0x5f3a11u, "0123456789.-+e; \t\r\n",
      {"nan", "inf", "-inf", "1e400", "-1", "0", "4294967296", "18446744073709551616", " ",
       "\n"});
  int accepted = 0, rejected = 0;
  for (int it = 0; it < 4000; ++it) {
    const std::string text = mutator.mutate(corpus[static_cast<std::size_t>(it) % corpus.size()]);
    std::vector<apps::SwfJob> jobs;
    try {
      jobs = apps::parse_swf(text);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++accepted;
    for (const auto& j : jobs) {
      ASSERT_TRUE(std::isfinite(j.submit_time) && j.submit_time >= 0)
          << ::testing::PrintToString(text);
      ASSERT_GE(j.job.cores, 1u) << ::testing::PrintToString(text);
      ASSERT_TRUE(std::isfinite(j.job.runtime_actual) && j.job.runtime_actual > 0)
          << ::testing::PrintToString(text);
      ASSERT_TRUE(std::isfinite(j.job.runtime_estimate) && j.job.runtime_estimate > 0)
          << ::testing::PrintToString(text);
    }
    const std::string once = apps::to_swf(apps::parse_swf(apps::to_swf(jobs)));
    ASSERT_EQ(apps::to_swf(apps::parse_swf(once)), once) << ::testing::PrintToString(text);
  }
  // The loop must exercise both outcomes.
  EXPECT_GT(accepted, 500);
  EXPECT_GT(rejected, 500);
}

TEST(Swf, GeneratorShape) {
  core::RngStream rng(5);
  const auto jobs = apps::generate_swf_like(rng, 400, 10.0, 100.0, 64, 3.0);
  ASSERT_EQ(jobs.size(), 400u);
  double sum_gap = 0, prev = 0;
  for (const auto& j : jobs) {
    EXPECT_GE(j.job.cores, 1u);
    EXPECT_LE(j.job.cores, 64u);
    EXPECT_GE(j.job.runtime_estimate, j.job.runtime_actual);       // padded
    EXPECT_LE(j.job.runtime_estimate, j.job.runtime_actual * 3.0 + 1e-9);
    EXPECT_GE(j.submit_time, prev);
    sum_gap += j.submit_time - prev;
    prev = j.submit_time;
  }
  EXPECT_NEAR(sum_gap / 400.0, 10.0, 2.0);
}

TEST(Swf, ReplayIntoBatchQueue) {
  core::RngStream rng(6);
  const auto jobs = apps::generate_swf_like(rng, 100, 5.0, 60.0, 16);
  core::Engine eng;
  mw::BatchQueue q(eng, 16, mw::BatchPolicy::kEasyBackfill);
  for (const auto& j : jobs) {
    eng.schedule_at(j.submit_time, [&q, job = j.job] { q.submit(job); });
  }
  eng.run();
  EXPECT_EQ(q.completed(), 100u);
  EXPECT_EQ(q.queued(), 0u);
  EXPECT_EQ(q.running(), 0u);
}
