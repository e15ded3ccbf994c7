// Unit tests for the util library: strings, units, ini (fuzzed too), flags,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/rng.hpp"

#include "util/flags.hpp"
#include "util/ini.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace u = lsds::util;

// --- strings -----------------------------------------------------------

TEST(Strings, FormatBasic) {
  EXPECT_EQ(u::strformat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(u::strformat("plain"), "plain");
  EXPECT_EQ(u::strformat("%s!", "hi"), "hi!");
}

// numbered() replaces strformat("<prefix>%0<width>zu", n) at the per-file
// name sites, so it must give the same bytes for every n, including numbers
// wider than the padding.
TEST(Strings, NumberedMatchesStrformat) {
  for (const std::string prefix : {"", "raw", "tape-raw"}) {
    for (std::size_t width = 0; width <= 8; ++width) {
      const std::string fmt =
          prefix + "%0" + (width ? std::to_string(width) : std::string()) + "zu";
      const auto check = [&](std::size_t n) {
        const std::string want = u::strformat(fmt.c_str(), n);
        if (u::numbered(prefix, n, width) == want) return true;
        ADD_FAILURE() << "numbered(\"" << prefix << "\", " << n << ", " << width << ") != \""
                      << want << "\"";
        return false;
      };
      for (std::size_t n = 0; n < 200000; ++n) {
        if (!check(n)) break;
      }
      check(123456789);
      check(SIZE_MAX);
    }
  }
  EXPECT_EQ(u::numbered("raw", 7, 5), "raw00007");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = u::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = u::split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, Trim) {
  EXPECT_EQ(u::trim("  x  "), "x");
  EXPECT_EQ(u::trim(""), "");
  EXPECT_EQ(u::trim(" \t\n "), "");
  EXPECT_EQ(u::trim("abc"), "abc");
}

TEST(Strings, Join) {
  EXPECT_EQ(u::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(u::join({}, ","), "");
  EXPECT_EQ(u::join({"x"}, ","), "x");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(u::starts_with("--flag", "--"));
  EXPECT_FALSE(u::starts_with("-", "--"));
  EXPECT_TRUE(u::ends_with("file.csv", ".csv"));
  EXPECT_FALSE(u::ends_with("csv", ".csv"));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(u::parse_double("3.25", v));
  EXPECT_DOUBLE_EQ(v, 3.25);
  EXPECT_TRUE(u::parse_double(" 1e3 ", v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_FALSE(u::parse_double("abc", v));
  EXPECT_FALSE(u::parse_double("1.5x", v));
  EXPECT_FALSE(u::parse_double("", v));
}

TEST(Strings, ParseLong) {
  long long v = 0;
  EXPECT_TRUE(u::parse_long("-42", v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(u::parse_long("4.2", v));
}

TEST(Strings, ParseBool) {
  bool b = false;
  EXPECT_TRUE(u::parse_bool("true", b));
  EXPECT_TRUE(b);
  EXPECT_TRUE(u::parse_bool("Off", b));
  EXPECT_FALSE(b);
  EXPECT_FALSE(u::parse_bool("maybe", b));
}

// --- units -------------------------------------------------------------

TEST(Units, ParseSize) {
  double v = 0;
  EXPECT_TRUE(u::parse_size("512MB", v));
  EXPECT_DOUBLE_EQ(v, 512e6);
  EXPECT_TRUE(u::parse_size("1.5GiB", v));
  EXPECT_DOUBLE_EQ(v, 1.5 * 1024 * 1024 * 1024);
  EXPECT_TRUE(u::parse_size("1024", v));
  EXPECT_DOUBLE_EQ(v, 1024.0);
  EXPECT_FALSE(u::parse_size("12 parsecs", v));
  EXPECT_TRUE(u::parse_size("0", v));
  EXPECT_EQ(v, 0);
  // Negative and overflowing sizes are rejected and leave `v` untouched.
  EXPECT_FALSE(u::parse_size("-1GB", v));
  EXPECT_FALSE(u::parse_size("1e400", v));
  EXPECT_EQ(v, 0);
}

TEST(Units, ParseRate) {
  double v = 0;
  EXPECT_TRUE(u::parse_rate("2.5Gbps", v));
  EXPECT_DOUBLE_EQ(v, 2.5e9 / 8.0);
  EXPECT_TRUE(u::parse_rate("100MB/s", v));
  EXPECT_DOUBLE_EQ(v, 100e6);
  EXPECT_FALSE(u::parse_rate("100", v));  // rate needs an explicit unit
  // A rate must be positive and finite: a zero-rate link delivers nothing.
  EXPECT_FALSE(u::parse_rate("0Gbps", v));
  EXPECT_FALSE(u::parse_rate("-1Gbps", v));
  EXPECT_FALSE(u::parse_rate("1e400MB/s", v));
  EXPECT_DOUBLE_EQ(v, 100e6);
}

TEST(Units, ParseDuration) {
  double v = 0;
  EXPECT_TRUE(u::parse_duration("15ms", v));
  EXPECT_DOUBLE_EQ(v, 0.015);
  EXPECT_TRUE(u::parse_duration("2h", v));
  EXPECT_DOUBLE_EQ(v, 7200.0);
  EXPECT_TRUE(u::parse_duration("10", v));
  EXPECT_DOUBLE_EQ(v, 10.0);
  EXPECT_TRUE(u::parse_duration("250us", v));
  EXPECT_DOUBLE_EQ(v, 250e-6);
  EXPECT_FALSE(u::parse_duration("-40s", v));
  EXPECT_FALSE(u::parse_duration("1e400d", v));
  EXPECT_TRUE(u::parse_duration("0s", v));
  EXPECT_EQ(v, 0);
}

TEST(Units, RateConstantsRoundTrip) {
  EXPECT_DOUBLE_EQ(u::gbps(2.5), 2.5e9 / 8);
  EXPECT_EQ(u::format_rate(u::gbps(2.5)), "2.50 Gbps");
  EXPECT_EQ(u::format_size(1.54e6), "1.54 MB");
  EXPECT_EQ(u::format_duration(0.0042), "4.20 ms");
}

// --- ini ---------------------------------------------------------------

TEST(Ini, ParseSectionsAndTypes) {
  const auto cfg = u::IniConfig::parse(R"(
; experiment config
[network]
t0_t1_link = 2.5Gbps
latency = 15ms       ; propagation
packet = 1500

[workload]
jobs = 1000
mean_size = 2GB
enabled = yes
name = "LHC production"
)");
  EXPECT_DOUBLE_EQ(cfg.get_rate("network", "t0_t1_link", 0), 2.5e9 / 8);
  EXPECT_DOUBLE_EQ(cfg.get_duration("network", "latency", 0), 0.015);
  EXPECT_EQ(cfg.get_int("network", "packet", 0), 1500);
  EXPECT_EQ(cfg.get_int("workload", "jobs", 0), 1000);
  EXPECT_DOUBLE_EQ(cfg.get_size("workload", "mean_size", 0), 2e9);
  EXPECT_TRUE(cfg.get_bool("workload", "enabled", false));
  EXPECT_EQ(cfg.get_string("workload", "name"), "LHC production");
}

TEST(Ini, DefaultsAndPresence) {
  const auto cfg = u::IniConfig::parse("[a]\nx = 1\n");
  EXPECT_TRUE(cfg.has("a", "x"));
  EXPECT_FALSE(cfg.has("a", "y"));
  EXPECT_FALSE(cfg.has("b", "x"));
  EXPECT_EQ(cfg.get_int("a", "y", 7), 7);
}

TEST(Ini, MalformedValueThrows) {
  const auto cfg = u::IniConfig::parse("[a]\nrate = 2.5Gbsp\n");
  EXPECT_THROW(cfg.get_rate("a", "rate", 0), u::ConfigError);
}

TEST(Ini, SyntaxErrors) {
  EXPECT_THROW(u::IniConfig::parse("[unterminated\n"), u::ConfigError);
  EXPECT_THROW(u::IniConfig::parse("[a]\nno_equals_sign\n"), u::ConfigError);
  EXPECT_THROW(u::IniConfig::parse("[]\n"), u::ConfigError);
}

TEST(Ini, DumpRoundTripsSectionsKeysAndValues) {
  // The distributed campaign ships the base scenario to workers via
  // dump()/save(); parse(dump(cfg)) must reproduce every value, order and
  // quoting the original had.
  const auto cfg = u::IniConfig::parse(
      "global_key = 1\n"
      "[network]\n"
      "link = 2.5Gbps\n"
      "name = \"LHC production\"   ; quoted: embedded spaces survive\n"
      "note = \"has ; semicolon\"\n"
      "[b]\n"
      "z = last\n");
  const auto back = u::IniConfig::parse(cfg.dump());
  EXPECT_EQ(back.get_int("", "global_key", 0), 1);
  EXPECT_EQ(back.get_string("network", "link"), "2.5Gbps");
  EXPECT_EQ(back.get_string("network", "name"), "LHC production");
  EXPECT_EQ(back.get_string("network", "note"), "has ; semicolon");
  EXPECT_EQ(back.sections(), cfg.sections());
  EXPECT_EQ(back.keys("network"), cfg.keys("network"));
  // Fixpoint: a second dump is byte-identical to the first.
  EXPECT_EQ(back.dump(), cfg.dump());
}

TEST(Ini, DumpQuotesTabWrappedValuesAndRejectsLineBreaks) {
  // A programmatically set() value with surrounding tabs must survive the
  // dump/parse round trip (quoted), and a value with an embedded line break
  // — which the line-based format cannot represent — must throw rather than
  // silently desync the coordinator's and a worker's scenarios.
  u::IniConfig cfg;
  cfg.set("a", "padded", "\tkeep me\t");
  EXPECT_EQ(u::IniConfig::parse(cfg.dump()).get_string("a", "padded"), "\tkeep me\t");

  u::IniConfig newline;
  newline.set("a", "multiline", "first\nsecond");
  EXPECT_THROW(newline.dump(), u::ConfigError);
  u::IniConfig carriage;
  carriage.set("a", "cr", "ends badly\r");
  EXPECT_THROW(carriage.dump(), u::ConfigError);
}

TEST(Ini, OrderPreserved) {
  const auto cfg = u::IniConfig::parse("[b]\nz=1\na=2\n[a]\nq=3\n");
  const auto secs = cfg.sections();
  ASSERT_EQ(secs.size(), 2u);
  EXPECT_EQ(secs[0], "b");
  EXPECT_EQ(secs[1], "a");
  const auto keys = cfg.keys("b");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "z");
  EXPECT_EQ(keys[1], "a");
}

TEST(Ini, RejectUnreadTracksGetterReads) {
  const auto cfg = u::IniConfig::parse("[a]\nx = 1\nfiels = 2\n[b]\nz = 3\n");
  // has() records nothing; a getter records its key, absent or not.
  EXPECT_TRUE(cfg.has("a", "fiels"));
  cfg.get_int("a", "x", 0);
  cfg.get_int("a", "files", 0);
  try {
    cfg.reject_unread();
    FAIL() << "expected ConfigError";
  } catch (const u::ConfigError& e) {
    EXPECT_STREQ(e.what(), "[a] fiels: unknown key — did you mean 'files'?");
  }
  cfg.get_string("a", "fiels");
  EXPECT_THROW(cfg.reject_unread(), u::ConfigError);  // [b] was never read

  // A copy carries the marks along; reads on the copy stay its own.
  const u::IniConfig copy = cfg;
  copy.get_int("b", "z", 0);
  EXPECT_NO_THROW(copy.reject_unread());
  EXPECT_THROW(cfg.reject_unread(), u::ConfigError);
}

// Seeded mutation fuzzing of the reader every scenario goes through: byte
// flips, insertions and truncations of the shipped scenarios either fail
// with ConfigError or yield a config that survives dump() and reparsing.
TEST(Ini, FuzzedScenariosParseOrThrowAndRoundTrip) {
  std::vector<std::string> corpus;
  std::vector<std::filesystem::path> files;
  for (const auto& f : std::filesystem::directory_iterator(LSDS_SCENARIO_DIR)) {
    if (f.path().extension() == ".ini") files.push_back(f.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    corpus.push_back(ss.str());
  }
  ASSERT_FALSE(corpus.empty());

  // Bytes the format gives meaning to, so mutations hit the parser's edges.
  const std::string special = "[]=;#\"\r\n \t";
  lsds::core::RngStream rng(0x1d5f0221u);
  auto byte = [&]() -> char {
    if (rng.uniform() < 0.5) {
      return special[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(special.size()) - 1))];
    }
    return static_cast<char>(rng.uniform_int(0, 255));
  };
  int accepted = 0;
  for (int it = 0; it < 4000; ++it) {
    std::string text = corpus[static_cast<std::size_t>(it) % corpus.size()];
    const auto edits = rng.uniform_int(1, 8);
    for (std::int64_t e = 0; e < edits && !text.empty(); ++e) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.uniform_int(0, 9)) {
        case 0:
          text.resize(pos);
          break;
        case 1:
        case 2:
        case 3:
          text.insert(pos, 1, byte());
          break;
        default:
          text[pos] = byte();
          break;
      }
    }
    u::IniConfig cfg;
    try {
      cfg = u::IniConfig::parse(text);
    } catch (const u::ConfigError&) {
      continue;
    }
    ++accepted;
    std::string dumped;
    ASSERT_NO_THROW(dumped = cfg.dump()) << ::testing::PrintToString(text);
    const auto back = u::IniConfig::parse(dumped);
    ASSERT_EQ(back.dump(), dumped) << ::testing::PrintToString(text);
    ASSERT_EQ(back.sections(), cfg.sections());
    for (const std::string& section : cfg.sections()) {
      ASSERT_EQ(back.keys(section), cfg.keys(section));
      for (const std::string& key : cfg.keys(section)) {
        ASSERT_EQ(back.get(section, key), cfg.get(section, key))
            << "[" << section << "] " << key << " of " << ::testing::PrintToString(text);
      }
    }
  }
  EXPECT_GT(accepted, 100);  // the loop must exercise the round trip, not only errors
}

// --- flags -------------------------------------------------------------

TEST(Flags, ParseStyles) {
  const char* argv[] = {"prog", "--jobs=100", "--rate=1Gbps", "--verbose", "input.ini"};
  u::Flags f(5, argv);
  EXPECT_EQ(f.get_int("jobs", 0), 100);
  EXPECT_DOUBLE_EQ(f.get_rate("rate", 0), 1e9 / 8);
  EXPECT_TRUE(f.get_bool("verbose", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "input.ini");
}

TEST(Flags, Defaults) {
  const char* argv[] = {"prog"};
  u::Flags f(1, argv);
  EXPECT_EQ(f.get_int("missing", 42), 42);
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, MalformedThrows) {
  const char* argv[] = {"prog", "--jobs=abc"};
  u::Flags f(2, argv);
  EXPECT_THROW(f.get_int("jobs", 0), std::runtime_error);
}

// --- thread pool ---------------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  u::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  u::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, SubmitFromWorker) {
  u::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    count.fetch_add(1);
    pool.submit([&] { count.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}
