// Shared by the self-checking benches: double bit patterns (for hashing
// through core::StateHash), peak RSS, and the verdict with its record
// writer. Each bench judges its own run; a bench that cannot write its
// BENCH_*.json record fails like any other self-check.
#pragma once

#include <sys/resource.h>

#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "obs/json.hpp"

namespace lsds::bench {

inline std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Peak resident set size of this process so far.
inline double rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// A state hash as the 16-digit hex string the records carry.
inline std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

/// The bench's verdict: every failed expectation prints one FAIL line, and
/// main() exits 1 unless `ok` survived the whole run, record writing included.
struct SelfCheck {
  bool ok = true;

  __attribute__((format(printf, 3, 4))) void expect(bool cond, const char* fmt, ...) {
    if (cond) return;
    ok = false;
    std::va_list ap;
    va_start(ap, fmt);
    std::printf("FAIL: ");
    std::vprintf(fmt, ap);
    std::printf("\n");
    va_end(ap);
  }

  /// Writes `doc` to `path` and prints "wrote <path>"; a file that cannot
  /// be written is a failed expectation.
  void write(const obs::Json& doc, const char* path) {
    try {
      doc.write_file(path);
      std::printf("wrote %s\n", path);
    } catch (const std::exception& e) {
      expect(false, "%s", e.what());
    }
  }
};

}  // namespace lsds::bench
