// Structured JSONL trace sink.
//
// One line per record, append-only, flat JSON objects — the format every
// trace-analysis stack ingests directly. Two record types:
//
//   {"type":"span","kind":"flow","id":7,"t0":0.05,"t1":1.2,"quantity":2e7,
//    "src":0,"dst":3,"status":"done","name":"..."}
//   {"type":"event","t":12.5,"seq":4031}
//
// Span records come from the process-wide SpanBus (net/flow transfers,
// hosts/cpu job attempts, middleware scheduler dispatches); event records
// from the engine probe when per-event tracing is explicitly requested
// ([observability] trace_events — high volume, off by default). The sink is
// thread-safe: parallel LP threads publish spans concurrently, so every
// write takes a mutex. A span recorded for an LP (`lp >= 0`, published
// inside that LP's window) goes to the LP's buffer instead of the file, and
// append_lp_lines() writes the buffers in LP order after the run: each LP's
// spans arrive in its deterministic event order, so the file's bytes are
// the same from run to run whatever order the host ran the LP threads in.
// The cost is memory: a parallel run holds its LP span lines until
// finalize() (or the destructor), about the size of that part of the file
// (a 3,000-file lhc_parallel run with a 12.4 MB trace peaks 4.3 MB higher
// than when its lines were written as they came).
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace lsds::obs {

class TraceSink {
 public:
  /// Opens `path` for writing. Throws std::runtime_error when unwritable.
  explicit TraceSink(const std::string& path);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Write one span line, or buffer it for LP `lp` when `lp >= 0`.
  void record_span(const Span& s, int lp = -1);
  void record_event(double t, std::uint64_t seq);
  /// Write the LP buffers to the file, LP 0 first, and empty them.
  void append_lp_lines();

  std::uint64_t records() const { return records_; }
  const std::string& path() const { return path_; }

  /// Flush buffered lines to disk (also done on destruction).
  void flush();

 private:
  void write_line(const std::string& line);

  std::string path_;
  std::FILE* file_;
  std::mutex mu_;
  std::uint64_t records_ = 0;
  std::vector<std::string> lp_lines_;  // [lp]: '\n'-terminated span lines
};

}  // namespace lsds::obs
