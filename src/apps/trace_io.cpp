#include "apps/trace_io.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace lsds::apps {

namespace {
// A size or amount attribute of a workload line: 0 when absent or not a
// number, else it must be finite and >= 0.
double amount(const core::TraceEvent& ev, const char* key) {
  const double v = ev.num(key, 0);
  if (!std::isfinite(v) || v < 0) {
    throw std::runtime_error(util::strformat("trace_io: %s line: %s must be finite and >= 0",
                                             ev.kind.c_str(), key));
  }
  return v;
}
}  // namespace

std::string workload_to_trace(const std::vector<TimedJob>& jobs,
                              const std::vector<std::pair<std::string, double>>& files) {
  std::ostringstream out;
  core::TraceWriter w(out);
  w.write_comment("lsds workload trace");
  for (const auto& [lfn, bytes] : files) {
    core::TraceEvent ev;
    ev.time = 0;
    ev.kind = "file";
    ev.attrs = {{"lfn", lfn}, {"bytes", util::strformat("%.9g", bytes)}};
    w.write(ev);
  }
  for (const auto& tj : jobs) {
    core::TraceEvent ev;
    ev.time = tj.arrival;
    ev.kind = "job";
    ev.attrs = {{"id", util::strformat("%llu", static_cast<unsigned long long>(tj.job.id))},
                {"ops", util::strformat("%.9g", tj.job.ops)}};
    if (tj.job.output_bytes > 0) {
      ev.attrs.emplace_back("output", util::strformat("%.9g", tj.job.output_bytes));
    }
    if (!tj.job.input_files.empty()) {
      ev.attrs.emplace_back("inputs", util::join(tj.job.input_files, ";"));
    }
    w.write(ev);
  }
  return out.str();
}

ParsedWorkload workload_from_trace(const std::string& text) {
  ParsedWorkload out;
  for (const auto& ev : core::TraceReader::parse_text(text)) {
    if (ev.kind == "file") {
      const auto lfn = ev.attr("lfn");
      if (!lfn) throw std::runtime_error("trace_io: file line missing lfn");
      out.files.emplace_back(*lfn, amount(ev, "bytes"));
    } else if (ev.kind == "job") {
      TimedJob tj;
      tj.arrival = ev.time;
      // Ids are 1 .. 2^64 - 1 (0 is kInvalidJob).
      const double id = ev.num("id", 0);
      if (!(id >= 1 && id < 0x1p64)) {
        throw std::runtime_error("trace_io: job line missing id or id out of range");
      }
      tj.job.id = static_cast<hosts::JobId>(id);
      tj.job.name = util::strformat("job%llu", static_cast<unsigned long long>(tj.job.id));
      tj.job.ops = amount(ev, "ops");
      tj.job.output_bytes = amount(ev, "output");
      if (auto inputs = ev.attr("inputs")) {
        for (auto& lfn : util::split(*inputs, ';')) {
          if (!lfn.empty()) tj.job.input_files.push_back(std::move(lfn));
        }
      }
      out.jobs.push_back(std::move(tj));
    }
    // Unknown kinds are skipped: traces may interleave monitoring samples.
  }
  return out;
}

}  // namespace lsds::apps
