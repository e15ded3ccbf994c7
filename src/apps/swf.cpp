#include "apps/swf.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace lsds::apps {

std::vector<SwfJob> parse_swf(const std::string& text) {
  std::vector<SwfJob> out;
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto trimmed = util::trim(line);
    if (trimmed.empty() || trimmed.front() == ';') continue;
    const auto f = util::split_ws(trimmed);
    if (f.size() < 9) {
      throw std::runtime_error(
          util::strformat("swf: line %zu: expected >= 9 fields, got %zu", lineno, f.size()));
    }
    auto num = [&](std::size_t idx) {
      double v = 0;
      if (!util::parse_double(f[idx], v) || !std::isfinite(v)) {
        throw std::runtime_error(util::strformat(
            "swf: line %zu: field %zu ('%s') not a finite number", lineno, idx + 1,
            f[idx].c_str()));
      }
      return v;
    };
    const double id = num(0);
    const double submit = num(1);
    const double runtime = num(3);
    const double alloc_procs = num(4);
    const double req_procs = num(7);
    const double req_time = num(8);

    double procs = alloc_procs > 0 ? alloc_procs : req_procs;
    if (runtime <= 0 || procs < 1) continue;  // cancelled/failed entry
    // The first values the job id and core count cannot hold: 2^64, 2^32.
    if (id < 0 || id >= 0x1p64 || procs >= 0x1p32) {
      throw std::runtime_error(
          util::strformat("swf: line %zu: job id or processor count out of range", lineno));
    }

    SwfJob j;
    j.submit_time = submit < 0 ? 0 : submit;
    j.job.id = static_cast<hosts::JobId>(id);
    j.job.cores = static_cast<unsigned>(procs);
    j.job.runtime_actual = runtime;
    j.job.runtime_estimate = req_time > 0 ? req_time : runtime;
    out.push_back(j);
  }
  return out;
}

std::vector<SwfJob> load_swf(const std::string& path) {
  std::ifstream fs(path);
  if (!fs) throw std::runtime_error("swf: cannot open " + path);
  std::ostringstream ss;
  ss << fs.rdbuf();
  return parse_swf(ss.str());
}

std::string to_swf(const std::vector<SwfJob>& jobs) {
  std::string out = "; lsds SWF export\n";
  for (const auto& j : jobs) {
    // Fields: id submit wait run alloc_procs cpu_used mem req_procs
    //         req_time req_mem status uid gid app queue part prev think
    out += util::strformat("%llu %.3f -1 %.3f %u -1 -1 %u %.3f -1 -1 -1 -1 -1 -1 -1 -1 -1\n",
                           static_cast<unsigned long long>(j.job.id), j.submit_time,
                           j.job.runtime_actual, j.job.cores, j.job.cores,
                           j.job.runtime_estimate);
  }
  return out;
}

std::vector<SwfJob> generate_swf_like(core::RngStream& rng, std::size_t n_jobs,
                                      double mean_interarrival, double mean_runtime,
                                      unsigned max_cores, double overestimate_factor) {
  std::vector<SwfJob> out;
  out.reserve(n_jobs);
  double t = 0;
  // Power-of-two widths dominate real traces; draw an exponent uniformly.
  unsigned max_exp = 0;
  while ((2u << max_exp) <= max_cores) ++max_exp;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    t += rng.exponential(mean_interarrival);
    SwfJob j;
    j.submit_time = t;
    j.job.id = static_cast<hosts::JobId>(i + 1);
    const auto e = static_cast<unsigned>(rng.uniform_int(0, static_cast<std::int64_t>(max_exp)));
    j.job.cores = std::min(max_cores, 1u << e);
    j.job.runtime_actual = rng.exponential(mean_runtime) + 1.0;
    j.job.runtime_estimate = j.job.runtime_actual * rng.uniform(1.0, overestimate_factor);
    out.push_back(j);
  }
  return out;
}

}  // namespace lsds::apps
