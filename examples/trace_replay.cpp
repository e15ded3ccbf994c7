// Trace replay example: the taxonomy's two input classes end to end.
//
// 1. Generate a synthetic bag-of-tasks workload (input-data: generators).
// 2. Serialize it to the trace format and parse it back (input-data:
//    monitoring-style data sets).
// 3. Drive a simulation from the parsed trace with TraceDriver and verify
//    both paths produce the same makespan.
//
//   ./trace_replay [--jobs=50] [--out=workload.trace]
#include <cstdio>
#include <fstream>

#include "apps/trace_io.hpp"
#include "apps/workload.hpp"
#include "core/engine.hpp"
#include "core/trace.hpp"
#include "hosts/cpu.hpp"
#include "util/flags.hpp"

using namespace lsds;

namespace {

// Run the workload on a 4-core space-shared node; return the makespan.
double run_jobs(core::Engine& eng, const std::vector<apps::TimedJob>& jobs) {
  hosts::CpuResource cpu(eng, "node", 4, 100.0, hosts::SharingPolicy::kSpaceShared);
  double makespan = 0;
  for (const auto& tj : jobs) {
    eng.schedule_at(tj.arrival, [&, id = tj.job.id, ops = tj.job.ops] {
      cpu.submit(id, ops, [&](hosts::JobId) { makespan = eng.now(); });
    });
  }
  eng.run();
  return makespan;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const auto num_jobs = static_cast<std::size_t>(flags.get_int("jobs", 50));
  const std::string path = flags.get_string("out", "");
  flags.reject_unread();

  // 1. Generator path.
  core::RngStream rng(seed);
  apps::BagWorkloadSpec spec;
  spec.num_jobs = num_jobs;
  spec.mean_interarrival = 2.0;
  spec.ops = {apps::SizeDist::kExponential, 500, 0};
  const auto generated = apps::generate_bag(rng, spec);

  core::Engine eng_gen;
  const double makespan_gen = run_jobs(eng_gen, generated);
  std::printf("generator path:   %zu jobs, makespan %.3f s, %llu events\n", generated.size(),
              makespan_gen, static_cast<unsigned long long>(eng_gen.stats().executed));

  // 2. Trace round trip.
  const std::string text = apps::workload_to_trace(generated);
  if (!path.empty()) {
    std::ofstream f(path);
    f << text;
    std::printf("trace written to %s (%zu bytes)\n", path.c_str(), text.size());
  }
  const auto parsed = apps::workload_from_trace(text);

  // 3. Trace-driven path (via TraceDriver on the raw trace events).
  core::Engine eng_trace;
  hosts::CpuResource cpu(eng_trace, "node", 4, 100.0, hosts::SharingPolicy::kSpaceShared);
  double makespan_trace = 0;
  const auto events = core::TraceReader::parse_text(text);
  core::TraceDriver driver(eng_trace, events, [&](const core::TraceEvent& ev) {
    if (ev.kind != "job") return;
    cpu.submit(static_cast<hosts::JobId>(ev.num("id", 0)), ev.num("ops", 0),
               [&](hosts::JobId) { makespan_trace = eng_trace.now(); });
  });
  driver.arm();
  eng_trace.run();
  std::printf("trace-driven run: %zu jobs, makespan %.3f s\n", parsed.jobs.size(),
              makespan_trace);

  const double err = std::abs(makespan_trace - makespan_gen);
  std::printf("paths agree within %.2e s: %s\n", err, err < 1e-6 ? "OK" : "MISMATCH");
  return err < 1e-6 ? 0 : 1;
}
