// SimGrid facade: agents, channels, and compile-time vs runtime scheduling.
//
// "SimGrid describes scheduling algorithms in terms of agent entities that
// make scheduling decisions. These agents interact by sending and receiving
// events via communication channels. … SimGrid can be used to simulate
// compile time and running scheduling algorithms. In the first category,
// all scheduling decisions are taken before the execution. In the second
// category some decision are taken during the execution."
//
// The facade evaluates both categories on the same heterogeneous
// master/worker scenario:
//   * kCompileTime — a static mapping (min-ECT list schedule) computed from
//     nominal task lengths before execution; workers receive their full
//     task list up front over channels.
//   * kRuntime     — a master agent dispatches tasks one-at-a-time to
//     whichever worker reports idle (self-scheduling), adapting to actual
//     completion order.
// Tasks carry input payloads shipped over the network, so scheduling
// interacts with communication — the SimGrid problem shape.
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "stats/summary.hpp"

namespace lsds::obs {
class RunReport;
}

namespace lsds::sim::simg {

enum class SchedulingMode { kCompileTime, kRuntime };

const char* to_string(SchedulingMode m);

struct Config {
  std::size_t num_workers = 4;
  std::size_t num_tasks = 64;
  double mean_ops = 1000;
  /// Relative error of the nominal task lengths the compile-time scheduler
  /// sees (0 = perfect estimates; 0.5 = +/-50% uniform noise).
  double estimate_error = 0.3;
  double task_input_bytes = 1e6;
  /// Worker speeds interpolate linearly from fastest to slowest:
  /// speed_i in [speed_min, speed_max].
  double speed_min = 500;
  double speed_max = 2000;
  double worker_bw = 125e6;
  double worker_latency = 0.005;
  SchedulingMode mode = SchedulingMode::kRuntime;
};

struct Result {
  std::uint64_t tasks = 0;
  double makespan = 0;
  stats::SampleSet task_times;
  /// Tasks executed per worker.
  std::vector<std::uint64_t> per_worker;

  /// Fill the report's "result" section (shared names; bytes_moved = 0, the
  /// facade measures scheduling, not data movement).
  void to_report(obs::RunReport& report) const;
};

Result run(core::Engine& engine, const Config& cfg);

}  // namespace lsds::sim::simg
