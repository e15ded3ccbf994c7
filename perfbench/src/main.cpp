// lsds_perfbench: run one benchmark workload once and print one JSON record.
//
//   lsds_perfbench --workload <name> --seed <n> [--traced] [--tmp <dir>]
//
// run.py starts one process per run, so peak RSS belongs to one run, and
// derives every reported metric from these records.
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: lsds_perfbench --workload <name> --seed <n> [--traced] [--tmp <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  bool traced = false;
  bool have_seed = false;
  perfbench::RunContext ctx;
  ctx.tmp_dir = ".";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--traced") {
        traced = true;
      } else if (arg == "--workload" && has_value) {
        workload = argv[++i];
      } else if (arg == "--seed" && has_value) {
        ctx.seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (arg == "--tmp" && has_value) {
        ctx.tmp_dir = argv[++i];
      } else {
        return usage();
      }
    }
    if (workload.empty() || !have_seed) return usage();
    const auto record = perfbench::run_workload(workload, traced, ctx);
    std::printf("%s\n", record.dump(0).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lsds_perfbench: %s\n", e.what());
    return 1;
  }
}
