#include "sim/parallel/execution.hpp"

#include "util/strings.hpp"

namespace lsds::sim::parallel {

hosts::ExecutionSpec parse_execution(const util::IniConfig& ini, std::uint64_t seed,
                                     core::QueueKind queue) {
  hosts::ExecutionSpec spec;
  spec.seed = seed;
  spec.queue = queue;
  const std::string mode = ini.get_string("execution", "mode", "serial");
  if (mode == "parallel") {
    spec.parallel = true;
  } else if (mode != "serial") {
    throw util::ConfigError("unknown execution mode: " + mode + " (serial|parallel)");
  }
  spec.threads = static_cast<unsigned>(ini.get_count("execution", "threads", 4, 1));
  spec.lps = static_cast<unsigned>(ini.get_count("execution", "lps", 0));
  const std::string part = ini.get_string("execution", "partition", "metis-ish");
  if (part == "metis-ish" || part == "topology") {
    spec.partition = net::PartitionScheme::kTopology;
  } else if (part == "round-robin") {
    spec.partition = net::PartitionScheme::kRoundRobin;
  } else {
    throw util::ConfigError("unknown partition scheme: " + part + " (metis-ish|round-robin)");
  }
  spec.lookahead_override = ini.get_duration("execution", "lookahead", 0);
  return spec;
}

std::string describe(const hosts::ExecutionReport& rep) {
  if (!rep.parallel) {
    std::string s = "execution: serial";
    if (!rep.fallback_reason.empty()) s += " (fallback: " + rep.fallback_reason + ")";
    s += util::strformat(", %llu events",
                         static_cast<unsigned long long>(rep.engine.events));
    return s + "\n";
  }
  return util::strformat(
      "execution: parallel, %u LPs on %u threads, partition=%s, lookahead=%.4g s\n"
      "  %llu windows (%llu inline), %llu events, %llu cross-LP msgs, "
      "%llu lookahead violations, %llu past clamps\n"
      "  barrier wait %.3g s\n"
      "  per-LP events: mean %.0f, min %.0f, max %.0f (imbalance %.2f)\n",
      rep.lps, rep.threads, net::to_string(rep.partition), rep.lookahead,
      static_cast<unsigned long long>(rep.engine.windows),
      static_cast<unsigned long long>(rep.engine.inline_windows),
      static_cast<unsigned long long>(rep.engine.events),
      static_cast<unsigned long long>(rep.engine.cross_messages),
      static_cast<unsigned long long>(rep.engine.lookahead_violations),
      static_cast<unsigned long long>(rep.engine.past_clamped), rep.engine.barrier_wait_s,
      rep.lp_events.mean(),
      rep.lp_events.min(), rep.lp_events.max(), rep.imbalance());
}

}  // namespace lsds::sim::parallel
