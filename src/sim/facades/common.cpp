#include "sim/facades/common.hpp"

#include <cmath>

#include "sim/parallel/execution.hpp"
#include "util/strings.hpp"

namespace lsds::sim::facades {

double get_positive(const util::IniConfig& ini, const char* section, const char* key,
                    double def) {
  const double v = ini.get_double(section, key, def);
  if (!(v > 0)) {
    throw util::ConfigError(util::strformat("[%s] %s must be > 0 (got %g)", section, key, v));
  }
  if (!std::isfinite(v)) {
    throw util::ConfigError(util::strformat("[%s] %s must be finite (got %g)", section, key, v));
  }
  return v;
}

core::QueueKind parse_queue(const std::string& s) {
  if (s == "sorted") return core::QueueKind::kSortedList;
  if (s == "heap") return core::QueueKind::kBinaryHeap;
  if (s == "splay") return core::QueueKind::kSplayTree;
  if (s == "calendar") return core::QueueKind::kCalendarQueue;
  if (s == "ladder") return core::QueueKind::kLadderQueue;
  throw util::ConfigError("unknown queue kind: " + s + " (sorted|heap|splay|calendar|ladder)");
}

middleware::FailureSpec parse_failures(const util::IniConfig& ini) {
  middleware::FailureSpec spec;
  spec.enabled = ini.get_bool("failures", "enabled", ini.has("failures", "mtbf"));
  spec.mtbf = ini.get_duration("failures", "mtbf", spec.mtbf);
  spec.mttr = ini.get_duration("failures", "mttr", spec.mttr);
  spec.horizon = ini.get_duration("failures", "horizon", spec.horizon);
  spec.weibull_shape = ini.get_double("failures", "weibull_shape", 0);
  spec.include_links = ini.get_bool("failures", "links", true);
  const std::string sem = ini.get_string("failures", "semantics", "resume");
  if (sem == "stop") {
    spec.semantics = core::FailureSemantics::kFailStop;
  } else if (sem != "resume") {
    throw util::ConfigError("unknown failure semantics: " + sem + " (resume|stop)");
  }
  return spec;
}

middleware::FailureSpec parse_resume_failures(const util::IniConfig& ini) {
  middleware::FailureSpec spec = parse_failures(ini);
  if (spec.enabled && spec.semantics == core::FailureSemantics::kFailStop) {
    throw util::ConfigError("semantics = stop requires facade = chaos");
  }
  return spec;
}

hosts::ExecutionSpec parse_exec_spec(const util::IniConfig& ini) {
  return sim::parallel::parse_execution(ini, 0,
                                        parse_queue(ini.get_string("scenario", "queue", "heap")));
}

hosts::StorageSharing parse_storage(const util::IniConfig& ini) {
  const std::string s = ini.get_string("storage", "sharing", "fifo");
  if (s == "fifo") return hosts::StorageSharing::kFifo;
  if (s == "maxmin") return hosts::StorageSharing::kMaxMin;
  throw util::ConfigError("unknown storage sharing: " + s + " (fifo|maxmin)");
}

}  // namespace lsds::sim::facades
