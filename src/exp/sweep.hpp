// Parameter sweeps: the grid half of an experiment campaign.
//
// A `[sweep]` INI section turns a single scenario into a family of run
// points. Each key names a target assignment as `section.key`, each value
// lists the alternatives ('|'-separated, or ','-separated when no '|' is
// present — rates like `2.5Gbps|30Gbps` keep their commas-free form either
// way):
//
//   [sweep]
//   storage.sharing = fifo|maxmin
//   workload.n_jobs = 100,1000,10000
//
// expands to the 2 x 3 = 6 cross-product points. Axis order is file order;
// the FIRST axis varies slowest (odometer order), so point indices — and
// with them every downstream report — are stable under re-runs.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "util/ini.hpp"

namespace lsds::exp {

struct SweepAxis {
  std::string section;  // INI section the value is assigned into
  std::string key;
  std::vector<std::string> values;  // >= 1, listed order

  std::string name() const { return section + "." + key; }
};

class SweepSpec {
 public:
  /// Parse the `[sweep]` section (empty spec when absent). Throws
  /// util::ConfigError on a key without a '.', an empty value list, or a
  /// target in the runner-owned [scenario]/[campaign]/[sweep]/
  /// [observability] sections. A target key no facade reads is not caught
  /// here: it fails the point INI's IniConfig::reject_unread().
  static SweepSpec parse(const util::IniConfig& ini);

  const std::vector<SweepAxis>& axes() const { return axes_; }
  bool empty() const { return axes_.empty(); }

  /// Number of cross-product points (1 for an empty sweep: the base
  /// scenario itself is the single point).
  std::size_t point_count() const;

  /// The (axis name, value) assignments of point `index` in axis order.
  std::vector<std::pair<std::string, std::string>> params(std::size_t index) const;

  /// Overwrite point `index`'s assignments into `ini`.
  void apply(std::size_t index, util::IniConfig& ini) const;

 private:
  /// Per-axis value index of `index` in odometer order (first axis slowest).
  std::vector<std::size_t> digits(std::size_t index) const;

  std::vector<SweepAxis> axes_;
};

}  // namespace lsds::exp
