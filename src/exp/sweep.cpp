#include "exp/sweep.hpp"

#include <cassert>

#include "util/strings.hpp"

namespace lsds::exp {

namespace {

std::vector<std::string> split_values(const std::string& raw, const std::string& axis) {
  const char sep = raw.find('|') != std::string::npos ? '|' : ',';
  std::vector<std::string> out;
  for (const std::string& part : util::split(raw, sep)) {
    std::string v(util::trim(part));
    if (!v.empty()) out.push_back(std::move(v));
  }
  if (out.empty()) {
    throw util::ConfigError("[sweep] " + axis + ": empty value list");
  }
  return out;
}

}  // namespace

SweepSpec SweepSpec::parse(const util::IniConfig& ini) {
  SweepSpec spec;
  for (const std::string& name : ini.keys("sweep")) {
    const auto dot = name.find('.');
    if (dot == std::string::npos || dot == 0 || dot + 1 == name.size()) {
      throw util::ConfigError("[sweep] " + name +
                              ": sweep keys must be of the form section.key");
    }
    SweepAxis axis;
    axis.section = name.substr(0, dot);
    if (axis.section == "scenario" || axis.section == "campaign" || axis.section == "sweep" ||
        axis.section == "observability") {
      throw util::ConfigError("[sweep] " + name + ": cannot sweep the runner-owned [" +
                              axis.section +
                              "] section (seeds and queue are campaign-controlled)");
    }
    axis.key = name.substr(dot + 1);
    axis.values = split_values(*ini.get("sweep", name), name);
    spec.axes_.push_back(std::move(axis));
  }
  return spec;
}

std::size_t SweepSpec::point_count() const {
  std::size_t n = 1;
  for (const SweepAxis& a : axes_) n *= a.values.size();
  return n;
}

std::vector<std::size_t> SweepSpec::digits(std::size_t index) const {
  assert(index < point_count());
  std::vector<std::size_t> d(axes_.size(), 0);
  for (std::size_t i = axes_.size(); i-- > 0;) {
    d[i] = index % axes_[i].values.size();
    index /= axes_[i].values.size();
  }
  return d;
}

std::vector<std::pair<std::string, std::string>> SweepSpec::params(std::size_t index) const {
  const auto d = digits(index);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(axes_.size());
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    out.emplace_back(axes_[i].name(), axes_[i].values[d[i]]);
  }
  return out;
}

void SweepSpec::apply(std::size_t index, util::IniConfig& ini) const {
  const auto d = digits(index);
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    ini.set(axes_[i].section, axes_[i].key, axes_[i].values[d[i]]);
  }
}

}  // namespace lsds::exp
