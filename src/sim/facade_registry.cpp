#include "sim/facade_registry.hpp"

#include <stdexcept>

namespace lsds::sim {

void FacadeRegistry::add(Entry e) {
  if (entries_.count(e.name)) {
    throw std::invalid_argument("facade already registered: " + e.name);
  }
  const std::string name = e.name;
  entries_.emplace(name, std::move(e));
}

const FacadeRegistry::Entry* FacadeRegistry::find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<std::string> FacadeRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);  // map = sorted
  return out;
}

FacadeRegistry& FacadeRegistry::global() {
  static FacadeRegistry reg;
  return reg;
}

void register_builtin_facades() {
  static const bool once = [] {
    auto& reg = FacadeRegistry::global();
    register_bricks_facade(reg);
    register_optorsim_facade(reg);
    register_monarc_facade(reg);
    register_gridsim_facade(reg);
    register_chicsim_facade(reg);
    register_simg_facade(reg);
    register_chaos_facade(reg);
    register_explore_facade(reg);
    register_platform_facade(reg);
    register_p2p_facade(reg);
    return true;
  }();
  (void)once;
}

}  // namespace lsds::sim
