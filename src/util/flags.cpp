#include "util/flags.hpp"

#include <stdexcept>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace lsds::util {

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      named_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else {
      named_[std::string(arg)] = "true";  // bare boolean flag
    }
  }
}

bool Flags::has(const std::string& name) const { return named_.count(name) > 0; }

std::string Flags::get_string(const std::string& name, std::string def) const {
  auto it = named_.find(name);
  return it == named_.end() ? def : it->second;
}

long long Flags::get_int(const std::string& name, long long def) const {
  auto it = named_.find(name);
  if (it == named_.end()) return def;
  long long out = 0;
  if (!parse_long(it->second, out)) {
    throw std::runtime_error("flag --" + name + ": '" + it->second + "' is not an integer");
  }
  return out;
}

double Flags::get_double(const std::string& name, double def) const {
  auto it = named_.find(name);
  if (it == named_.end()) return def;
  double out = 0;
  if (!parse_double(it->second, out)) {
    throw std::runtime_error("flag --" + name + ": '" + it->second + "' is not a number");
  }
  return out;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  auto it = named_.find(name);
  if (it == named_.end()) return def;
  bool out = false;
  if (!parse_bool(it->second, out)) {
    throw std::runtime_error("flag --" + name + ": '" + it->second + "' is not a boolean");
  }
  return out;
}

double Flags::get_rate(const std::string& name, double def) const {
  auto it = named_.find(name);
  if (it == named_.end()) return def;
  double out = 0;
  if (!parse_rate(it->second, out)) {
    throw std::runtime_error("flag --" + name + ": '" + it->second +
                             "' is not a positive rate");
  }
  return out;
}

double Flags::get_size(const std::string& name, double def) const {
  auto it = named_.find(name);
  if (it == named_.end()) return def;
  double out = 0;
  if (!parse_size(it->second, out)) {
    throw std::runtime_error("flag --" + name + ": '" + it->second +
                             "' is not a non-negative size");
  }
  return out;
}

double Flags::get_duration(const std::string& name, double def) const {
  auto it = named_.find(name);
  if (it == named_.end()) return def;
  double out = 0;
  if (!parse_duration(it->second, out)) {
    throw std::runtime_error("flag --" + name + ": '" + it->second +
                             "' is not a non-negative duration");
  }
  return out;
}

}  // namespace lsds::util
