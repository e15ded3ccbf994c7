#include "util/flags.hpp"

#include <cstdio>
#include <cstdlib>
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

const std::string* Flags::find(const std::string& name) const {
  read_.insert(name);
  const auto it = named_.find(name);
  return it == named_.end() ? nullptr : &it->second;
}

bool Flags::has(const std::string& name) const { return find(name) != nullptr; }

void Flags::reject_unread() const {
  for (const auto& entry : named_) {
    const std::string& name = entry.first;
    if (read_.count(name)) continue;
    std::string msg = "unknown flag --" + name;
    const std::string hint = near_miss(name, read_);
    if (!hint.empty()) msg += " (did you mean --" + hint + "?)";
    std::fprintf(stderr, "%s: %s\n", program_.c_str(), msg.c_str());
    std::exit(1);
  }
}

std::string Flags::get_string(const std::string& name, std::string def) const {
  const std::string* v = find(name);
  return v ? *v : def;
}

long long Flags::get_int(const std::string& name, long long def) const {
  const std::string* v = find(name);
  if (!v) return def;
  long long out = 0;
  if (!parse_long(*v, out)) {
    throw std::runtime_error("flag --" + name + ": '" + *v + "' is not an integer");
  }
  return out;
}

double Flags::get_double(const std::string& name, double def) const {
  const std::string* v = find(name);
  if (!v) return def;
  double out = 0;
  if (!parse_double(*v, out)) {
    throw std::runtime_error("flag --" + name + ": '" + *v + "' is not a number");
  }
  return out;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const std::string* v = find(name);
  if (!v) return def;
  bool out = false;
  if (!parse_bool(*v, out)) {
    throw std::runtime_error("flag --" + name + ": '" + *v + "' is not a boolean");
  }
  return out;
}

double Flags::get_rate(const std::string& name, double def) const {
  const std::string* v = find(name);
  if (!v) return def;
  double out = 0;
  if (!parse_rate(*v, out)) {
    throw std::runtime_error("flag --" + name + ": '" + *v +
                             "' is not a positive rate");
  }
  return out;
}

double Flags::get_size(const std::string& name, double def) const {
  const std::string* v = find(name);
  if (!v) return def;
  double out = 0;
  if (!parse_size(*v, out)) {
    throw std::runtime_error("flag --" + name + ": '" + *v +
                             "' is not a non-negative size");
  }
  return out;
}

double Flags::get_duration(const std::string& name, double def) const {
  const std::string* v = find(name);
  if (!v) return def;
  double out = 0;
  if (!parse_duration(*v, out)) {
    throw std::runtime_error("flag --" + name + ": '" + *v +
                             "' is not a non-negative duration");
  }
  return out;
}

}  // namespace lsds::util
