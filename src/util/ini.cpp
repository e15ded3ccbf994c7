#include "util/ini.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "util/strings.hpp"
#include "util/units.hpp"

namespace lsds::util {

namespace {

// Strips a trailing comment that is not inside quotes; `in_quote` is the
// quote state the scan starts in.
std::string_view strip_comment(std::string_view line, bool in_quote = false) {
  for (size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '"') in_quote = !in_quote;
    if (!in_quote && (line[i] == ';' || line[i] == '#')) return line.substr(0, i);
  }
  return line;
}

std::string unquote(std::string_view v) {
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
    return std::string(v.substr(1, v.size() - 2));
  }
  return std::string(v);
}

}  // namespace

IniConfig IniConfig::parse(std::string_view text) {
  IniConfig cfg;
  std::string current;  // current section; "" = global
  size_t lineno = 0;
  std::istringstream in{std::string(text)};
  std::string raw;
  while (std::getline(in, raw)) {
    ++lineno;
    std::string_view line = trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.find('\r') != std::string_view::npos) {
      // dump() could not write it back: the format is line-based.
      throw ConfigError(strformat("ini: line %zu: carriage return inside a line", lineno));
    }
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw ConfigError(strformat("ini: line %zu: unterminated section header", lineno));
      }
      current = std::string(trim(line.substr(1, line.size() - 2)));
      if (current.empty()) {
        throw ConfigError(strformat("ini: line %zu: empty section name", lineno));
      }
      if (!cfg.values_.count(current)) {
        cfg.values_[current];
        cfg.section_order_.push_back(current);
      }
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError(strformat("ini: line %zu: expected key = value", lineno));
    }
    const std::string key{trim(line.substr(0, eq))};
    if (key.empty()) throw ConfigError(strformat("ini: line %zu: empty key", lineno));
    const std::string value = unquote(trim(line.substr(eq + 1)));
    cfg.set(current, key, value);
  }
  return cfg;
}

IniConfig IniConfig::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ConfigError("ini: cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse(ss.str());
}

void IniConfig::set(const std::string& section, const std::string& key, std::string value) {
  if (!values_.count(section)) {
    section_order_.push_back(section);
  }
  auto& sec = values_[section];
  if (!sec.count(key)) key_order_[section].push_back(key);
  sec[key] = std::move(value);
}

bool IniConfig::has(const std::string& section, const std::string& key) const {
  return find(section, key) != nullptr;
}

const std::string* IniConfig::find(const std::string& section, const std::string& key) const {
  auto sit = values_.find(section);
  if (sit == values_.end()) return nullptr;
  auto kit = sit->second.find(key);
  if (kit == sit->second.end()) return nullptr;
  return &kit->second;
}

const std::string* IniConfig::read(const std::string& section, const std::string& key) const {
  read_[section].insert(key);
  return find(section, key);
}

std::optional<std::string> IniConfig::get(const std::string& section, const std::string& key) const {
  const std::string* v = read(section, key);
  if (!v) return std::nullopt;
  return *v;
}

std::string IniConfig::get_string(const std::string& section, const std::string& key,
                                  std::string def) const {
  const std::string* v = read(section, key);
  return v ? *v : def;
}

double IniConfig::get_double(const std::string& section, const std::string& key, double def) const {
  const std::string* v = read(section, key);
  if (!v) return def;
  double out = 0;
  if (!parse_double(*v, out)) {
    throw ConfigError(strformat("ini: [%s] %s: '%s' is not a number", section.c_str(), key.c_str(),
                                v->c_str()));
  }
  return out;
}

long long IniConfig::get_int(const std::string& section, const std::string& key,
                             long long def) const {
  const std::string* v = read(section, key);
  if (!v) return def;
  long long out = 0;
  if (!parse_long(*v, out)) {
    throw ConfigError(strformat("ini: [%s] %s: '%s' is not an integer", section.c_str(),
                                key.c_str(), v->c_str()));
  }
  return out;
}

std::size_t IniConfig::get_count(const std::string& section, const std::string& key,
                                 std::size_t def, std::size_t min) const {
  const long long v = get_int(section, key, static_cast<long long>(def));
  if (v < 0 || static_cast<unsigned long long>(v) < min) {
    throw ConfigError(strformat("[%s] %s must be >= %zu (got %lld)", section.c_str(), key.c_str(),
                                min, v));
  }
  return static_cast<std::size_t>(v);
}

bool IniConfig::get_bool(const std::string& section, const std::string& key, bool def) const {
  const std::string* v = read(section, key);
  if (!v) return def;
  bool out = false;
  if (!parse_bool(*v, out)) {
    throw ConfigError(strformat("ini: [%s] %s: '%s' is not a boolean", section.c_str(), key.c_str(),
                                v->c_str()));
  }
  return out;
}

double IniConfig::get_size(const std::string& section, const std::string& key,
                           double def_bytes) const {
  const std::string* v = read(section, key);
  if (!v) return def_bytes;
  double out = 0;
  if (!parse_size(*v, out)) {
    throw ConfigError(strformat("ini: [%s] %s: '%s' is not a non-negative data size",
                                section.c_str(), key.c_str(), v->c_str()));
  }
  return out;
}

double IniConfig::get_rate(const std::string& section, const std::string& key,
                           double def_bps) const {
  const std::string* v = read(section, key);
  if (!v) return def_bps;
  double out = 0;
  if (!parse_rate(*v, out)) {
    throw ConfigError(strformat("ini: [%s] %s: '%s' is not a positive data rate",
                                section.c_str(), key.c_str(), v->c_str()));
  }
  return out;
}

double IniConfig::get_duration(const std::string& section, const std::string& key,
                               double def_sec) const {
  const std::string* v = read(section, key);
  if (!v) return def_sec;
  double out = 0;
  if (!parse_duration(*v, out)) {
    throw ConfigError(strformat("ini: [%s] %s: '%s' is not a non-negative duration",
                                section.c_str(), key.c_str(), v->c_str()));
  }
  return out;
}

std::string IniConfig::dump() const {
  std::string out;
  auto emit_section = [&](const std::string& section) {
    auto sit = values_.find(section);
    if (sit == values_.end()) return;
    if (!section.empty()) out += "[" + section + "]\n";
    auto oit = key_order_.find(section);
    if (oit == key_order_.end()) return;
    for (const std::string& key : oit->second) {
      auto kit = sit->second.find(key);
      if (kit == sit->second.end()) continue;
      const std::string& v = kit->second;
      if (v.find('\n') != std::string::npos || v.find('\r') != std::string::npos) {
        throw ConfigError(strformat("ini: [%s] %s: value contains a line break, which the "
                                    "line-based format cannot represent",
                                    section.c_str(), key.c_str()));
      }
      // strip_comment's quote state runs across the whole line, so a '"'
      // in the key flips how the value's comment starters are read.
      const bool in_quote = std::count(key.begin(), key.end(), '"') % 2 == 1;
      auto survives_comment_strip = [&v](bool q) { return strip_comment(v, q).size() == v.size(); };
      // Write the value bare unless the parser would mangle it: an empty
      // value, surrounding whitespace, outer quotes unquote() would strip,
      // or a comment starter strip_comment would cut at.
      const bool bare = !v.empty() && std::isspace(static_cast<unsigned char>(v.front())) == 0 &&
                        std::isspace(static_cast<unsigned char>(v.back())) == 0 &&
                        !(v.size() >= 2 && v.front() == '"' && v.back() == '"') &&
                        survives_comment_strip(in_quote);
      if (!bare && !survives_comment_strip(!in_quote)) {
        throw ConfigError(strformat("ini: [%s] %s: value has comment starters both inside and "
                                    "outside quotes, which the format cannot represent",
                                    section.c_str(), key.c_str()));
      }
      out += key + " = " + (bare ? v : "\"" + v + "\"") + "\n";
    }
  };
  // Keys set before any [section] header live in the global section and
  // must be re-emitted first to stay global.
  emit_section("");
  for (const std::string& section : section_order_) {
    if (section.empty()) continue;
    emit_section(section);
  }
  return out;
}

void IniConfig::save(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw ConfigError("ini: cannot open " + path + " for writing");
  f << dump();
  if (!f.flush()) throw ConfigError("ini: write to " + path + " failed");
}

void IniConfig::reject_unread() const {
  std::vector<std::string> read_sections;
  for (const auto& entry : read_) read_sections.push_back(entry.first);
  for (const std::string& section : section_order_) {
    auto rit = read_.find(section);
    if (rit == read_.end()) {
      std::string msg = "[" + section + "]: unknown section";
      const std::string hint = near_miss(section, read_sections);
      if (!hint.empty()) msg += " — did you mean [" + hint + "]?";
      throw ConfigError(msg);
    }
    for (const std::string& key : keys(section)) {
      if (rit->second.count(key)) continue;
      std::string msg = "[" + section + "] " + key + ": unknown key";
      const std::string hint = near_miss(key, rit->second);
      if (!hint.empty()) msg += " — did you mean '" + hint + "'?";
      throw ConfigError(msg);
    }
  }
}

std::vector<std::string> IniConfig::sections() const { return section_order_; }

std::vector<std::string> IniConfig::keys(const std::string& section) const {
  auto it = key_order_.find(section);
  if (it == key_order_.end()) return {};
  return it->second;
}

}  // namespace lsds::util
