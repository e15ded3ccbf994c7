#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>

namespace lsds::util {

std::string numbered(std::string_view prefix, std::size_t n, std::size_t width) {
  char digits[20];  // SIZE_MAX has 20 decimal digits
  const std::size_t len =
      static_cast<std::size_t>(std::to_chars(digits, digits + sizeof digits, n).ptr - digits);
  const std::size_t pad = width > len ? width - len : 0;
  std::string out;
  out.reserve(prefix.size() + pad + len);
  out.append(prefix).append(pad, '0').append(digits, len);
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool parse_double(std::string_view s, double& out) {
  s = trim(s);
  if (s.empty()) return false;
  // std::from_chars<double> is available in libstdc++ 12.
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

bool parse_long(std::string_view s, long long& out) {
  s = trim(s);
  if (s.empty()) return false;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

std::size_t edit_distance(std::string_view a, std::string_view b) {
  // Single-row dynamic program; rows are indexed by characters of `b`.
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];  // row[i-1][j-1]
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      row[j] = std::min({up + 1, row[j - 1] + 1, sub});
      diag = up;
    }
  }
  return row[b.size()];
}

bool parse_bool(std::string_view s, bool& out) {
  const std::string v = to_lower(trim(s));
  if (v == "true" || v == "yes" || v == "on" || v == "1") {
    out = true;
    return true;
  }
  if (v == "false" || v == "no" || v == "off" || v == "0") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace lsds::util
