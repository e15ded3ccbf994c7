// String helpers shared across the framework.
//
// gcc 12 does not ship std::format, so `strformat` provides a type-safe
// printf-style replacement used by the logger and the table writers.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace lsds::util {

/// printf-style formatting into a std::string.
/// Throws std::runtime_error on encoding errors.
template <typename... Args>
std::string strformat(const char* fmt, Args&&... args) {
  if constexpr (sizeof...(Args) == 0) {
    return std::string(fmt);
  } else {
    const int n = std::snprintf(nullptr, 0, fmt, args...);
    if (n < 0) throw std::runtime_error("strformat: encoding error");
    std::string out(static_cast<size_t>(n), '\0');
    std::snprintf(out.data(), out.size() + 1, fmt, args...);
    return out;
  }
}

/// `prefix` then `n` in decimal, zero-padded to at least `width` digits:
/// the bytes of strformat("<prefix>%0<width>zu", n) without a printf call
/// (numbered("raw", 7, 5) == "raw00007"). Per-file names are built on a
/// model's hot path, where the two snprintf passes cost more than the rest
/// of the catalog insert.
std::string numbered(std::string_view prefix, std::size_t n, std::size_t width);

/// Split `s` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on any whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// Strip leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// Join `parts` with `sep`.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool ends_with(std::string_view s, std::string_view suffix);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view s);

/// Levenshtein edit distance (insert/delete/substitute, unit costs) — used
/// for "did you mean" suggestions on unknown configuration keys.
std::size_t edit_distance(std::string_view a, std::string_view b);

/// Parse helpers: return false on malformed input instead of throwing.
bool parse_double(std::string_view s, double& out);
bool parse_long(std::string_view s, long long& out);
bool parse_bool(std::string_view s, bool& out);

}  // namespace lsds::util
