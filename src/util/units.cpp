#include "util/units.hpp"

#include <cmath>

#include "util/strings.hpp"

namespace lsds::util {

namespace {

// Splits "<number><suffix>" and parses the numeric part.
bool split_number_suffix(std::string_view s, double& num, std::string& suffix) {
  s = trim(s);
  size_t i = 0;
  while (i < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' || s[i] == '-' ||
          s[i] == '+' || s[i] == 'e' || s[i] == 'E')) {
    // Stop eating 'e'/'E' if it begins a textual suffix rather than an exponent.
    if ((s[i] == 'e' || s[i] == 'E') &&
        (i + 1 >= s.size() || (!std::isdigit(static_cast<unsigned char>(s[i + 1])) &&
                               s[i + 1] != '-' && s[i + 1] != '+'))) {
      break;
    }
    ++i;
  }
  if (!parse_double(s.substr(0, i), num)) return false;
  suffix = to_lower(trim(s.substr(i)));
  return true;
}

}  // namespace

bool parse_size(std::string_view s, double& bytes_out) {
  double num = 0;
  std::string suf;
  if (!split_number_suffix(s, num, suf)) return false;
  double mult = 1.0;
  if (suf.empty() || suf == "b") mult = 1.0;
  else if (suf == "kb" || suf == "k") mult = kKB;
  else if (suf == "mb" || suf == "m") mult = kMB;
  else if (suf == "gb" || suf == "g") mult = kGB;
  else if (suf == "tb" || suf == "t") mult = kTB;
  else if (suf == "kib") mult = kKiB;
  else if (suf == "mib") mult = kMiB;
  else if (suf == "gib") mult = kGiB;
  else return false;
  const double bytes = num * mult;
  if (!std::isfinite(bytes) || bytes < 0) return false;
  bytes_out = bytes;
  return true;
}

bool parse_rate(std::string_view s, double& bytes_per_sec_out) {
  double num = 0;
  std::string suf;
  if (!split_number_suffix(s, num, suf)) return false;
  double rate = 0;
  if (suf == "bps") rate = bps(num);
  else if (suf == "kbps") rate = kbps(num);
  else if (suf == "mbps") rate = mbps(num);
  else if (suf == "gbps") rate = gbps(num);
  else if (suf == "b/s") rate = num;
  else if (suf == "kb/s") rate = num * kKB;
  else if (suf == "mb/s") rate = num * kMB;
  else if (suf == "gb/s") rate = num * kGB;
  else return false;
  if (!std::isfinite(rate) || rate <= 0) return false;
  bytes_per_sec_out = rate;
  return true;
}

bool parse_duration(std::string_view s, double& seconds_out) {
  double num = 0;
  std::string suf;
  if (!split_number_suffix(s, num, suf)) return false;
  double seconds = 0;
  if (suf.empty() || suf == "s") seconds = num;
  else if (suf == "us") seconds = num * 1e-6;
  else if (suf == "ms") seconds = num * 1e-3;
  else if (suf == "m" || suf == "min") seconds = num * kMinute;
  else if (suf == "h") seconds = num * kHour;
  else if (suf == "d") seconds = num * kDay;
  else return false;
  if (!std::isfinite(seconds) || seconds < 0) return false;
  seconds_out = seconds;
  return true;
}

std::string format_size(double bytes) {
  const double a = std::fabs(bytes);
  if (a >= kTB) return strformat("%.2f TB", bytes / kTB);
  if (a >= kGB) return strformat("%.2f GB", bytes / kGB);
  if (a >= kMB) return strformat("%.2f MB", bytes / kMB);
  if (a >= kKB) return strformat("%.2f kB", bytes / kKB);
  return strformat("%.0f B", bytes);
}

std::string format_rate(double bytes_per_sec) {
  const double bits = bytes_per_sec * 8.0;
  const double a = std::fabs(bits);
  if (a >= 1e9) return strformat("%.2f Gbps", bits / 1e9);
  if (a >= 1e6) return strformat("%.2f Mbps", bits / 1e6);
  if (a >= 1e3) return strformat("%.2f kbps", bits / 1e3);
  return strformat("%.0f bps", bits);
}

std::string format_duration(double seconds) {
  const double a = std::fabs(seconds);
  if (a >= kDay) return strformat("%.2f d", seconds / kDay);
  if (a >= kHour) return strformat("%.2f h", seconds / kHour);
  if (a >= kMinute) return strformat("%.2f min", seconds / kMinute);
  if (a >= 1.0) return strformat("%.2f s", seconds);
  if (a >= 1e-3) return strformat("%.2f ms", seconds * 1e3);
  if (a >= 1e-6) return strformat("%.2f us", seconds * 1e6);
  return strformat("%.0f ns", seconds * 1e9);
}

}  // namespace lsds::util
