// Data-size, data-rate and time unit helpers.
//
// The framework's canonical units are: seconds for time, bytes for data sizes,
// bytes/second for rates, and floating-point "operations" (MFLOP) for compute.
// These helpers exist so scenario configs can say "2.5Gbps" or "512MB" and so
// report output stays readable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace lsds::util {

// --- constants -------------------------------------------------------------
inline constexpr double kKB = 1e3;
inline constexpr double kMB = 1e6;
inline constexpr double kGB = 1e9;
inline constexpr double kTB = 1e12;

inline constexpr double kKiB = 1024.0;
inline constexpr double kMiB = 1024.0 * 1024.0;
inline constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// Bits-per-second rate expressed in bytes/second.
inline constexpr double bps(double bits_per_second) { return bits_per_second / 8.0; }
inline constexpr double kbps(double v) { return bps(v * 1e3); }
inline constexpr double mbps(double v) { return bps(v * 1e6); }
inline constexpr double gbps(double v) { return bps(v * 1e9); }

inline constexpr double kMinute = 60.0;
inline constexpr double kHour = 3600.0;
inline constexpr double kDay = 86400.0;

// --- parsing ---------------------------------------------------------------

/// Parse a data size such as "512MB", "1.5GiB", "1024" (bytes), "4kB".
/// Returns false on malformed input and on negative or non-finite sizes.
bool parse_size(std::string_view s, double& bytes_out);

/// Parse a rate such as "2.5Gbps", "100Mbps", "10MB/s". Returns bytes/second.
/// Returns false on malformed input and on rates that are not positive and
/// finite: a zero-bandwidth link delivers nothing, silently.
bool parse_rate(std::string_view s, double& bytes_per_sec_out);

/// Parse a duration such as "10s", "5ms", "2h", "1.5d", "250us".
/// Returns false on malformed input and on negative or non-finite durations.
bool parse_duration(std::string_view s, double& seconds_out);

// --- formatting ------------------------------------------------------------

/// Human-readable size, e.g. 1536000 -> "1.54 MB".
std::string format_size(double bytes);

/// Human-readable rate in bits/s, e.g. gbps(2.5) -> "2.50 Gbps".
std::string format_rate(double bytes_per_sec);

/// Human-readable duration, e.g. 0.0042 -> "4.20 ms".
std::string format_duration(double seconds);

}  // namespace lsds::util
