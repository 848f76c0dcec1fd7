// Shared helpers for the experiment harness binaries.
//
// Every bench accepts `--quick` (or env HOURS_BENCH_QUICK=1) to run a
// reduced-size version suitable for CI smoke runs; the default sizes match
// the paper's setup. Each bench prints the paper-shaped table to stdout and
// mirrors it to <binary>.csv in the current directory.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace hours::bench {

inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view{argv[i]} == "--quick") return true;
  }
  const char* env = std::getenv("HOURS_BENCH_QUICK");
  return env != nullptr && std::string_view{env} != "0";
}

/// Scales a default workload down in quick mode.
inline std::uint64_t scaled(std::uint64_t full, std::uint64_t quick, bool is_quick) {
  return is_quick ? quick : full;
}

/// Parses `text` as a plain non-negative decimal that fits T into `out`:
/// digits only, with no sign, space or trailing character. On anything else
/// it returns false and leaves `out` alone, so a CLI can refuse "-1" or
/// "abc" instead of wrapping it or reading it as 0.
template <typename T>
bool parse_decimal(std::string_view text, T& out) {
  static_assert(std::is_unsigned_v<T>);
  T value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc{} || end != last) return false;
  out = value;
  return true;
}

inline std::string csv_path(std::string_view bench_name) {
  return std::string{bench_name} + ".csv";
}

/// Peak resident set size of this process in bytes (0 where unsupported).
/// Scale benches report it next to events/sec so memory regressions are as
/// loud as throughput regressions.
inline std::uint64_t peak_rss_bytes() {
#if defined(__APPLE__)
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#elif defined(__unix__)
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#else
  return 0;
#endif
}

/// Prints a finished JSON report to stdout and mirrors it to
/// <bench_name>.json — the shared tail of every reproducibility bench.
/// Reports should be built with metrics::JsonWriter, not hand-concatenated.
inline void emit_json_report(std::string_view bench_name, const std::string& json) {
  std::printf("%s\n", json.c_str());
  std::ofstream out{std::string{bench_name} + ".json"};
  out << json << "\n";
}

}  // namespace hours::bench
