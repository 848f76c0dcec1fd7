// The benchmark's own statistics: a log-linear latency histogram, the
// percentile-reporting rule, median and quartiles, span self time, and the
// seeded rank -> name shuffle. Header-only so the self-tests
// (tests/stats_test.cpp) exercise exactly what the runner uses.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace perfbench {

/// Latency histogram over non-negative integer values (nanoseconds, ticks).
/// Exact below 128; above, 64 sub-buckets per power of two, so a reported
/// value is within 1/128 of the true sample. Fixed size, no allocation on
/// record(): safe to fill from a hot loop.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 6;
  static constexpr std::uint64_t kSub = 1ULL << kSubBits;   // 64
  static constexpr std::uint64_t kExact = 2 * kSub;          // 128
  static constexpr std::size_t kBuckets = kExact + (64 - kSubBits - 1) * kSub;

  void record(std::uint64_t value) noexcept {
    ++counts_[bucket_of(value)];
    ++count_;
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Nearest-rank quantile: the value of the ceil(q * count)-th smallest
  /// sample (q in (0, 1]), reported as its bucket's midpoint. 0 when empty.
  [[nodiscard]] double value_at(double q) const noexcept {
    if (count_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_) + 0.999999999);
    rank = std::clamp<std::uint64_t>(rank, 1, count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept {
    if (value < kExact) return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kSubBits;  // >= 1
    const std::uint64_t sub = value >> shift;  // in [64, 128)
    return static_cast<std::size_t>(kExact + static_cast<std::uint64_t>(shift - 1) * kSub +
                                    (sub - kSub));
  }

  [[nodiscard]] static double midpoint(std::size_t bucket) noexcept {
    if (bucket < kExact) return static_cast<double>(bucket);
    const std::uint64_t rel = bucket - kExact;
    const int shift = static_cast<int>(rel / kSub) + 1;
    const std::uint64_t sub = kSub + rel % kSub;
    const double lower = static_cast<double>(sub << shift);
    return lower + static_cast<double>(1ULL << shift) / 2.0;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// Samples strictly beyond the nearest-rank p-th percentile, with p given
/// as the fraction num/den (99 -> 99/100, 99.9 -> 999/1000).
[[nodiscard]] inline std::uint64_t samples_beyond(std::uint64_t n, std::uint64_t num,
                                                  std::uint64_t den) noexcept {
  const std::uint64_t rank = (n * num + den - 1) / den;
  return n - rank;
}

/// The reporting rule for tails: a percentile is reported only when at
/// least ten samples lie beyond it.
inline constexpr std::uint64_t kMinTailSamples = 10;

[[nodiscard]] inline bool percentile_reportable(std::uint64_t n, std::uint64_t num,
                                                std::uint64_t den) noexcept {
  return samples_beyond(n, num, den) >= kMinTailSamples;
}

/// A tail percentile candidate: label ("p99.9") and fraction.
struct TailLevel {
  const char* label;
  std::uint64_t num;
  std::uint64_t den;
};

inline constexpr std::array<TailLevel, 6> kTailLevels{{
    {"p90", 9, 10},
    {"p99", 99, 100},
    {"p99.9", 999, 1000},
    {"p99.99", 9999, 10000},
    {"p99.999", 99999, 100000},
    {"p99.9999", 999999, 1000000},
}};

/// The highest tail level with at least ten samples beyond it, or nullopt
/// when even p90 lacks them (fewer than 100 samples).
[[nodiscard]] inline std::optional<TailLevel> highest_reportable_tail(
    std::uint64_t n) noexcept {
  std::optional<TailLevel> best;
  for (const auto& level : kTailLevels) {
    if (percentile_reportable(n, level.num, level.den)) best = level;
  }
  return best;
}

/// Timing summary of one histogram under the reporting rule.
struct TimingSummary {
  std::uint64_t samples = 0;
  double p50 = 0.0;
  std::optional<double> p99;      ///< omitted with a note below 1000 samples
  std::optional<TailLevel> tail;  ///< highest reportable percentile
  double tail_value = 0.0;
  std::string note;               ///< why p99 was omitted, if it was
};

[[nodiscard]] inline TimingSummary summarize(const LatencyHistogram& h) {
  TimingSummary s;
  s.samples = h.count();
  s.p50 = h.value_at(0.5);
  if (percentile_reportable(s.samples, 99, 100)) {
    s.p99 = h.value_at(0.99);
  } else {
    s.note = "p99 omitted: " + std::to_string(samples_beyond(s.samples, 99, 100)) +
             " samples beyond it, fewer than " + std::to_string(kMinTailSamples);
  }
  s.tail = highest_reportable_tail(s.samples);
  if (s.tail) {
    s.tail_value = h.value_at(static_cast<double>(s.tail->num) /
                              static_cast<double>(s.tail->den));
  }
  return s;
}

/// Median as Python's statistics.median computes it (mean of the two middle
/// values for an even count). 0 for an empty input.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the default 'exclusive' method). A single value is its own quartiles.
[[nodiscard]] inline std::array<double, 3> quartiles(std::vector<double> values) {
  std::array<double, 3> out{};
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<std::int64_t>(values.size());
  if (ld == 1) return {values[0], values[0], values[0]};
  const std::int64_t m = ld + 1;
  for (std::int64_t i = 1; i <= 3; ++i) {
    std::int64_t j = i * m / 4;
    j = std::clamp<std::int64_t>(j, 1, ld - 1);
    const std::int64_t delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// The slowest tenth of a timed phase: indices of the ceil(n/10) lowest of n
/// per-window rates, ties broken by the earlier window. The end-to-end
/// timings pool these windows. Empty for an empty input.
[[nodiscard]] inline std::vector<std::size_t> slowest_tenth(const std::vector<double>& rates) {
  std::vector<std::size_t> order(rates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return rates[a] < rates[b]; });
  order.resize((rates.size() + 9) / 10);
  return order;
}

/// Interquartile distance as a share of the median (the spread measure the
/// benchmark's bounds are stated in). 0 when the median is 0.
[[nodiscard]] inline double iqr_share(const std::vector<double>& values) {
  const double mid = median(values);
  if (mid == 0.0) return 0.0;
  const auto q = quartiles(values);
  return (q[2] - q[0]) / mid;
}

/// A half-open time interval [start, end) in nanoseconds.
using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `intervals` clipped to [lo, hi): overlapping
/// children are counted once.
[[nodiscard]] inline std::int64_t covered_length(std::vector<Interval> intervals,
                                                 std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (auto [s, e] : intervals) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return covered;
}

/// A span's self time: its duration minus the part of it its children
/// cover, overlapping children counted once.
[[nodiscard]] inline std::int64_t self_time(const Interval& span,
                                            std::vector<Interval> children) {
  return (span.second - span.first) -
         covered_length(std::move(children), span.first, span.second);
}

/// The seeded rank -> item permutation: rank r of a popularity distribution
/// maps to item perm[r]. Fisher-Yates over a Xoshiro256 stream derived from
/// (seed, stream), so one seed fixes every workload input and separate
/// streams stay independent.
[[nodiscard]] inline std::vector<std::uint32_t> seeded_permutation(std::size_t n,
                                                                   std::uint64_t seed,
                                                                   std::uint64_t stream) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0U);
  hours::rng::Xoshiro256 rng{hours::rng::mix64(seed, stream)};
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace perfbench
