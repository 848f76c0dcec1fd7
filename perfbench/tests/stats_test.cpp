// Self-tests of the benchmark's own statistics (src/stats.hpp): the
// percentile-reporting rule, median and quartiles (checked against values
// Python's statistics module gives), span self time, and the seeded
// rank -> name shuffle. Built and run by `python3 perfbench/run.py
// --selftest`, or by ctest in the benchmark's build tree.
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_selection() {
  using perfbench::LatencyHistogram;
  using perfbench::percentile_reportable;
  using perfbench::samples_beyond;
  // p99 needs ten samples beyond it: 1000 samples leave exactly ten.
  CHECK(samples_beyond(1000, 99, 100) == 10);
  CHECK(percentile_reportable(1000, 99, 100));
  CHECK(samples_beyond(999, 99, 100) == 9);
  CHECK(!percentile_reportable(999, 99, 100));
  CHECK(!percentile_reportable(0, 99, 100));

  // The highest reportable tail grows with the sample count.
  CHECK(!perfbench::highest_reportable_tail(99).has_value());
  CHECK(std::string{perfbench::highest_reportable_tail(100)->label} == "p90");
  CHECK(std::string{perfbench::highest_reportable_tail(999)->label} == "p90");
  CHECK(std::string{perfbench::highest_reportable_tail(1000)->label} == "p99");
  CHECK(std::string{perfbench::highest_reportable_tail(10'000)->label} == "p99.9");
  CHECK(std::string{perfbench::highest_reportable_tail(9'999'999)->label} == "p99.999");

  // Below 1000 samples p99 is omitted with a note; at 1000 it is reported.
  LatencyHistogram small;
  for (std::uint64_t v = 1; v <= 999; ++v) small.record(v);
  const auto s = perfbench::summarize(small);
  CHECK(!s.p99.has_value());
  CHECK(!s.note.empty());
  CHECK(s.samples == 999);
  small.record(1000);
  const auto t = perfbench::summarize(small);
  CHECK(t.p99.has_value());
  CHECK(t.note.empty());
  // Exact below 128: nearest-rank p50 of 1..1000 is the 500th value, which
  // lies above 128 and is reported within 1/128 of the truth.
  CHECK(std::fabs(t.p50 - 500.0) / 500.0 < 1.0 / 128);
  CHECK(std::fabs(*t.p99 - 990.0) / 990.0 < 1.0 / 128);

  LatencyHistogram exact;
  for (std::uint64_t v = 0; v < 100; ++v) exact.record(v);
  CHECK(near(exact.value_at(0.5), 49.0));  // 50th smallest of 0..99
  CHECK(near(exact.value_at(1.0), 99.0));

  // Buckets are monotone and the midpoint stays within relative 1/128.
  for (std::uint64_t v : {127ULL, 128ULL, 129ULL, 1000ULL, 123456789ULL, 1ULL << 40}) {
    const double mid = LatencyHistogram::midpoint(LatencyHistogram::bucket_of(v));
    CHECK(std::fabs(mid - static_cast<double>(v)) <= static_cast<double>(v) / 128 + 0.5);
  }
  CHECK(LatencyHistogram::bucket_of(~0ULL) < LatencyHistogram::kBuckets);
}

void median_and_quartiles() {
  using perfbench::median;
  using perfbench::quartiles;
  CHECK(near(median({3, 1, 2}), 2.0));
  CHECK(near(median({4, 1, 3, 2}), 2.5));
  CHECK(near(median({}), 0.0));
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  auto q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  CHECK(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25));
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  q = quartiles({1, 2, 3, 4});
  CHECK(near(q[0], 1.25) && near(q[1], 2.5) && near(q[2], 3.75));
  // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
  q = quartiles({5, 7});
  CHECK(near(q[0], 4.5) && near(q[1], 6.0) && near(q[2], 7.5));
  q = quartiles({3});
  CHECK(near(q[0], 3) && near(q[1], 3) && near(q[2], 3));
  // The pooled windows: the ceil(n/10) lowest rates, ties to the earlier.
  using Indices = std::vector<std::size_t>;
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) twenty.push_back(i);
  CHECK(perfbench::slowest_tenth(twenty) == (Indices{19, 18}));
  CHECK(perfbench::slowest_tenth({4, 9, 1, 7, 5}) == Indices{2});
  CHECK(perfbench::slowest_tenth({5, 1, 3, 1, 2, 8, 9, 7, 6, 4, 1}) == (Indices{1, 3}));
  CHECK(perfbench::slowest_tenth({3}) == Indices{0});
  CHECK(perfbench::slowest_tenth({}).empty());
  // Spread as a share of the median: (8.25 - 2.75) / 5.5 == 1.0
  CHECK(near(perfbench::iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0));
}

void span_self_time() {
  using perfbench::self_time;
  // No children: the whole duration.
  CHECK(self_time({0, 100}, {}) == 100);
  // Disjoint children.
  CHECK(self_time({0, 100}, {{10, 20}, {30, 50}}) == 70);
  // Overlapping children (concurrent threads) are counted once.
  CHECK(self_time({0, 100}, {{10, 40}, {20, 60}, {50, 55}}) == 50);
  // Nested and identical children.
  CHECK(self_time({0, 100}, {{10, 90}, {20, 30}, {10, 90}}) == 20);
  // Children reaching outside the parent are clipped to it.
  CHECK(self_time({50, 100}, {{0, 60}, {90, 200}}) == 30);
  // Touching children merge without double counting.
  CHECK(self_time({0, 100}, {{0, 50}, {50, 100}}) == 0);
}

void seeded_shuffle() {
  const auto a = perfbench::seeded_permutation(1000, 42, 1);
  const auto b = perfbench::seeded_permutation(1000, 42, 1);
  CHECK(a == b);  // same seed, same inputs
  CHECK(a != perfbench::seeded_permutation(1000, 43, 1));
  CHECK(a != perfbench::seeded_permutation(1000, 42, 2));
  CHECK(std::set<std::uint32_t>(a.begin(), a.end()).size() == 1000);
  // Pinned output: a change to the generator or the shuffle changes every
  // workload's inputs, so it must show up here first.
  const auto small = perfbench::seeded_permutation(8, 1, 1);
  const std::vector<std::uint32_t> pinned{4, 0, 2, 5, 1, 3, 6, 7};
  CHECK(small == pinned);
  if (small != pinned) {
    std::printf("  seeded_permutation(8, 1, 1) =");
    for (const auto v : small) std::printf(" %u", v);
    std::printf("\n");
  }
}

}  // namespace

int main() {
  percentile_selection();
  median_and_quartiles();
  span_self_time();
  seeded_shuffle();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
