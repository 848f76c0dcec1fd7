// The sweep determinism oracle: the merged fuzz-sweep report must be
// byte-identical no matter how many worker threads fan the seeds out.
//
// This is the contract bench/sweep_runner and the nightly CI sweep stand
// on — parallelism may only change wall-clock, never a byte of output.
// The test runs the same seed set serially, then through jobs::sweep at 1,
// 2, and many threads, and compares the full fuzz::sweep_report_json
// strings. Seeds come from the same env knobs as the fuzz harness
// (HOURS_FUZZ_SEEDS / HOURS_FUZZ_SNAPSHOT), so nightly CI can deepen the
// sweep without a rebuild; the default is sized for the `fuzz`-labelled
// ctest tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "jobs/sweep.hpp"
#include "sim/fuzz_cases.hpp"

namespace hours::sim {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

std::string report_at(unsigned threads, const std::vector<std::uint64_t>& seeds,
                      const fuzz::SeedOptions& options) {
  const auto results = jobs::sweep<fuzz::SeedResult>(
      threads, seeds.size(),
      [&seeds, &options](std::size_t index) { return fuzz::run_seed(seeds[index], options); });
  return fuzz::sweep_report_json(results);
}

TEST(SweepDeterminism, ReportIsByteIdenticalAcrossThreadCounts) {
  const std::uint64_t count = env_u64("HOURS_FUZZ_SEEDS", 8);
  ASSERT_GT(count, 0U);
  fuzz::SeedOptions options;
  options.snapshot_stride = env_u64("HOURS_FUZZ_SNAPSHOT", 4);

  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(i + 1);

  // The serial reference does not touch jobs::sweep at all.
  std::vector<fuzz::SeedResult> serial_results;
  serial_results.reserve(seeds.size());
  for (const auto seed : seeds) serial_results.push_back(fuzz::run_seed(seed, options));
  const std::string serial = fuzz::sweep_report_json(serial_results);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("\"report\""), std::string::npos);

  const unsigned wide = std::max(4U, std::thread::hardware_concurrency());
  EXPECT_EQ(report_at(1, seeds, options), serial) << "1-thread sweep diverged from serial";
  EXPECT_EQ(report_at(2, seeds, options), serial) << "2-thread sweep diverged from serial";
  EXPECT_EQ(report_at(wide, seeds, options), serial)
      << wide << "-thread sweep diverged from serial";
}

TEST(SweepDeterminism, ReportIsStableAcrossRepeatedRuns) {
  // Same sweep twice at the same width: scheduling noise between runs must
  // not reach the report either.
  fuzz::SeedOptions options;
  options.snapshot_stride = 0;  // keep the repeat cheap; stride covered above
  const std::vector<std::uint64_t> seeds = {3, 1, 2};  // caller order, not sorted
  const std::string first = report_at(4, seeds, options);
  const std::string second = report_at(4, seeds, options);
  EXPECT_EQ(first, second);
  // Order is the caller's: seed 3 renders before seed 1.
  EXPECT_LT(first.find("\"seed\":3"), first.find("\"seed\":1"));
}

}  // namespace
}  // namespace hours::sim
