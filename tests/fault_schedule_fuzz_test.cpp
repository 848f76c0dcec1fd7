// Property-based fault-schedule fuzzing: generate a random FaultPlan per
// seed — crashes, flaps, partitions, link cuts, and loss episodes in
// arbitrary overlap — run the ring well past the last fault window, and
// assert the structural invariants from sim/ring_invariants.hpp plus
// sampled query delivery.
//
// The per-seed pipeline (case generation, quiescence run, traced-stream
// schema check, snapshot-equivalence oracle) lives in sim/fuzz_cases.hpp so
// this harness, bench/sweep_runner, and the sweep-determinism oracle all
// run byte-identical cases. This file owns what a *test* owns: seed-sweep
// control, failure artifacts, and gtest assertions.
//
// Seed control:
//   HOURS_FUZZ_SEEDS=N      sweep seeds 1..N        (default 25; nightly 200)
//   HOURS_FUZZ_SEED=S       run exactly seed S       (local reproduction)
//   HOURS_FUZZ_SNAPSHOT=K   oracle every Kth seed    (default 4; 0 disables,
//                           1 = every seed; pinned seeds always run it)
//   HOURS_FUZZ_THREADS=T    fan seeds across T threads with jobs::sweep
//                           (default 1 = serial; 0 = hardware concurrency,
//                           jobs::worker_count). Results and artifacts are
//                           identical at any T — the sweep's determinism
//                           contract (jobs/sweep.hpp).
// On failure the harness writes fuzz_failures/seed_<S>.txt containing the
// generated config, the serialized FaultPlan, and the one-line repro command,
// so a CI failure reproduces locally from the seed alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "jobs/sweep.hpp"
#include "sim/fuzz_cases.hpp"

namespace hours::sim {
namespace {

/// Serializes everything needed to replay a failing seed by hand and drops
/// it where CI picks artifacts up (fuzz_failures/ under the test's cwd).
void write_failure_artifact(std::uint64_t seed, const fuzz::FuzzCase& c,
                            const std::vector<std::string>& violations) {
  std::filesystem::create_directories("fuzz_failures");
  std::ofstream out("fuzz_failures/seed_" + std::to_string(seed) + ".txt");
  out << "fault-schedule fuzz failure\n"
      << "seed: " << seed << "\n"
      << "config: " << fuzz::describe_config(c.config) << "\n"
      << "fault plan:\n"
      << c.plan.describe() << "violations:\n";
  for (const auto& v : violations) out << "  " << v << "\n";
  out << "\nreproduce with:\n  HOURS_FUZZ_SEED=" << seed
      << " ./tests/fault_schedule_fuzz_test\n";
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

TEST(FaultScheduleFuzz, RandomFaultPlansConvergeToCleanRings) {
  const std::uint64_t pinned = env_u64("HOURS_FUZZ_SEED", 0);
  const std::uint64_t count = pinned != 0 ? 1 : env_u64("HOURS_FUZZ_SEEDS", 25);
  ASSERT_GT(count, 0U) << "HOURS_FUZZ_SEEDS must be >= 1";

  fuzz::SeedOptions options;
  options.snapshot_stride = env_u64("HOURS_FUZZ_SNAPSHOT", 4);
  options.force_traced = pinned != 0;
  options.force_snapshot = pinned != 0;

  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(pinned != 0 ? pinned : i + 1);

  // One thread by default; HOURS_FUZZ_THREADS widens the sweep. Each seed
  // is an independent single-threaded simulation, so the verdicts are
  // identical at any width.
  const auto threads = static_cast<unsigned>(env_u64("HOURS_FUZZ_THREADS", 1));
  const auto results = jobs::sweep<fuzz::SeedResult>(
      threads, seeds.size(),
      [&seeds, &options](std::size_t index) { return fuzz::run_seed(seeds[index], options); });

  std::uint64_t failures = 0;
  for (const auto& result : results) {
    if (result.violations.empty()) continue;
    ++failures;
    const fuzz::FuzzCase c = fuzz::generate_case(result.seed);
    write_failure_artifact(result.seed, c, result.violations);
    std::ostringstream os;
    os << "seed " << result.seed << " (" << fuzz::describe_config(c.config)
       << ")\nfault plan:\n"
       << c.plan.describe();
    for (const auto& v : result.violations) os << "  violation: " << v << "\n";
    os << "reproduce: HOURS_FUZZ_SEED=" << result.seed << " ./tests/fault_schedule_fuzz_test";
    ADD_FAILURE() << os.str();
  }
  if (failures == 0 && std::filesystem::exists("fuzz_failures")) {
    // A clean sweep invalidates artifacts from earlier local runs.
    std::filesystem::remove_all("fuzz_failures");
  }
}

/// The same seed must generate the same plan — reproduction depends on it.
TEST(FaultScheduleFuzz, GeneratorIsDeterministicPerSeed) {
  const fuzz::FuzzCase a = fuzz::generate_case(7);
  const fuzz::FuzzCase b = fuzz::generate_case(7);
  EXPECT_EQ(a.plan.describe(), b.plan.describe());
  EXPECT_EQ(fuzz::describe_config(a.config), fuzz::describe_config(b.config));
  const fuzz::FuzzCase other = fuzz::generate_case(8);
  EXPECT_NE(a.plan.describe() + fuzz::describe_config(a.config),
            other.plan.describe() + fuzz::describe_config(other.config));
}

}  // namespace
}  // namespace hours::sim
