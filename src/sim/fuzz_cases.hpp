// Library form of the fault-schedule fuzz harness: one seed in, one
// structured verdict out.
//
// Extracted from tests/fault_schedule_fuzz_test.cpp so three consumers can
// share the exact same per-seed pipeline:
//   * the gtest harness (artifacts + assertions, serial or parallel via
//     HOURS_FUZZ_THREADS),
//   * bench/sweep_runner, which fans seeds across threads with
//     jobs::sweep for the nightly 200-seed ASan sweep,
//   * tests/sweep_determinism_test, which proves the merged report is
//     byte-identical at 1, 2, and N threads.
//
// Everything here is a pure function of the seed (and options): case
// generation draws from a single seed-keyed Xoshiro256 stream, the
// simulation is single-threaded and deterministic, and the merged report
// renders results in seed order with metrics::JsonWriter. That purity is
// the whole determinism contract — jobs::sweep adds concurrency across
// seeds, never within one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault_injector.hpp"
#include "sim/ring_protocol.hpp"

namespace hours::sim::fuzz {

/// Every generated fault window lifts by here; the ring must then converge.
inline constexpr Ticks kFaultHorizon = 24'000;
/// Probe periods granted to re-converge after the horizon.
inline constexpr Ticks kSettlePeriods = 80;

struct FuzzCase {
  RingSimConfig config;
  FaultPlan plan;
};

/// Derives a ring config and a FaultPlan from one seed. Every randomized
/// choice flows through a single Xoshiro256 stream, so the case is a pure
/// function of the seed.
[[nodiscard]] FuzzCase generate_case(std::uint64_t seed);

[[nodiscard]] std::string describe_config(const RingSimConfig& cfg);

/// Runs one generated case to quiescence; returns all invariant violations.
/// With `traced`, the run carries a full tracing pipeline (bounded ring
/// buffer, so memory stays flat) and the emitted stream itself becomes a
/// checked property: every event must serialize to a schema-valid JSON line.
[[nodiscard]] std::vector<std::string> run_case(const FuzzCase& c, bool traced);

/// Snapshot-equivalence oracle: runs the case twice — once uninterrupted,
/// once saved at a seed-derived instant, restored into a freshly built
/// simulation, and continued — and demands byte-identical final snapshots
/// plus a byte-exact resave immediately after restore. Returns violations.
[[nodiscard]] std::vector<std::string> run_snapshot_oracle(const FuzzCase& c,
                                                           std::uint64_t seed);

struct SeedOptions {
  /// Oracle every Kth seed (0 disables, 1 = every seed).
  std::uint64_t snapshot_stride = 4;
  /// Tracing every 5th seed by default; force for pinned reproductions.
  bool force_traced = false;
  /// Run the snapshot oracle regardless of stride (pinned reproductions).
  bool force_snapshot = false;
};

/// One seed's complete verdict — what the merged report is built from.
struct SeedResult {
  std::uint64_t seed = 0;
  bool traced = false;
  bool snapshot_checked = false;
  std::vector<std::string> violations;
};

/// The full per-seed pipeline: generate, run (traced on the sampling
/// schedule), snapshot-oracle on the stride. Pure function of
/// (seed, options) — safe to run concurrently for distinct seeds.
[[nodiscard]] SeedResult run_seed(std::uint64_t seed, const SeedOptions& options);

/// Deterministic merged sweep report: results render in the order given
/// (callers pass seed order), with no timing or host information — the
/// bytes depend only on the verdicts. Wall-clock and thread counts belong
/// in the caller's envelope, not here.
[[nodiscard]] std::string sweep_report_json(const std::vector<SeedResult>& results);

}  // namespace hours::sim::fuzz
