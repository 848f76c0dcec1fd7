// Parallel experiment-fleet orchestrator: fans the fault-schedule fuzz
// corpus (sim/fuzz_cases.hpp) across threads with jobs::sweep and merges
// every per-seed verdict into one deterministic report
// (sweep_runner.json). This is the binary the nightly CI sweep runs — the
// 200-seed ASan + snapshot-equivalence pass that used to crawl through the
// serial gtest harness.
//
// The merged `sweep` section is byte-identical at any --threads value (the
// determinism contract of jobs/sweep.hpp, proven by
// tests/sweep_determinism_test); wall-clock, thread count, and speedup live
// only in the envelope around it. With --baseline-serial the runner first
// executes the same seeds serially, records both wall clocks and the
// speedup, and hard-fails if the serial and parallel reports differ by one
// byte — a production-sized rerun of the determinism oracle.
//
// Flags:
//   --seeds=N            sweep seeds 1..N        (default 200; --quick: 10)
//   --threads=T          sweep width, jobs::worker_count (default 0 = hardware)
//   --snapshot-stride=K  snapshot oracle every Kth seed (default 4; 0 off,
//                        1 = every seed — the nightly setting)
//   --baseline-serial    also run serially; record wall clocks + speedup
//   --quick              CI smoke size (bench-smoke ctest label)
// N, T and K are plain decimals and N >= 1; anything else prints the usage
// line and exits 2. Exit status: 0 clean, 1 if any seed reported violations
// (or the serial and parallel reports diverged).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "jobs/sweep.hpp"
#include "metrics/json_writer.hpp"
#include "sim/fuzz_cases.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::vector<hours::sim::fuzz::SeedResult> run_parallel(
    unsigned threads, const std::vector<std::uint64_t>& seeds,
    const hours::sim::fuzz::SeedOptions& options) {
  return hours::jobs::sweep<hours::sim::fuzz::SeedResult>(
      threads, seeds.size(), [&seeds, &options](std::size_t index) {
        return hours::sim::fuzz::run_seed(seeds[index], options);
      });
}

int usage() {
  std::fprintf(stderr,
               "usage: sweep_runner [--seeds=N] [--threads=T] [--snapshot-stride=K] "
               "[--baseline-serial] [--quick]  (plain decimals, N >= 1)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using hours::metrics::JsonWriter;
  namespace fuzz = hours::sim::fuzz;

  const bool quick = hours::bench::quick_mode(argc, argv);
  std::uint64_t seed_count = quick ? 10 : 200;
  unsigned threads = 0;  // 0 = hardware concurrency (jobs::worker_count)
  std::uint64_t snapshot_stride = 4;
  bool baseline_serial = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seeds=", 8) == 0 &&
        !hours::bench::parse_decimal(argv[i] + 8, seed_count)) {
      return usage();
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0 &&
        !hours::bench::parse_decimal(argv[i] + 10, threads)) {
      return usage();
    }
    if (std::strncmp(argv[i], "--snapshot-stride=", 18) == 0 &&
        !hours::bench::parse_decimal(argv[i] + 18, snapshot_stride)) {
      return usage();
    }
    if (std::strcmp(argv[i], "--baseline-serial") == 0) baseline_serial = true;
  }
  if (seed_count == 0) return usage();

  fuzz::SeedOptions options;
  options.snapshot_stride = snapshot_stride;

  std::vector<std::uint64_t> seeds;
  seeds.reserve(seed_count);
  for (std::uint64_t i = 0; i < seed_count; ++i) seeds.push_back(i + 1);

  std::string serial_report;
  double serial_wall = 0.0;
  if (baseline_serial) {
    std::printf("[sweep_runner] serial baseline over %llu seeds...\n",
                (unsigned long long)seed_count);
    const auto t_serial = std::chrono::steady_clock::now();
    std::vector<fuzz::SeedResult> serial_results;
    serial_results.reserve(seeds.size());
    for (const auto seed : seeds) serial_results.push_back(fuzz::run_seed(seed, options));
    serial_wall = seconds_since(t_serial);
    serial_report = fuzz::sweep_report_json(serial_results);
    std::printf("[sweep_runner] serial baseline done in %.2fs\n", serial_wall);
  }

  const auto t_parallel = std::chrono::steady_clock::now();
  const auto results = run_parallel(threads, seeds, options);
  const double parallel_wall = seconds_since(t_parallel);
  const std::string report = fuzz::sweep_report_json(results);

  std::uint64_t failing = 0;
  for (const auto& result : results) {
    if (result.violations.empty()) continue;
    ++failing;
    std::fprintf(stderr, "[sweep_runner] FAIL seed %llu:\n",
                 (unsigned long long)result.seed);
    for (const auto& violation : result.violations) {
      std::fprintf(stderr, "  %s\n", violation.c_str());
    }
    std::fprintf(stderr, "  reproduce: HOURS_FUZZ_SEED=%llu ./tests/fault_schedule_fuzz_test\n",
                 (unsigned long long)result.seed);
  }
  const bool diverged = baseline_serial && report != serial_report;
  if (diverged) {
    std::fprintf(stderr,
                 "[sweep_runner] FAIL parallel report diverged from the serial baseline — "
                 "the determinism contract is broken\n");
  }

  const unsigned resolved_threads = hours::jobs::worker_count(threads);

  JsonWriter json;
  json.begin_object();
  json.field("bench", "sweep_runner");
  json.field("quick", quick);
  json.field("threads", static_cast<std::uint64_t>(resolved_threads));
  json.field("snapshot_stride", snapshot_stride);
  json.field("wall_seconds", parallel_wall, 2);
  if (baseline_serial) {
    json.field("serial_wall_seconds", serial_wall, 2);
    const double speedup = parallel_wall > 0.0 ? serial_wall / parallel_wall : 0.0;
    json.field("speedup", speedup, 2);
    json.field("serial_report_identical", !diverged);
  }
  json.field("peak_rss_mb",
             static_cast<double>(hours::bench::peak_rss_bytes()) / (1024.0 * 1024.0), 1);
  json.key("sweep");
  json.raw(report);  // deterministic section: bytes depend only on verdicts
  json.end_object();
  hours::bench::emit_json_report("sweep_runner", json.str());

  std::printf("[sweep_runner] seeds=%llu threads=%u wall=%.2fs", (unsigned long long)seed_count,
              resolved_threads, parallel_wall);
  if (baseline_serial) {
    std::printf(" serial=%.2fs speedup=%.2fx", serial_wall,
                parallel_wall > 0.0 ? serial_wall / parallel_wall : 0.0);
  }
  std::printf(" failing=%llu %s\n", (unsigned long long)failing,
              failing == 0 && !diverged ? "clean" : "VIOLATIONS");

  return failing == 0 && !diverged ? 0 : 1;
}
