// Declarative experiment front-end: validates and runs scenario DSL
// documents (see scenarios/README.md and DESIGN.md §10).
//
// Each argument is a scenario file or a directory (expanded to its *.json
// members in lexicographic order). Every document is schema-validated up
// front; with --validate-only the run stops there. Otherwise the whole list
// fans out across threads as one jobs::sweep, each scenario seeded by its
// own document — per-scenario reports and the merged matrix are
// byte-identical at any --threads value.
//
// Every document runs twice: the first run carries the --trace-dir trace,
// the second runs untraced, and the two reports must be byte-identical. A
// document whose reports differ fails with "reproducible" in its matrix
// row's failed list — so the repeat also re-checks, on every traced
// document, that tracing never changes a decision.
//
// Output: <out-dir>/<scenario-name>.json per scenario plus
// <out-dir>/scenario_matrix.json (also printed to stdout). Exit status: 0
// when every document validated, reproduced, and met every declared
// expectation.
//
// Flags:
//   --validate-only      schema-check every document, run nothing
//   --threads=T          sweep width, jobs::worker_count (default 0 = hardware);
//                        a plain decimal, else the usage line and exit 2
//   --out-dir=D          report directory (default ".")
//   --trace-dir=D        write each first run's JSONL trace to D/<name>.jsonl
//   --quick              CI smoke size: ring intervals x2, hierarchy rates /2
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "metrics/json_writer.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace {

namespace fs = std::filesystem;

/// Expands one CLI argument to scenario file paths (directories recurse one
/// level: their *.json members, sorted so the matrix order is stable).
std::vector<std::string> expand(const std::string& arg) {
  std::vector<std::string> paths;
  std::error_code ec;
  if (fs::is_directory(arg, ec)) {
    for (const auto& entry : fs::directory_iterator(arg, ec)) {
      if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
  } else {
    paths.push_back(arg);
  }
  return paths;
}

int usage() {
  std::fprintf(stderr,
               "usage: scenario_runner [--validate-only] [--threads=T] [--out-dir=D] "
               "[--trace-dir=D] [--quick] <scenario.json | dir>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hours;

  const bool quick = bench::quick_mode(argc, argv);
  bool validate_only = false;
  unsigned threads = 0;  // 0 = hardware concurrency (jobs::worker_count)
  std::string out_dir = ".";
  std::string trace_dir;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--validate-only") == 0) {
      validate_only = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      if (!bench::parse_decimal(argv[i] + 10, threads)) return usage();
    } else if (std::strncmp(argv[i], "--out-dir=", 10) == 0) {
      out_dir = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--trace-dir=", 12) == 0) {
      trace_dir = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      // handled by quick_mode
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "scenario_runner: unknown flag %s\n", argv[i]);
      return 2;
    } else {
      args.emplace_back(argv[i]);
    }
  }
  if (args.empty()) return usage();

  std::vector<std::string> paths;
  for (const auto& arg : args) {
    for (auto& p : expand(arg)) paths.push_back(std::move(p));
  }
  if (paths.empty()) {
    std::fprintf(stderr, "scenario_runner: no scenario files found\n");
    return 2;
  }

  // Validate everything before running anything: a matrix with one broken
  // document fails fast instead of wasting the other runs.
  std::vector<scenario::Scenario> scenarios;
  std::set<std::string> names;
  bool invalid = false;
  for (const auto& path : paths) {
    scenario::Scenario sc;
    if (const auto error = scenario::load_file(path, sc); !error.empty()) {
      std::fprintf(stderr, "scenario_runner: %s\n", error.c_str());
      invalid = true;
      continue;
    }
    if (!names.insert(sc.name).second) {
      std::fprintf(stderr, "scenario_runner: %s: duplicate scenario name \"%s\"\n",
                   path.c_str(), sc.name.c_str());
      invalid = true;
      continue;
    }
    std::printf("[scenario_runner] %s: ok (%s)\n", path.c_str(), sc.name.c_str());
    scenarios.push_back(std::move(sc));
  }
  if (invalid) return 1;
  if (validate_only) {
    std::printf("[scenario_runner] %zu scenario(s) valid\n", scenarios.size());
    return 0;
  }

  std::error_code ec;
  if (!trace_dir.empty()) fs::create_directories(trace_dir, ec);
  auto outcomes = scenario::run_matrix(scenarios, threads, {quick, trace_dir});
  const auto repeats = scenario::run_matrix(scenarios, threads, {quick, ""});
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].json == repeats[i].json) continue;
    outcomes[i].expectations_met = false;
    outcomes[i].failed.emplace_back("reproducible");
  }

  fs::create_directories(out_dir, ec);
  std::uint64_t failed_total = 0;
  metrics::JsonWriter matrix;
  matrix.begin_object();
  matrix.field("bench", "scenario_runner");
  matrix.field("quick", quick);
  matrix.field("scenarios", static_cast<std::uint64_t>(scenarios.size()));
  matrix.key("matrix").begin_array();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& outcome = outcomes[i];
    const std::string report_path = out_dir + "/" + scenarios[i].name + ".json";
    std::ofstream out{report_path};
    out << outcome.json << "\n";
    matrix.begin_object();
    matrix.field("scenario", scenarios[i].name);
    matrix.field("expectations_met", outcome.expectations_met);
    if (!outcome.failed.empty()) {
      matrix.key("failed").begin_array();
      for (const auto& check : outcome.failed) matrix.value(check);
      matrix.end_array();
    }
    matrix.end_object();
    if (!outcome.expectations_met) {
      ++failed_total;
      for (const auto& check : outcome.failed) {
        std::fprintf(stderr, "[scenario_runner] FAIL %s: %s\n", scenarios[i].name.c_str(),
                     check.c_str());
      }
    }
    std::printf("[scenario_runner] %s: %s -> %s\n", scenarios[i].name.c_str(),
                outcome.expectations_met ? "pass" : "FAIL", report_path.c_str());
  }
  matrix.end_array();
  matrix.field("failed", failed_total);
  matrix.end_object();

  std::ofstream matrix_out{out_dir + "/scenario_matrix.json"};
  matrix_out << matrix.str() << "\n";
  std::printf("%s\n", matrix.str().c_str());
  std::printf("[scenario_runner] scenarios=%zu failed=%llu %s\n", scenarios.size(),
              static_cast<unsigned long long>(failed_total),
              failed_total == 0 ? "clean" : "EXPECTATIONS FAILED");
  return failed_total == 0 ? 0 : 1;
}
