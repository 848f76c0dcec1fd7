// perfbench_runner: runs one benchmark workload in this process.
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--out <file.json>] [--commit <sha>]
//
// Prints a human-readable summary and, as its last line, one JSON object
// with gates, metrics and provenance. Exits non-zero when a correctness gate
// fails. perfbench/run.py builds this binary and wraps it.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag{argv[i]};
    const std::string value{argv[i + 1]};
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      options.traced = value == "1";
    } else if (flag == "--out") {
      options.out_path = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      std::fprintf(stderr, "perfbench_runner: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (options.seconds == 0) {
    std::fprintf(stderr, "perfbench_runner: --seconds must be positive\n");
    return 2;
  }
  if (options.workload == "serve_hot") return perfbench::run_serve_hot(options);
  if (options.workload == "serve_churn") return perfbench::run_serve_churn(options);
  if (options.workload == "event_strike_1m") return perfbench::run_event_strike(options);
  if (options.workload == "ring_recovery") return perfbench::run_ring_recovery(options);
  std::fprintf(stderr, "perfbench_runner: unknown workload '%s'\n", options.workload.c_str());
  return 2;
}
