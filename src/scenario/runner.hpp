// Executes validated Scenario documents and renders deterministic reports.
//
// run() assembles the system a document describes — RingSimulation +
// QueryClient for "ring" scenarios, HoursSystem + ConcurrentResolver for "hierarchy"
// ones — arms its fault plan and attacker, drives the phased workload to
// the horizon, and renders one metrics::JsonWriter report whose bytes are a
// pure function of the document (plus RunOptions::quick). Controls a
// document asks for (the no-fault fixpoint, the probe-only detection twin)
// run inside run(). run_matrix() fans a scenario list across jobs::sweep;
// because each run is deterministic and results merge in index order, the
// matrix output is byte-identical at any thread count.
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace hours::scenario {

struct RunOptions {
  /// CI smoke size: ring phase intervals x2, hierarchy phase rates /2 (min
  /// 1). The scenario files always describe the full experiment; quick
  /// shrinks the workload, never the schedule.
  bool quick = false;
  /// Non-empty: stream the run's full event trace as JSONL
  /// (trace/jsonl_sink) to <trace_dir>/<scenario name>.jsonl; the directory
  /// must exist. Tracing never changes the run's decisions, so the report
  /// bytes are identical with or without it.
  std::string trace_dir;
};

struct RunOutcome {
  std::string json;                 ///< the full deterministic report
  bool expectations_met = true;     ///< every declared expectation held
  std::vector<std::string> failed;  ///< describe() of each failed expectation
};

/// Runs one scenario to its horizon. The scenario must have come out of
/// parse()/load_file() — run() trusts its invariants.
[[nodiscard]] RunOutcome run(const Scenario& scenario, const RunOptions& options = {});

/// Runs every scenario as one jobs::sweep task on up to
/// jobs::worker_count(threads) threads; outcomes return in input order
/// regardless of thread count or scheduling.
[[nodiscard]] std::vector<RunOutcome> run_matrix(const std::vector<Scenario>& scenarios,
                                                 unsigned threads,
                                                 const RunOptions& options = {});

}  // namespace hours::scenario
