// Shared runner plumbing: options, clocks, the result report, span
// recording, the counting trace sink and the inner-layer call timer.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace/sink.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool traced = false;
  std::string out_path;  ///< JSON result file ("" = none)
  std::string commit = "unknown";
};

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(std::int64_t start, std::int64_t end) noexcept {
  return static_cast<double>(end - start) / 1e9;
}

[[nodiscard]] double peak_rss_mb();

/// Keeps a computed value alive so a timed loop is not optimized away.
template <typename T>
inline void keep(const T& value) noexcept {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Median over `reps` repetitions of (elapsed / calls) for `calls` calls of
/// fn(i), in nanoseconds per call.
[[nodiscard]] double ns_per_call(std::size_t calls, const std::function<void(std::size_t)>& fn,
                                 int reps = 5);

/// One named metric of the result.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< 0 = not a sampled quantity
  bool applicable = true;     ///< false: the layer is idle in this workload
  std::string note;
};

/// The runner's result: gates, metrics, notes and the determinism
/// fingerprint, printed as one JSON line and optionally written to a file.
class Report {
 public:
  explicit Report(const Options& options) : options_(options) {}

  void gate(const std::string& name, bool ok, const std::string& detail = "");
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t samples = 0, const std::string& note = "");
  /// A per-layer metric this workload cannot report (its layer is idle, or
  /// the program exposes no count): reported as 0, marked not applicable.
  void idle(const std::string& name, const std::string& unit,
            const std::string& why = "layer idle in this workload");
  void note(const std::string& text);
  void set_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  /// Summary of a seeded run's outcomes that tracing must not change (the
  /// sim workloads' delivered count and latency histogram). Left empty
  /// where outcomes depend on timing (the closed-loop serving workloads).
  void set_fingerprint(std::string fingerprint) { fingerprint_ = std::move(fingerprint); }

  [[nodiscard]] bool correct() const noexcept;
  [[nodiscard]] double value(const std::string& name) const;

  /// Prints the human-readable summary, then the JSON line, and writes the
  /// file. Returns the process exit code (non-zero on a failed gate).
  int finish();

 private:
  const Options& options_;
  struct Gate {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<Gate> gates_;
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string fingerprint_;
};

/// Set-ups per run; setup_s is their median. Over ten processes on a 4-vCPU
/// VM, event_strike_1m's median of three spread 0.11 (IQR/median) against
/// 0.20 for its first set-up alone.
inline constexpr int kSetupReps = 3;

/// Calls set_up() kSetupReps times, freeing each state before the next set-up
/// starts, reports setup_s and returns the last state.
template <typename SetUp>
auto timed_set_ups(Report& report, SetUp&& set_up) -> decltype(set_up()) {
  std::vector<double> times;
  decltype(set_up()) state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    const auto start = now_ns();
    state = set_up();
    times.push_back(seconds_between(start, now_ns()));
  }
  std::string each;
  for (const double t : times) each += (each.empty() ? "" : ", ") + std::to_string(t);
  report.metric("setup_s", median(times), "s", times.size(),
                "median of " + std::to_string(times.size()) + " set-ups: " + each);
  return state;
}

/// Windows per second of --seconds: half-second windows.
inline constexpr std::uint64_t kWindowsPerSecond = 2;

/// Timing of one op call stream, split into equal windows of the timed
/// phase. End-to-end figures pool the slowest tenth of the windows (stats.hpp
/// slowest_tenth): on a shared host whose speed moves between modes up to 2x
/// apart, a run that catches some slow-mode windows reports the slow mode
/// whatever share of the run it covers, where whole-run figures follow the
/// mix. A mode that covers a whole run still shows in every statistic.
struct WindowedTimings {
  explicit WindowedTimings(std::size_t windows)
      : hist(windows), ops(windows, 0), wall_s(windows, 0.0) {}
  std::vector<LatencyHistogram> hist;
  std::vector<std::uint64_t> ops;
  std::vector<double> wall_s;  ///< wall seconds per window (thread-shared)

  void merge(const WindowedTimings& other);
  [[nodiscard]] LatencyHistogram total() const;
};

/// Reports ops_per_s, op_p50_us and op_p99_us over the slowest tenth of the
/// windows, plus whole-run figures and the highest reportable tail (not gated).
void report_op_timings(Report& report, const WindowedTimings& timings);

/// Spans recorded around the benchmark's calls into the system (traced
/// runs only). Each thread appends to its own buffer; buffers are capped
/// and later calls are counted and timed in aggregate only.
struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;   ///< span id of the parent (0 = none)
  std::uint64_t request = 0;  ///< op id (the i-th op of a thread, tagged)
  std::int64_t start = 0;
  std::int64_t end = 0;
};

class SpanLog {
 public:
  static constexpr std::size_t kCapacityPerThread = 1 << 20;

  /// `keep` = false records per-name totals only (untraced runs).
  SpanLog(std::size_t threads, bool keep);

  [[nodiscard]] std::uint32_t name_id(const std::string& name);
  /// Records a span on `thread`; returns its id (0 when over capacity).
  std::uint32_t add(std::size_t thread, std::uint32_t name, std::uint32_t parent,
                    std::uint64_t request, std::int64_t start, std::int64_t end);

  /// Per span name: calls, total and self time (kept spans only), printed.
  void print_summary() const;

 private:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t kept = 0;
    std::int64_t total_ns = 0;
  };
  std::size_t capacity_;
  std::vector<std::string> names_;
  std::vector<std::vector<Span>> buffers_;
  std::vector<std::vector<Totals>> totals_;  ///< [thread][name]
};

/// Counts every emitted trace event by type and drop reason. Single-
/// threaded like trace::Tracer itself.
class CountingSink final : public hours::trace::TraceSink {
 public:
  void on_event(const hours::trace::Event& event) override;
  [[nodiscard]] std::uint64_t count(hours::trace::EventType type) const;
  [[nodiscard]] std::uint64_t drops(hours::trace::DropReason reason) const;
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }

 private:
  std::array<std::uint64_t, hours::trace::kEventTypeCount> by_type_{};
  std::array<std::uint64_t, 8> drops_{};
  std::uint64_t total_ = 0;
};

/// Reports the sink's transport-drop and hop-kind counts under sim.*.
void report_sink_counts(Report& report, const CountingSink& sink);

/// The reconciliation lines: explained_share = sum(cost x count) / wall,
/// the unexplained remainder in seconds, and the terms whose call count
/// the program does not expose.
struct Reconciliation {
  struct Term {
    std::string layer;
    double cost_s = 0.0;      ///< per call
    double count = 0.0;
    bool count_known = true;
  };
  std::vector<Term> terms;
  double wall_s = 0.0;  ///< the denominator (thread-seconds for threaded loops)

  void add(const std::string& layer, double cost_s, double count) {
    terms.push_back({layer, cost_s, count, true});
  }
  void unavailable(const std::string& layer, double cost_s) {
    terms.push_back({layer, cost_s, 0.0, false});
  }
  void report(Report& report) const;
};

/// overlay.table_build_us_{100,10000}: Algorithm 1 at the two ring shapes
/// the sim workloads build lazily (100 zones of 100) and eagerly (10,000).
void report_table_builds(Report& report, std::uint64_t seed);

/// sim.wheel_ns: one schedule plus one single-event run() on a fresh
/// Simulator holding `depth` pending events.
[[nodiscard]] double wheel_ns(std::size_t depth, std::uint64_t seed);

/// Names of every per-layer metric, so each traced run reports all of them
/// (layers a workload leaves idle report 0, marked not applicable).
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

int run_serve_hot(const Options& options);
int run_serve_churn(const Options& options);
int run_event_strike(const Options& options);
int run_ring_recovery(const Options& options);

}  // namespace perfbench
