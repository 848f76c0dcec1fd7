// Declarative experiment documents: the scenario DSL.
//
// Every DoS-resilience study used to be a hand-written bench binary; this
// module turns experiment authoring into data. A scenario is one JSON
// document (restricted to the snapshot::Json subset: u64, string, array,
// object — booleans are 0/1, fractions are decimal strings) carrying a
// versioned envelope plus five clauses:
//
//   {
//     "magic": "hours-scenario", "version": 1,
//     "name": "availability_under_churn", "seed": 48879,
//     "system":   { "kind": "ring" | "hierarchy", ... },
//     "workload": { "horizon": ..., "window": ..., "phases": [...] },
//     "faults":   { "plan": ["crash(3, 1500, 6000)", ...] },   // optional
//     "attacker": { "kind": "adaptive" | "strike" | "cache_busting", ... },
//     "metrics":  { "emit": [...], "phases": [...], "expect": [...] }
//   }
//
// The fault clause reuses FaultPlan::parse/describe() verbatim — one
// builder-call string per array element, exactly the text fuzz artifacts
// and snapshots already carry. The validator is hand-rolled in the style of
// the trace/snapshot validators: unknown keys are rejected, every field is
// type-checked, and errors name the exact path ($.workload.phases[2].rate).
// scenario::Runner (runner.hpp) assembles the described system, drives the
// workload, and emits a byte-deterministic metrics::JsonWriter report.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "liveness/liveness.hpp"
#include "overlay/params.hpp"
#include "sim/fault_injector.hpp"
#include "snapshot/json.hpp"

namespace hours::scenario {

inline constexpr std::string_view kScenarioMagic = "hours-scenario";
inline constexpr std::uint64_t kScenarioVersion = 1;

/// Destination/name popularity within one workload phase.
struct Popularity {
  enum class Kind : std::uint8_t { kUniform, kZipf, kHotspot };
  Kind kind = Kind::kUniform;
  double exponent = 0.9;   ///< zipf
  std::uint64_t hot = 0;   ///< hotspot: index into the destination universe
  double fraction = 0.5;   ///< hotspot: probability mass on `hot`
};

/// One phase of the workload schedule; phases are contiguous and ordered by
/// strictly increasing `until`. Ring workloads use `interval` (ticks between
/// submissions); hierarchy workloads use `rate` (resolutions per second).
struct Phase {
  std::uint64_t until = 0;
  std::uint64_t interval = 0;
  std::uint64_t rate = 0;
  Popularity popularity;
};

enum class SystemKind : std::uint8_t { kRing, kHierarchy };
enum class BackendKind : std::uint8_t { kGraph, kEvent };
enum class ResolverKind : std::uint8_t { kSerial, kConcurrent };

/// Ring system: RingSimulation + QueryClient driven in simulator ticks.
struct RingSystem {
  std::uint32_t size = 16;
  overlay::OverlayParams params;
  std::optional<std::uint64_t> seed;  ///< table seed; absent = library default
  std::uint64_t probe_period = 1'000;
  std::uint32_t probe_failure_threshold = 1;
  std::uint64_t client_deadline = 8'000;  ///< ticks
};

/// Hierarchy system: HoursSystem over the graph or event backend, queried
/// through a TTL-bounded resolver; clocks are backend seconds.
struct HierarchySystem {
  BackendKind backend = BackendKind::kEvent;
  /// Fan-out per level: {6, 6} admits 6 level-1 zones ("n0".."n5") with 6
  /// leaves each ("n0.n0".."n5.n5"). Leaves carry one A record and form the
  /// workload's name universe, in admission (depth-first) order.
  std::vector<std::uint64_t> branching;
  overlay::OverlayParams params;
  std::uint64_t record_ttl = 90;         ///< seconds
  std::uint64_t ticks_per_second = 1'000;
  std::uint64_t client_deadline = 6'000;  ///< ticks (event backend)
  ResolverKind resolver = ResolverKind::kSerial;
  std::uint64_t resolver_capacity = 1'024;
};

enum class AttackerKind : std::uint8_t { kNone, kAdaptive, kStrike, kCacheBusting };

/// Attack clause. Adaptive is ring-only (a trace-subscribed re-striker);
/// strike and cache_busting are hierarchy-only, with times in seconds.
struct Attacker {
  AttackerKind kind = AttackerKind::kNone;
  // -- adaptive (sim::AdaptiveAttackerConfig mirror) ---------------------------
  std::uint32_t neighborhood = 3;
  std::uint64_t reaction_delay = 500;
  std::uint64_t strike_duration = 15'000;
  std::uint32_t max_strikes = 2;
  std::uint64_t cooldown = 10'000;
  // -- strike ------------------------------------------------------------------
  std::vector<std::string> victims;  ///< admitted names (event: ids resolved at run)
  std::uint64_t at = 0;
  std::uint64_t duration = 0;
  std::uint32_t strikes = 1;
  std::uint64_t gap = 0;
  // -- cache_busting -----------------------------------------------------------
  /// The attacker owns a side zone "cb" of `hosts` resolvable leaves and
  /// cycles through them sequentially at `rate` resolutions per second over
  /// [from, until) — every query a valid name with near-zero reuse, so each
  /// one misses, costs an authoritative lookup, and evicts a cached answer
  /// (Ferretti & Ghini's random-query-string DoS against resolver caches).
  std::uint64_t hosts = 256;
  std::uint64_t rate = 0;
  std::uint64_t from = 0;
  std::uint64_t until = 0;
};

/// Named measurement window ([from, until), workload time units).
struct MetricPhase {
  std::string name;
  std::uint64_t from = 0;
  std::uint64_t until = 0;
};

/// Declarative pass/fail check evaluated by the runner.
struct Expectation {
  enum class Kind : std::uint8_t {
    kPhaseLt,    ///< delivery/availability(left) <  delivery/availability(right)
    kPhaseGe,    ///< delivery/availability(left) >= delivery/availability(right)
    kHitRateLt,  ///< hit_rate(left) <  hit_rate(right) — hierarchy only
    kHitRateGe,  ///< hit_rate(left) >= hit_rate(right) — hierarchy only
    kFlag,       ///< named boolean in the report must be true — ring only
    kCounterGe,  ///< resolver stat `counter` >= threshold — hierarchy only
    kCounterLt,  ///< resolver stat `counter` <  threshold — hierarchy only
  };
  Kind kind = Kind::kPhaseLt;
  std::string left;
  std::string right;
  /// "split_observed" | "remerged" | "fixpoint_matches" (need fixpoint), or
  /// "detection_improved" | "digest_budget_respected" (need detection).
  std::string flag;
  std::string counter;  ///< resolver stat name (counter_ge / counter_lt)
  std::uint64_t threshold = 0;

  /// Human-readable form used in reports: "phase_lt(during, pre)".
  [[nodiscard]] std::string describe() const;
};

/// Report sections the runner may emit, in canonical output order.
struct MetricsSpec {
  bool timeline = true;   ///< ring: windowed delivery timeline
  bool traffic = true;    ///< ring: per-window repair/claim/link-drop deltas
  bool windows = true;    ///< hierarchy: per-window asked/answered/hits
  bool phases = true;
  bool client = true;
  bool faults = true;
  bool counters = false;  ///< ring: full registry snapshot
  bool resolver = true;   ///< hierarchy: resolver stats
  bool attacker = true;
  /// Ring only: run an identically seeded no-fault, no-workload control to
  /// the horizon and report whether the healed pointer tables match the
  /// no-fault fixpoint byte for byte (plus split/remerge observations).
  bool fixpoint = false;
  /// Ring + gossip only: also run the identically seeded document with
  /// probe-only liveness and report both runs' suspicion latency
  /// (scenario/detection.hpp) side by side.
  bool detection = false;
  std::vector<MetricPhase> phase_defs;
  std::vector<Expectation> expect;
};

/// A fully validated scenario document.
struct Scenario {
  std::string name;
  std::string description;
  std::uint64_t seed = 0;
  SystemKind kind = SystemKind::kRing;
  RingSystem ring;
  HierarchySystem hierarchy;
  std::vector<Phase> phases;
  std::uint64_t horizon = 0;       ///< ticks (ring) or seconds (hierarchy)
  std::uint64_t window = 0;
  std::uint64_t start = 200;       ///< ring: first submission instant
  bool alive_sources = false;      ///< ring: redraw dead sources
  std::vector<std::string> fault_lines;
  sim::FaultPlan faults;           ///< parsed from fault_lines
  Attacker attacker;
  /// Evidence-source selection for the liveness plane ($.liveness clause):
  /// probe_only (the default) keeps timeout-only inference; gossip
  /// piggybacks suspicion digests on transport traffic and, on hierarchy
  /// systems, arms the resolver's negative-cache defense.
  liveness::Config liveness;
  MetricsSpec metrics;
};

/// Work bounds: a document whose full-size run would issue more queries
/// (the workload phases plus a cache-busting attacker), sample more
/// windows (horizon / window) or run more ring probe rounds (size x horizon
/// / probe_period) than these is rejected, so every accepted document runs
/// in bounded time. The shipped library peaks at about 10.6k queries, 70
/// windows and 4,480 probe rounds.
inline constexpr std::uint64_t kMaxIssuedQueries = 2'000'000;
inline constexpr std::uint64_t kMaxWindows = 10'000;
inline constexpr std::uint64_t kMaxProbeRounds = 1'000'000;

/// Validates `doc` against the scenario schema and the work bounds, and
/// fills `out`. Returns "" on success, else one actionable error naming the
/// offending path ("$.workload.phases[2].rate: expected u64"). Unknown keys
/// anywhere in the document are rejected.
[[nodiscard]] std::string parse(const snapshot::Json& doc, Scenario& out);

/// Validation without retaining the result — the --validate-only entry.
[[nodiscard]] std::string validate(const snapshot::Json& doc);

/// Reads, parses, and validates a scenario file.
[[nodiscard]] std::string load_file(const std::string& path, Scenario& out);

/// The leaf-name universe `branching` generates, in admission order —
/// exposed so tests and docs can state the hotspot indexing rule.
[[nodiscard]] std::vector<std::string> leaf_names(const std::vector<std::uint64_t>& branching);

/// Every generated name (zones and leaves) in admission order: parents
/// before children, depth-first — the order the runner admits them.
[[nodiscard]] std::vector<std::string> topology_names(
    const std::vector<std::uint64_t>& branching);

}  // namespace hours::scenario
