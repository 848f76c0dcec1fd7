// Public API of the HOURS library.
//
// HoursSystem bundles a named service hierarchy (admission-controlled,
// SHA-1-indexed — Section 3), the mixed hierarchical/overlay query router
// (Sections 3.3/4.2), attack injection (Section 5's threat model) and the
// client-side bootstrap cache (Section 7) behind a name-oriented interface:
//
//   hours::HoursSystem sys;                       // enhanced design, k=5, q=10
//   sys.admit("ucla");  sys.admit("cs.ucla");  sys.admit("www.cs.ucla");
//   sys.set_alive("ucla", false);                 // DoS the level-1 zone
//   auto r = sys.query("www.cs.ucla");            // still delivered, via overlay
//   r.delivered, r.hops, r.overlay_hops, ...
//
// Scale-oriented experiments should use hierarchy::SyntheticHierarchy with
// hierarchy::Router directly; this facade favors clarity over bulk setup.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include <map>

#include "attack/attack.hpp"
#include "hierarchy/named.hpp"
#include "hierarchy/router.hpp"
#include "hours/event_backend.hpp"
#include "hours/query_backend.hpp"
#include "naming/name.hpp"
#include "overlay/params.hpp"
#include "snapshot/json.hpp"
#include "store/record_store.hpp"
#include "trace/registry.hpp"
#include "trace/sink.hpp"
#include "util/status.hpp"

namespace hours {

struct HoursConfig {
  overlay::OverlayParams overlay;  ///< design (base/enhanced), k, q, seed
  hierarchy::EntrancePolicy entrance = hierarchy::EntrancePolicy::kNearestCcwOfOd;
  /// Client-side bootstrap cache capacity (Section 7): most recently seen
  /// resolvable nodes, tried in order when the root is down.
  std::size_t bootstrap_cache_size = 8;
};

// QueryResult lives in hours/query_backend.hpp alongside the QueryBackend
// interface both engines implement.

class HoursSystem {
 public:
  explicit HoursSystem(HoursConfig config = {});

  /// Admits a node under its already-admitted parent (delegated admission
  /// control; the root exists implicitly).
  util::Result<naming::Name> admit(std::string_view name);

  /// Voluntary departure of a node and its subtree.
  util::Result<naming::Name> remove(std::string_view name);

  /// DoS semantics: the node stops responding but remains a member.
  util::Result<naming::Name> set_alive(std::string_view name, bool alive);

  /// Coordinated DoS (Section 5's attacker): shuts down `target` plus
  /// `sibling_count` of its siblings chosen per `strategy`. One attack per
  /// target at a time; lift_attack() reverses it.
  util::Result<naming::Name> strike(std::string_view target, attack::Strategy strategy,
                                    std::uint32_t sibling_count);
  util::Result<naming::Name> lift_attack(std::string_view target);

  /// Routes a query for `dest_name` from the root; if the root is down,
  /// falls back to the bootstrap cache (Section 7).
  [[nodiscard]] QueryResult query(std::string_view dest_name, bool record_path = false);

  /// Routes from an explicit bootstrap node instead of the root.
  [[nodiscard]] QueryResult query_from(std::string_view start_name, std::string_view dest_name,
                                       bool record_path = false);

  /// Adds a node to the client's bootstrap cache.
  void cache_bootstrap(std::string_view name);

  /// Most-recent-first bootstrap entries (backends walk these when the root
  /// is down).
  [[nodiscard]] const std::deque<std::string>& bootstrap_cache() const noexcept {
    return bootstrap_cache_;
  }

  // -- query engine -----------------------------------------------------------
  /// The engine executing queries; GraphBackend (instantaneous, oracle
  /// liveness) by default.
  [[nodiscard]] QueryBackend& backend() noexcept { return *backend_; }
  [[nodiscard]] const QueryBackend& backend() const noexcept { return *backend_; }

  /// Swaps in the message-level engine (sim::Simulator + QueryClient,
  /// silence-inferred liveness, FaultPlan scheduling). The clock continues
  /// from the previous backend's now(). Returns the backend for node-id
  /// lookups and engine introspection.
  EventBackend& use_event_backend(EventBackendConfig config = {});

  /// Restores the instantaneous graph engine; the clock carries over.
  void use_graph_backend();

  /// The active EventBackend, or nullptr while on the graph engine.
  [[nodiscard]] EventBackend* event_backend() noexcept { return event_backend_; }

  /// Backend clock in seconds — the time base resolver cache TTLs use.
  [[nodiscard]] std::uint64_t now() const noexcept { return backend_->now(); }

  /// Advances the backend clock (and, on the event backend, runs the
  /// simulator across the span so fault windows open and close).
  void advance(std::uint64_t seconds) { backend_->advance(seconds); }

  /// Schedules a declarative churn/outage plan (event backend only).
  util::Result<std::size_t> schedule_faults(sim::FaultPlan plan) {
    return backend_->schedule_faults(std::move(plan));
  }

  // -- data plane -------------------------------------------------------------
  /// Attaches a record to the (already admitted) node that owns `name`.
  util::Result<naming::Name> add_record(std::string_view name, store::Record record);

  /// A routed lookup: the answer is only available if the query actually
  /// reaches the node holding it — the accessibility HOURS protects.
  struct LookupResult {
    QueryResult query;
    std::vector<store::Record> records;  ///< empty unless query.delivered
  };
  [[nodiscard]] LookupResult lookup(std::string_view name);

  /// Batched query submission: the single-consumer entry point the
  /// concurrent serving front-end (ConcurrentResolver) funnels cache
  /// misses through — one facade call per batch instead of one per query.
  /// Results align positionally with `names`. Not itself thread-safe; the
  /// caller serializes access to the facade.
  [[nodiscard]] std::vector<LookupResult> lookup_batch(const std::vector<std::string>& names);

  [[nodiscard]] const store::RecordStore& records() const noexcept { return records_; }

  [[nodiscard]] hierarchy::NamedHierarchy& hierarchy() noexcept { return hierarchy_; }
  [[nodiscard]] const HoursConfig& config() const noexcept { return config_; }

  // -- snapshot/restore --------------------------------------------------------
  // Versioned serialization of the complete facade state (docs/PROTOCOL.md
  // appendix C, "system" section): membership (names, liveness, mesh
  // registrations), records, the bootstrap cache, attack bookkeeping and its
  // RNG stream, facade metrics, the operation/qid counters, and the active
  // backend (kind, clock, and — on the event engine — its configuration and
  // every scheduled FaultPlan in describe() text form).
  //
  // restore() requires a freshly constructed, identically configured system.
  // On the event backend the simulation itself re-materializes lazily from
  // the restored membership and plans — the same semantics every membership
  // change already has (EventBackend::on_membership_change). Byte-exact
  // mid-run replay lives one layer down, in sim::Snapshotter.

  /// Writes the snapshot to `path`. Returns "" on success.
  [[nodiscard]] std::string save(const std::string& path) const;
  /// Builds the snapshot document in memory.
  [[nodiscard]] std::string save_json(snapshot::Json& doc) const;
  /// Reads and applies a snapshot written by save(). Returns "" on success;
  /// on failure the system may be partially restored — discard it.
  [[nodiscard]] std::string restore(const std::string& path);
  [[nodiscard]] std::string restore_json(const snapshot::Json& doc);

  // -- observability ----------------------------------------------------------
  /// Attach (or detach with nullptr) a tracer, propagated into the active
  /// backend. On the graph backend events are stamped with a logical
  /// operation clock; the event backend stamps with simulator ticks.
  void set_tracer(trace::Tracer* tracer) noexcept {
    trace_ = tracer;
    backend_->set_tracer(tracer);
  }
  [[nodiscard]] trace::Tracer* tracer() const noexcept { return trace_; }
  /// Facade-level counters/histograms ("facade.*" names).
  [[nodiscard]] trace::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const trace::Registry& registry() const noexcept { return registry_; }

 private:
  /// query() on an already-parsed destination: counts the submission, emits
  /// kQuerySubmit, runs a valid name from the root, fails a malformed one.
  QueryResult query_parsed(const util::Result<naming::Name>& dest, bool record_path);
  /// Counts the outcome, emits kQueryDelivered/kQueryFailed, returns `result`.
  QueryResult finish_query(std::uint64_t qid, QueryResult result);
  /// The configuration echo stored in (and verified against) a snapshot.
  [[nodiscard]] snapshot::Json config_json() const;
  /// Trace timestamp from the active backend (logical op clock or sim ticks).
  [[nodiscard]] std::uint64_t stamp() { return backend_->trace_stamp(op_clock_); }

  HoursConfig config_;
  hierarchy::NamedHierarchy hierarchy_;
  std::unique_ptr<QueryBackend> backend_;  // never null after construction
  EventBackend* event_backend_ = nullptr;  // == backend_.get() when event-driven
  store::RecordStore records_;
  std::deque<std::string> bootstrap_cache_;  // most recent first
  rng::Xoshiro256 attack_rng_{0xA77ACCULL};
  std::map<std::string, std::vector<std::string>> active_attacks_;  // target -> victims

  trace::Registry registry_;
  trace::Tracer* trace_ = nullptr;
  std::uint64_t op_clock_ = 0;  ///< logical Event::at outside any simulator
  std::uint64_t next_qid_ = 1;
  trace::Counter queries_submitted_ = registry_.counter("facade.queries_submitted");
  trace::Counter queries_delivered_ = registry_.counter("facade.queries_delivered");
  trace::Counter queries_failed_ = registry_.counter("facade.queries_failed");
  trace::Counter cache_bootstrap_queries_ = registry_.counter("facade.cache_bootstrap_queries");
  trace::Counter attacks_launched_ = registry_.counter("facade.attacks_launched");
  trace::Counter attacks_lifted_ = registry_.counter("facade.attacks_lifted");
  metrics::Histogram* delivered_hops_ = &registry_.histogram("facade.delivered_hops");
};

}  // namespace hours
