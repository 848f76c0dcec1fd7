// Message-level query engine behind the HoursSystem facade.
//
// EventBackend mirrors the admitted NamedHierarchy into a
// sim::HierarchySimulation (a TreeTopology snapshot with a stable
// name<->node-id mapping), drives each facade query through
// sim::QueryClient — retries with capped backoff, failover, TTL suspicion,
// end-to-end deadlines, all liveness inferred from silence — and accepts
// sim::FaultPlan schedules so resolver caching studies run against scripted
// churn instead of static oracle strikes. The backend clock is the
// simulator's, scaled by ticks_per_second, so resolver TTLs, fault windows
// and query deadlines share one timeline.
//
// Semantics that differ from GraphBackend (see docs/PROTOCOL.md §7):
// queries cost simulated time and can time out; per-hop taxonomy counters
// (overlay vs hierarchical hops) are not decomposed at the client;
// record_path is not supported (custody is opaque to the client); mesh
// secondary parents are not materialized (primary tree only).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "hours/query_backend.hpp"
#include "sim/fault_injector.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/query_client.hpp"
#include "trace/registry.hpp"

namespace hours {

class HoursSystem;

/// QueryClient defaults leave the deadline unbounded; a facade-driven study
/// wants availability semantics, so the event backend bounds each query.
[[nodiscard]] inline sim::QueryClientConfig default_event_client_config() {
  sim::QueryClientConfig config;
  config.deadline = 8'000;
  return config;
}

struct EventBackendConfig {
  sim::TransportConfig transport;
  sim::QueryClientConfig client = default_event_client_config();
  /// Scale between simulator ticks and the facade's second-granularity
  /// clock (resolver TTLs, advance()).
  sim::Ticks ticks_per_second = 1'000;
  /// In-network suspicion expiry (HierarchySimConfig::suspicion_ttl).
  sim::Ticks suspicion_ttl = liveness::kDefaultSuspicionTtl;
  /// Evidence-source selection forwarded to the mirrored simulation
  /// (HierarchySimConfig::liveness).
  liveness::Config liveness;
  bool assume_ring_repaired = true;
  std::uint64_t seed = 0x486965722dULL;
};

class EventBackend final : public QueryBackend {
 public:
  /// `clock_offset_seconds` seeds now() so a backend swap mid-run continues
  /// the previous backend's timeline instead of rewinding to zero.
  EventBackend(HoursSystem& system, EventBackendConfig config,
               std::uint64_t clock_offset_seconds = 0);

  [[nodiscard]] std::string_view kind() const noexcept override { return "event"; }
  [[nodiscard]] std::uint64_t now() const noexcept override;
  void advance(std::uint64_t seconds) override;

  [[nodiscard]] QueryResult execute(const naming::Name& dest, bool record_path) override;
  [[nodiscard]] QueryResult execute_from(const naming::Name& start, const naming::Name& dest,
                                         bool record_path) override;

  void on_set_alive(const naming::Name& name, bool alive) override;
  void on_membership_change() override;
  util::Result<std::size_t> schedule_faults(sim::FaultPlan plan) override;
  [[nodiscard]] std::uint64_t trace_stamp(std::uint64_t& op_clock) const override;
  void set_tracer(trace::Tracer* tracer) override;

  // -- introspection ----------------------------------------------------------
  /// The simulator node id an admitted name maps to, for building FaultPlans
  /// in simulator coordinates. Forces the topology snapshot to materialize.
  [[nodiscard]] std::optional<std::uint32_t> node_id(std::string_view name);

  /// Underlying engines; materialized lazily on first query/advance/node_id.
  [[nodiscard]] sim::HierarchySimulation* simulation() noexcept { return sim_.get(); }
  [[nodiscard]] sim::QueryClient* client() noexcept { return client_.get(); }

  /// Transitions applied so far by every scheduled plan together.
  [[nodiscard]] sim::FaultInjectorStats fault_stats() const;

  [[nodiscard]] const EventBackendConfig& config() const noexcept { return config_; }

  /// Every plan scheduled so far (re-armed on each topology rebuild), for
  /// facade snapshots.
  [[nodiscard]] const std::vector<sim::FaultPlan>& plans() const noexcept { return plans_; }

 private:
  /// Snapshots the NamedHierarchy into a fresh simulation: flat BFS
  /// topology (no paths or names materialized), oracle liveness mirrored as
  /// initial kills, stored fault plans re-armed at the (fresh) simulator's
  /// t=0. Name->id lookups resolve lazily through resolve_id().
  void ensure_built();

  /// Arms `plan` from the current instant on the one injector (created by
  /// the first plan), so every plan shares its down and link refcounts.
  void arm(const sim::FaultPlan& plan);

  /// The simulator node id `name` maps to (its primary path), or -1 when
  /// the name is not admitted.
  [[nodiscard]] std::int64_t resolve_id(const naming::Name& name);

  /// Runs the simulator one event at a time until `qid` settles, so events
  /// scheduled past the settlement instant (fault windows, other timers)
  /// stay pending for advance() instead of being executed early.
  void settle(std::uint64_t qid);

  /// Submits one client query, settles it and releases it from the client
  /// (QueryClient::release), so the client holds no per-query state
  /// between facade queries.
  [[nodiscard]] QueryResult run_client_query(std::uint32_t start_id, std::uint32_t dest_id,
                                             const naming::Name& dest, bool from_cache);

  HoursSystem& system_;
  EventBackendConfig config_;
  std::uint64_t offset_seconds_;
  trace::Tracer* trace_ = nullptr;
  trace::Counter cache_bootstrap_queries_;  // shares the facade's registry slot

  std::unique_ptr<sim::HierarchySimulation> sim_;
  std::unique_ptr<sim::QueryClient> client_;
  std::unique_ptr<sim::FaultInjector> injector_;  ///< arms every plan; never saved
  std::vector<sim::FaultPlan> plans_;  ///< everything scheduled, for re-arming
};

}  // namespace hours
