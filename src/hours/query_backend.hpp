// The query-execution seam of the facade.
//
// HoursSystem owns the backend-agnostic naming core — admission control,
// records, attacks, the client bootstrap cache, trace/metrics bookkeeping —
// and delegates the actual execution of a query to a QueryBackend:
//
//   * GraphBackend (graph_backend.hpp): the instantaneous graph walk over
//     hierarchy::Router with oracle liveness — the original facade engine,
//     unchanged in behavior. Its clock is a logical counter advanced only
//     by advance().
//   * EventBackend (event_backend.hpp): a message-level run over
//     sim::HierarchySimulation driven hop by hop by sim::QueryClient
//     (retries, capped backoff, failover, deadlines), with liveness
//     inferred from silence and faults scripted by sim::FaultPlan. Its
//     clock is the simulator's, scaled to seconds.
//
// Both report QueryResult-shaped outcomes and expose one time source, so the
// resolver cache's TTLs, a FaultPlan's churn windows, and the client's
// query deadlines share a single timeline regardless of the engine
// underneath. docs/PROTOCOL.md §7 specifies the contract and the semantic
// differences between the two implementations.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "naming/name.hpp"
#include "sim/fault_injector.hpp"
#include "trace/sink.hpp"
#include "util/status.hpp"

namespace hours {

struct QueryResult {
  bool delivered = false;
  util::Error::Code failure = util::Error::Code::kInternal;  ///< valid when !delivered
  std::uint32_t hops = 0;
  std::uint32_t hierarchical_hops = 0;
  std::uint32_t overlay_hops = 0;
  std::uint32_t inter_overlay_hops = 0;
  std::uint32_t backward_steps = 0;
  bool used_bootstrap_cache = false;
  /// Top-down paths tried (> 1 only for mesh nodes with multiple parents,
  /// Section 7 "Hierarchy with Mesh Topology").
  std::uint32_t path_attempts = 1;
  std::vector<std::string> path;  ///< visited node names, when requested
  // -- event-backend outcome detail (zero on the graph backend) ---------------
  std::uint32_t retransmissions = 0;  ///< repeat attempts of an unanswered hop
  std::uint32_t failovers = 0;        ///< alternate pointers after retry exhaustion
  std::uint64_t latency_ticks = 0;    ///< submission -> settlement, simulator ticks
};

/// Executes name-level queries on behalf of the facade. Implementations
/// must treat the facade's NamedHierarchy as the source of truth for
/// membership and (initial) liveness.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Stable engine name ("graph" / "event") for reports and dispatch.
  [[nodiscard]] virtual std::string_view kind() const noexcept = 0;

  /// Client-visible clock in seconds — the unit resolver cache TTLs use.
  [[nodiscard]] virtual std::uint64_t now() const noexcept = 0;

  /// Advances the clock by `seconds`. The event backend also runs its
  /// simulator across the span, so scheduled fault windows open and close,
  /// suspicion expires, and stragglers from earlier queries settle.
  virtual void advance(std::uint64_t seconds) = 0;

  /// Routes `dest` from the backend's entry point: the root, falling back
  /// to the facade's bootstrap cache when the root is unreachable.
  [[nodiscard]] virtual QueryResult execute(const naming::Name& dest, bool record_path) = 0;

  /// Routes from an explicit start node instead of the root.
  [[nodiscard]] virtual QueryResult execute_from(const naming::Name& start,
                                                 const naming::Name& dest,
                                                 bool record_path) = 0;

  /// Liveness edge already applied to the hierarchy by the facade
  /// (set_alive / strike / lift_attack). The graph backend reads liveness
  /// from the hierarchy oracle directly; the event backend mirrors the edge
  /// into its simulator.
  virtual void on_set_alive(const naming::Name& /*name*/, bool /*alive*/) {}

  /// Admission or removal changed the tree; any frozen topology snapshot
  /// (the event backend's name<->index mapping) is now stale.
  virtual void on_membership_change() {}

  /// Schedules a declarative fault plan against the backend's engine.
  /// Only the event backend supports this; returns the number of plans now
  /// installed.
  virtual util::Result<std::size_t> schedule_faults(sim::FaultPlan /*plan*/) {
    return util::Error{util::Error::Code::kInvalidArgument,
                       "fault plans need an event-driven engine; call "
                       "HoursSystem::use_event_backend() first"};
  }

  /// Timestamp for facade-level trace events: without a simulator the
  /// facade advances its logical op clock; the event backend stamps with
  /// simulator ticks so facade and protocol events share one timeline.
  [[nodiscard]] virtual std::uint64_t trace_stamp(std::uint64_t& op_clock) const {
    return ++op_clock;
  }

  /// Trace stream propagation from HoursSystem::set_tracer.
  virtual void set_tracer(trace::Tracer* /*tracer*/) {}
};

}  // namespace hours
