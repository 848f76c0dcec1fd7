#include "hours/event_backend.hpp"

#include <string>
#include <utility>

#include "hours/hours.hpp"

namespace hours {

namespace {

QueryResult failed(util::Error::Code code) {
  QueryResult r;
  r.failure = code;
  return r;
}

}  // namespace

EventBackend::EventBackend(HoursSystem& system, EventBackendConfig config,
                           std::uint64_t clock_offset_seconds)
    : system_(system),
      config_(config),
      offset_seconds_(clock_offset_seconds),
      cache_bootstrap_queries_(system.registry().counter("facade.cache_bootstrap_queries")) {}

std::uint64_t EventBackend::now() const noexcept {
  const std::uint64_t sim_seconds =
      sim_ ? sim_->simulator().now() / config_.ticks_per_second : 0;
  return offset_seconds_ + sim_seconds;
}

void EventBackend::advance(std::uint64_t seconds) {
  ensure_built();
  // Simulator::run clamps now() to the deadline even when the queue drains
  // early, so wall-clock advancement never depends on pending events.
  sim_->simulator().run(seconds * config_.ticks_per_second);
}

void EventBackend::ensure_built() {
  if (sim_) return;
  auto& hierarchy = system_.hierarchy();

  // Flat BFS image in exactly the order HierarchySimulation assigns ids.
  // No NodePath or name is materialized here — with lazy overlay tables on
  // both sides, building a million-node mirror costs O(N) integers; names
  // resolve on demand through resolve_id().
  auto snapshot = hierarchy.topology_snapshot();
  sim::TreeTopology topology;
  topology.child_counts = std::move(snapshot.child_counts);

  sim::HierarchySimConfig sim_config;
  sim_config.params = system_.config().overlay;
  sim_config.transport = config_.transport;
  sim_config.seed = config_.seed;
  sim_config.suspicion_ttl = config_.suspicion_ttl;
  sim_config.liveness = config_.liveness;
  sim_config.assume_ring_repaired = config_.assume_ring_repaired;
  sim_ = std::make_unique<sim::HierarchySimulation>(sim_config, topology);

  // Mirror the facade's oracle liveness as the simulation's initial state;
  // from here on, downtime inside the simulation is learned from silence.
  for (const std::uint32_t id : snapshot.dead) sim_->kill_id(id);

  client_ = std::make_unique<sim::QueryClient>(sim::make_query_network(*sim_), config_.client);

  for (const auto& plan : plans_) arm(plan);

  sim_->set_tracer(trace_);
  client_->set_tracer(trace_);
}

void EventBackend::settle(std::uint64_t qid) {
  while (client_->outcome(qid).status == sim::QueryStatus::kPending) {
    if (sim_->simulator().run(/*limit=*/0, /*max_events=*/1) == 0) break;
  }
}

QueryResult EventBackend::run_client_query(std::uint32_t start_id, Resolved dest_node,
                                           const naming::Name& dest, bool from_cache) {
  const std::uint64_t qid = client_->submit(
      start_id, static_cast<std::uint32_t>(dest_node.id), std::move(dest_node.path));
  settle(qid);
  const sim::ClientQueryOutcome out = client_->outcome(qid);
  if (out.status != sim::QueryStatus::kPending) client_->release(qid);

  QueryResult result;
  result.hops = out.hops;
  result.retransmissions = out.retransmissions;
  result.failovers = out.failovers;
  result.latency_ticks = out.latency();
  result.used_bootstrap_cache = from_cache;
  switch (out.status) {
    case sim::QueryStatus::kDelivered:
      result.delivered = true;
      system_.cache_bootstrap(dest.to_string());
      if (!from_cache && dest.depth() > 1) {
        system_.cache_bootstrap(dest.label(1));
      }
      break;
    case sim::QueryStatus::kDeadlineExceeded:
      result.failure = util::Error::Code::kUnreachable;
      break;
    case sim::QueryStatus::kNoRoute:
      result.failure = util::Error::Code::kDead;
      break;
    case sim::QueryStatus::kPending:  // queue drained without settling
      result.failure = util::Error::Code::kInternal;
      break;
  }
  return result;
}

EventBackend::Resolved EventBackend::resolve(const naming::Name& name) {
  ensure_built();
  // The primary path's id; a mesh alias node also exists under secondary
  // parents with other ids, but liveness mirroring and query addressing use
  // the primary membership (docs/PROTOCOL.md §7).
  auto path = system_.hierarchy().resolve(name);
  if (!path.ok()) return {};
  Resolved out;
  out.id = sim_->find_id(path.value());
  out.path = std::move(path).value();
  return out;
}

QueryResult EventBackend::execute(const naming::Name& dest, bool /*record_path*/) {
  ensure_built();
  Resolved dest_node = resolve(dest);
  if (dest_node.id < 0) return failed(util::Error::Code::kNotFound);

  // Entry-point selection: the client checks whether its entry answers at
  // all (one RTT) before handing over custody — the root first, then the
  // bootstrap cache (Section 7) when the root is down. Forwarding liveness
  // beyond the entry point stays silence-inferred.
  if (sim_->alive_id(0)) {
    return run_client_query(/*start_id=*/0, std::move(dest_node), dest, /*from_cache=*/false);
  }

  cache_bootstrap_queries_.inc();
  for (const auto& cached : system_.bootstrap_cache()) {
    const auto parsed = naming::Name::parse(cached);
    if (!parsed.ok()) continue;
    const std::int64_t cached_id = resolve_id(parsed.value());
    if (cached_id < 0) continue;
    if (!sim_->alive_id(static_cast<std::uint32_t>(cached_id))) continue;
    return run_client_query(static_cast<std::uint32_t>(cached_id), std::move(dest_node), dest,
                            /*from_cache=*/true);
  }
  return failed(util::Error::Code::kDead);  // no usable entry point
}

QueryResult EventBackend::execute_from(const naming::Name& start, const naming::Name& dest,
                                       bool /*record_path*/) {
  ensure_built();
  const std::int64_t start_id = resolve_id(start);
  if (start_id < 0) return failed(util::Error::Code::kNotFound);
  Resolved dest_node = resolve(dest);
  if (dest_node.id < 0) return failed(util::Error::Code::kNotFound);
  if (!sim_->alive_id(static_cast<std::uint32_t>(start_id))) {
    return failed(util::Error::Code::kDead);
  }
  return run_client_query(static_cast<std::uint32_t>(start_id), std::move(dest_node), dest,
                          /*from_cache=*/false);
}

void EventBackend::on_set_alive(const naming::Name& name, bool alive) {
  // Before the snapshot exists there is nothing to mirror: ensure_built
  // reads the hierarchy's liveness when it materializes.
  if (!sim_) return;
  const std::int64_t id = resolve_id(name);
  if (id < 0) return;
  if (alive) {
    sim_->revive_id(static_cast<std::uint32_t>(id));
  } else {
    sim_->kill_id(static_cast<std::uint32_t>(id));
  }
}

void EventBackend::on_membership_change() {
  if (!sim_) return;
  // The id layout is stale; drop the snapshot and keep the clock monotonic.
  // Stored fault plans re-arm relative to the rebuilt simulator's t=0.
  offset_seconds_ = now();
  client_.reset();
  injector_.reset();
  sim_.reset();
}

void EventBackend::arm(const sim::FaultPlan& plan) {
  if (injector_) {
    injector_->add(plan);
    return;
  }
  injector_ = std::make_unique<sim::FaultInjector>(sim::make_fault_target(*sim_), plan);
  injector_->set_tracer(trace_);
  injector_->arm();
}

util::Result<std::size_t> EventBackend::schedule_faults(sim::FaultPlan plan) {
  plans_.push_back(std::move(plan));
  if (sim_) arm(plans_.back());
  return plans_.size();
}

std::uint64_t EventBackend::trace_stamp(std::uint64_t& op_clock) const {
  // Once the simulator exists, facade events share its timeline so they
  // interleave correctly with protocol-level events in one trace.
  if (sim_) return sim_->simulator().now();
  return ++op_clock;
}

void EventBackend::set_tracer(trace::Tracer* tracer) {
  trace_ = tracer;
  if (sim_) sim_->set_tracer(tracer);
  if (client_) client_->set_tracer(tracer);
  if (injector_) injector_->set_tracer(tracer);
}

std::optional<std::uint32_t> EventBackend::node_id(std::string_view name) {
  ensure_built();
  const auto parsed = naming::Name::parse(name);
  if (!parsed.ok()) return std::nullopt;
  const std::int64_t id = resolve_id(parsed.value());
  if (id < 0) return std::nullopt;
  return static_cast<std::uint32_t>(id);
}

sim::FaultInjectorStats EventBackend::fault_stats() const {
  return injector_ ? injector_->stats() : sim::FaultInjectorStats{};
}

}  // namespace hours
