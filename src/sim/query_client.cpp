#include "sim/query_client.hpp"

#include <algorithm>
#include <span>

#include "sim/hierarchy_protocol.hpp"
#include "sim/ring_protocol.hpp"
#include "snapshot/event_kinds.hpp"
#include "util/contracts.hpp"

namespace hours::sim {

QueryNetwork make_query_network(RingSimulation& ring) {
  QueryNetwork net;
  net.sim = &ring.simulator();
  net.node_count = ring.config().size;
  net.attempt = [&ring](std::uint32_t from, std::uint32_t to, snapshot::DescribedView on_ack,
                        snapshot::DescribedView on_timeout) {
    ring.client_attempt(from, to, on_ack, on_timeout);
  };
  net.candidates = [&ring](std::uint32_t at, std::uint32_t dest,
                           const std::vector<std::uint32_t>& /*route*/, bool& backward,
                           liveness::SuspectSet drop, std::vector<std::uint32_t>& out) {
    ring.route_candidates(at, dest, backward, drop, out);
  };
  net.is_destination = [](std::uint32_t at, std::uint32_t dest) { return at == dest; };
  net.same_overlay = [](std::uint32_t, std::uint32_t) { return true; };
  return net;
}

QueryNetwork make_query_network(HierarchySimulation& hierarchy) {
  QueryNetwork net;
  net.sim = &hierarchy.simulator();
  net.node_count = hierarchy.node_count();
  net.attempt = [&hierarchy](std::uint32_t from, std::uint32_t to,
                             snapshot::DescribedView on_ack, snapshot::DescribedView on_timeout) {
    hierarchy.client_attempt(from, to, on_ack, on_timeout);
  };
  net.route_of = [&hierarchy](std::uint32_t dest, std::vector<std::uint32_t>& route) {
    route = hierarchy.path_of(dest);
  };
  net.candidates = [&hierarchy](std::uint32_t at, std::uint32_t /*dest*/,
                                const std::vector<std::uint32_t>& route, bool& backward,
                                liveness::SuspectSet drop, std::vector<std::uint32_t>& out) {
    hierarchy.route_candidates(at, route, backward, drop, out);
  };
  net.is_destination = [](std::uint32_t at, std::uint32_t dest) { return at == dest; };
  net.same_overlay = [&hierarchy](std::uint32_t a, std::uint32_t b) {
    return hierarchy.same_overlay(a, b);
  };
  return net;
}

QueryClient::QueryClient(QueryNetwork network, QueryClientConfig config)
    : network_(std::move(network)),
      config_(config),
      jitter_rng_(config.seed),
      liveness_({}, config.suspicion_ttl),
      submitted_(registry_.counter("client.submitted")),
      delivered_(registry_.counter("client.delivered")),
      deadline_exceeded_(registry_.counter("client.deadline_exceeded")),
      no_route_(registry_.counter("client.no_route")),
      retransmissions_(registry_.counter("client.retransmissions")),
      failovers_(registry_.counter("client.failovers")),
      delivered_latency_(&registry_.histogram("client.delivered_latency")) {
  HOURS_EXPECTS(network_.sim != nullptr && network_.node_count > 0);
  HOURS_EXPECTS(network_.attempt != nullptr && network_.candidates != nullptr &&
                network_.is_destination != nullptr && network_.same_overlay != nullptr);
  HOURS_EXPECTS(config_.jitter >= 0.0 && config_.jitter < 1.0);
  HOURS_EXPECTS(config_.backoff_base > 0 && config_.backoff_cap >= config_.backoff_base);
  network_.sim->set_runner(snapshot::kClientAdvance, [this](std::uint32_t kind,
                                                           const std::uint64_t* args,
                                                           std::size_t count) {
    HOURS_EXPECTS(count == 1);
    const std::uint64_t qid = args[0];
    // A query that settled or was released makes every late event a no-op.
    const auto it = queries_.find(qid);
    if (it == queries_.end() || it->second.out.status != QueryStatus::kPending) return;
    QueryState& q = it->second;
    switch (kind) {
      case snapshot::kClientAdvance: advance(qid, q); return;
      case snapshot::kClientDeadline:
        q.deadline_event = 0;  // this event is running; nothing to cancel
        complete(qid, QueryStatus::kDeadlineExceeded);
        return;
      case snapshot::kClientRetransmit: attempt_current(qid, q); return;
      case snapshot::kClientHopAck: on_ack(qid, q); return;
      case snapshot::kClientHopTimeout: on_timeout(qid, q); return;
      default: HOURS_EXPECTS(!"unknown query client event kind");
    }
  });
}

std::uint32_t QueryClient::hop_budget() const noexcept {
  return config_.max_hops != 0 ? config_.max_hops : 4 * network_.node_count + 64;
}

Ticks QueryClient::base_backoff(std::uint32_t retry) const {
  HOURS_EXPECTS(retry >= 1);
  Ticks delay = config_.backoff_base;
  for (std::uint32_t i = 1; i < retry; ++i) {
    if (delay >= config_.backoff_cap) break;
    delay *= 2;
  }
  return std::min(delay, config_.backoff_cap);
}

bool QueryClient::suspected(std::uint32_t node) const {
  return liveness_.is_suspected(0, node, network_.sim->now());
}

void QueryClient::suspect(std::uint32_t node) {
  liveness_.suspect(0, node, network_.sim->now());
  suspects_until_ = 0;
  HOURS_TRACE_EMIT(trace_, {.at = network_.sim->now(),
                            .type = trace::EventType::kSuspect,
                            .peer = node});
}

liveness::SuspectSet QueryClient::plan_suspects() {
  const Ticks now = network_.sim->now();
  if (now >= suspects_until_) suspects_until_ = liveness_.active_set(0, now, suspects_);
  return {suspects_};
}

QueryClientStats QueryClient::stats() const noexcept {
  QueryClientStats s;
  s.submitted = submitted_.value();
  s.delivered = delivered_.value();
  s.deadline_exceeded = deadline_exceeded_.value();
  s.no_route = no_route_.value();
  s.retransmissions = retransmissions_.value();
  s.failovers = failovers_.value();
  return s;
}

std::uint64_t QueryClient::submit(std::uint32_t start, std::uint32_t dest) {
  std::vector<std::uint32_t> route;
  if (network_.route_of) network_.route_of(dest, route);
  return submit(start, dest, std::move(route));
}

std::uint64_t QueryClient::submit(std::uint32_t start, std::uint32_t dest,
                                  std::vector<std::uint32_t> route) {
  HOURS_EXPECTS(start < network_.node_count && dest < network_.node_count);
  const std::uint64_t qid = next_qid_++;
  QueryState state;
  state.dest = dest;
  state.at = start;
  state.route = std::move(route);
  state.out.issued_at = network_.sim->now();
  submitted_.inc();
  HOURS_TRACE_EMIT(trace_, {.at = network_.sim->now(),
                            .type = trace::EventType::kQuerySubmit,
                            .node = start,
                            .peer = dest,
                            .causal = qid});
  if (config_.deadline != 0) {
    state.deadline_event =
        network_.sim->schedule(config_.deadline, snapshot::kClientDeadline, &qid, 1);
  }
  queries_.emplace(qid, std::move(state));
  network_.sim->schedule(0, snapshot::kClientAdvance, &qid, 1);
  return qid;
}

const ClientQueryOutcome& QueryClient::outcome(std::uint64_t qid) const {
  const auto it = queries_.find(qid);
  HOURS_EXPECTS(it != queries_.end());
  return it->second.out;
}

void QueryClient::release(std::uint64_t qid) {
  const auto it = queries_.find(qid);
  HOURS_EXPECTS(it != queries_.end() && it->second.out.status != QueryStatus::kPending);
  queries_.erase(it);
}

void QueryClient::complete(std::uint64_t qid, QueryStatus status) {
  QueryState& q = queries_.at(qid);
  HOURS_EXPECTS(q.out.status == QueryStatus::kPending);
  q.out.status = status;
  q.out.completed_at = network_.sim->now();
  // Only a pending query reads its route and try-list; a settled one keeps
  // its outcome.
  std::vector<std::uint32_t>().swap(q.route);
  std::vector<std::uint32_t>().swap(q.candidates);
  if (q.deadline_event != 0) {
    network_.sim->cancel(q.deadline_event);
    q.deadline_event = 0;
  }
  switch (status) {
    case QueryStatus::kDelivered:
      delivered_.inc();
      delivered_latency_->add(q.out.latency());
      break;
    case QueryStatus::kDeadlineExceeded: deadline_exceeded_.inc(); break;
    case QueryStatus::kNoRoute: no_route_.inc(); break;
    case QueryStatus::kPending: break;
  }
  HOURS_TRACE_EMIT(trace_, {.at = network_.sim->now(),
                            .type = status == QueryStatus::kDelivered
                                        ? trace::EventType::kQueryDelivered
                                        : trace::EventType::kQueryFailed,
                            .node = q.at,
                            .causal = qid,
                            .value = q.out.hops});
}

void QueryClient::advance(std::uint64_t qid, QueryState& q) {
  if (network_.is_destination(q.at, q.dest)) {
    complete(qid, QueryStatus::kDelivered);
    return;
  }
  if (q.out.hops >= hop_budget()) {
    complete(qid, QueryStatus::kNoRoute);
    return;
  }

  while (q.next_candidate == q.candidates.size()) {
    // Re-plan at the current custody holder with the (possibly enriched)
    // suspicion set; the flip to backward mode happens in here. Bounded:
    // every failed candidate was suspected, so each round shrinks.
    if (q.replans >= 3) {
      complete(qid, QueryStatus::kNoRoute);
      return;
    }
    ++q.replans;
    // One pass: the network leaves the client's suspects out as it pushes,
    // into the query's own try-list.
    bool backward = q.backward;
    network_.candidates(q.at, q.dest, q.route, backward, plan_suspects(), q.candidates);
    q.backward = backward;
    q.next_candidate = 0;
    if (q.candidates.empty()) {
      if (!q.backward) {
        q.backward = true;  // client-side suspicion emptied the greedy list
        continue;
      }
      complete(qid, QueryStatus::kNoRoute);
      return;
    }
  }

  q.current = q.candidates[q.next_candidate++];
  q.attempts = 0;
  attempt_current(qid, q);
}

void QueryClient::attempt_current(std::uint64_t qid, QueryState& q) {
  ++q.attempts;
  // The target is q.current when either continuation runs (one attempt
  // outstanding), so both carry only the qid.
  const std::span<const std::uint64_t> words{&qid, 1};
  network_.attempt(q.at, q.current, {snapshot::kClientHopAck, words},
                   {snapshot::kClientHopTimeout, words});
}

void QueryClient::on_ack(std::uint64_t qid, QueryState& q) {
  const std::uint32_t hopped_to = q.current;
  if (liveness_.clear(0, hopped_to)) suspects_until_ = 0;  // proof of life
  q.backward = q.backward && network_.same_overlay(q.at, hopped_to);
  q.at = hopped_to;
  ++q.out.hops;
  q.candidates.clear();
  q.next_candidate = 0;
  q.replans = 0;
  advance(qid, q);
}

void QueryClient::on_timeout(std::uint64_t qid, QueryState& q) {
  const std::uint32_t tried = q.current;

  if (q.attempts <= config_.max_retries_per_hop) {
    // Retransmit after capped exponential backoff with deterministic jitter:
    // silence is as likely a lost message as a dead server.
    ++q.out.retransmissions;
    retransmissions_.inc();
    HOURS_TRACE_EMIT(trace_, {.at = network_.sim->now(),
                              .type = trace::EventType::kRetry,
                              .node = q.at,
                              .peer = tried,
                              .causal = qid,
                              .value = q.attempts});
    const Ticks base = base_backoff(q.attempts);
    const double factor = 1.0 - config_.jitter + 2.0 * config_.jitter * jitter_rng_.uniform();
    const Ticks delay =
        std::max<Ticks>(1, static_cast<Ticks>(static_cast<double>(base) * factor));
    network_.sim->schedule(delay, snapshot::kClientRetransmit, &qid, 1);
    return;
  }

  // Retry budget spent: infer death, fail over to the next pointer.
  suspect(tried);
  ++q.out.failovers;
  failovers_.inc();
  advance(qid, q);
}

}  // namespace hours::sim
