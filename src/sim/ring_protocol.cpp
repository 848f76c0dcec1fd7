#include "sim/ring_protocol.hpp"

#include "overlay/forwarding.hpp"
#include "overlay/table_builder.hpp"
#include "rng/splitmix64.hpp"
#include "snapshot/event_kinds.hpp"
#include "snapshot/registry_io.hpp"
#include "util/contracts.hpp"
#include "util/log.hpp"

namespace hours::sim {

namespace {

TransportConfig transport_config(const RingSimConfig& config) {
  TransportConfig t;
  t.latency_min = config.latency_min;
  t.latency_max = config.latency_max;
  t.ack_timeout = config.ack_timeout;
  t.loss_probability = config.loss_probability;
  return t;
}

}  // namespace

RingSimulation::RingSimulation(RingSimConfig config)
    : config_(config),
      rng_(rng::mix64(config.seed, 0x70726F746FULL)),
      transport_(sim_, transport_config(config), config.size, config.seed, &encode_message,
                 &decode_message),
      liveness_(config.liveness, /*suspicion_ttl=*/0),
      probes_sent_(registry_.counter("ring.probes_sent")),
      repairs_sent_(registry_.counter("ring.repairs_sent")),
      claims_sent_(registry_.counter("ring.claims_sent")) {
  HOURS_EXPECTS(config_.size >= 3);
  config_.params.validate();

  nodes_.resize(config_.size);
  for (ids::RingIndex i = 0; i < config_.size; ++i) {
    Node& node = nodes_[i];
    node.table = overlay::build_routing_table(config_.size, i, config_.params);
    node.cw_succ = ids::clockwise_step(i, 1, config_.size);
    node.ccw = ids::counter_clockwise_step(i, 1, config_.size);
  }
  transport_.set_handler(
      [this](std::uint32_t to, const Transport<Message>::Envelope& env) {
        handle(static_cast<ids::RingIndex>(to), env.from, env.payload);
      });
  // Probe timers, continuations and query starts are described events of
  // the ring block: live, restored and ack/timeout-settled alike run here.
  sim_.set_runner(snapshot::kRingProbeTimer,
                  [this](std::uint32_t kind, const std::uint64_t* args, std::size_t count) {
                    run_continuation(kind, args, count);
                  });
  if (liveness_.gossip_enabled()) {
    digests_sent_ = registry_.counter("ring.liveness_digests_sent");
    digest_entries_sent_ = registry_.counter("ring.liveness_digest_entries_sent");
    gossip_adopted_ = registry_.counter("ring.liveness_gossip_adopted");
    transport_.set_digest_hooks(
        [this](std::uint32_t from, std::uint32_t /*to*/, std::vector<std::uint64_t>& out) {
          build_digest_words(static_cast<ids::RingIndex>(from), out);
        },
        [this](std::uint32_t to, std::uint32_t from, const std::uint64_t* words,
               std::size_t count) {
          apply_digest_words(static_cast<ids::RingIndex>(to),
                             static_cast<ids::RingIndex>(from), words, count);
        });
  }
}

void RingSimulation::start() {
  for (ids::RingIndex i = 0; i < config_.size; ++i) {
    schedule_probe(i, rng_.below(config_.probe_period));  // staggered
  }
}

void RingSimulation::kill(ids::RingIndex i) {
  HOURS_EXPECTS(i < config_.size);
  nodes_[i].alive = false;
  transport_.set_alive(i, false);
}

void RingSimulation::revive(ids::RingIndex i) {
  HOURS_EXPECTS(i < config_.size);
  Node& node = nodes_[i];
  node.alive = true;
  transport_.set_alive(i, true);
  liveness_.clear_observer(i);
  node.ccw_suspected = false;
  node.awaiting_claim = false;
}

bool RingSimulation::alive(ids::RingIndex i) const {
  HOURS_EXPECTS(i < config_.size);
  return nodes_[i].alive;
}

ids::RingIndex RingSimulation::cw_successor(ids::RingIndex i) const {
  HOURS_EXPECTS(i < config_.size);
  return nodes_[i].cw_succ;
}

ids::RingIndex RingSimulation::ccw_neighbor(ids::RingIndex i) const {
  HOURS_EXPECTS(i < config_.size);
  return nodes_[i].ccw;
}

bool RingSimulation::suspects(ids::RingIndex i, ids::RingIndex peer) const {
  HOURS_EXPECTS(i < config_.size && peer < config_.size);
  return liveness_.contains(i, peer);
}

bool RingSimulation::ring_connected() const {
  ids::RingIndex start = config_.size;
  std::uint32_t alive_total = 0;
  for (ids::RingIndex i = 0; i < config_.size; ++i) {
    if (nodes_[i].alive) {
      ++alive_total;
      if (start == config_.size) start = i;
    }
  }
  if (alive_total == 0) return false;

  std::uint32_t visited = 0;
  ids::RingIndex at = start;
  do {
    if (!nodes_[at].alive) return false;  // pointer leads into a dead node
    ++visited;
    if (visited > alive_total) return false;  // short cycle that skips nodes
    at = nodes_[at].cw_succ;
  } while (at != start);
  return visited == alive_total;
}

// -- continuations -----------------------------------------------------------------

void RingSimulation::encode_message(const Message& msg, std::vector<std::uint64_t>& out) {
  out.push_back(static_cast<std::uint64_t>(msg.type));
  out.push_back(msg.origin);
  out.push_back(msg.qid);
  out.push_back(msg.od);
  out.push_back(static_cast<std::uint64_t>(msg.backward ? 1 : 0));
  out.push_back(msg.hops);
}

RingSimulation::Message RingSimulation::decode_message(const std::uint64_t* words,
                                                       std::size_t count) {
  HOURS_EXPECTS(count == 6);
  Message msg;
  msg.type = static_cast<Message::Type>(words[0]);
  msg.origin = static_cast<ids::RingIndex>(words[1]);
  msg.qid = words[2];
  msg.od = static_cast<ids::RingIndex>(words[3]);
  msg.backward = words[4] != 0;
  msg.hops = static_cast<std::uint32_t>(words[5]);
  return msg;
}

void RingSimulation::run_continuation(std::uint32_t kind, const std::uint64_t* args,
                                      std::size_t count) {
  const auto arg = [args, count](std::size_t k) {
    HOURS_EXPECTS(k < count);
    return static_cast<ids::RingIndex>(args[k]);
  };
  const auto tail = [args, count](std::size_t from) {
    std::vector<ids::RingIndex> out;
    for (std::size_t k = from; k < count; ++k) {
      out.push_back(static_cast<ids::RingIndex>(args[k]));
    }
    return out;
  };

  switch (kind) {
    case snapshot::kRingProbeTimer:
      probe_cycle(arg(0));
      break;
    case snapshot::kRingCwProbeAck:
      nodes_[arg(0)].cw_miss_count = 0;
      break;
    case snapshot::kRingCwProbeTimeout:
      cw_probe_timeout(arg(0), arg(1));
      break;
    case snapshot::kRingCcwProbeAck: {
      Node& node = nodes_[arg(0)];
      node.ccw_suspected = false;
      node.ccw_miss_count = 0;
      break;
    }
    case snapshot::kRingCcwProbeTimeout:
      ccw_probe_timeout(arg(0), arg(1));
      break;
    case snapshot::kRingRecoveredAck:
      on_suspect_recovered(arg(0), arg(1));
      break;
    case snapshot::kRingAdvanceAck:
      advance_ack(arg(0), arg(1));
      break;
    case snapshot::kRingAdvanceTimeout: {
      const ids::RingIndex i = arg(0);
      const ids::RingIndex candidate = arg(1);
      HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                                .type = trace::EventType::kProbeFailed,
                                .node = i,
                                .peer = candidate});
      suspect_peer(i, candidate);
      advance_cw_successor(i, tail(2));
      break;
    }
    case snapshot::kRingCcwSilenceCheck:
      ccw_silence_check(arg(0));
      break;
    case snapshot::kRingRepairTimeout: {
      const ids::RingIndex at = arg(0);
      const ids::RingIndex origin = arg(1);
      HOURS_EXPECTS(count > 2);
      const std::uint64_t rid = args[2];
      const ids::RingIndex tried = arg(3);
      suspect_peer(at, tried);
      repair_attempt(at, origin, rid, tail(4));
      break;
    }
    case snapshot::kRingQueryStart: {
      HOURS_EXPECTS(count == 7);
      process_query(arg(0), decode_message(args + 1, 6));
      break;
    }
    case snapshot::kRingQueryHopTimeout: {
      HOURS_EXPECTS(count >= 8);
      const ids::RingIndex at = arg(0);
      const ids::RingIndex tried = arg(1);
      const Message msg = decode_message(args + 2, 6);
      suspect_peer(at, tried);
      try_query_candidates(at, msg, tail(8));
      break;
    }
    default:
      HOURS_EXPECTS(!"unknown ring continuation kind");
  }
}

// -- transport ------------------------------------------------------------------

void RingSimulation::handle(ids::RingIndex at, ids::RingIndex from, const Message& msg) {
  Node& node = nodes_[at];

  // Hearing from a peer proves it alive. If we suspected it, its
  // reappearance may have invalidated our ring geometry (it revived, or a
  // partition healed): run the full adopt/re-merge check, not a silent
  // erase — otherwise a revived predecessor that probes us first would be
  // unsuspected here and the stale ccw pointer would never be repaired.
  if (liveness_.contains(at, from)) on_suspect_recovered(at, from);

  switch (msg.type) {
    case Message::Type::kProbe: {
      // A probe from a strictly closer counter-clockwise node is an implicit
      // neighbor claim: the prober believes we are its clockwise successor.
      // Accepting it repairs the stale-predecessor state left behind when a
      // node we recovered around comes back (revival, healed partition) with
      // its own pointers intact — it will probe us but never re-claim.
      if (ids::counter_clockwise_distance(at, from, config_.size) <
          ids::counter_clockwise_distance(at, node.ccw, config_.size)) {
        if (node.ccw_suspected) {
          HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                                    .type = trace::EventType::kRecoveryComplete,
                                    .node = at,
                                    .peer = from});
        }
        node.ccw = from;
        node.ccw_suspected = false;
        node.awaiting_claim = false;
        node.ccw_miss_count = 0;
      }
      // Besides the transport-level ack, report our counter-clockwise
      // pointer: Chord-style stabilization. If the prober over-skipped us
      // (a loss-induced false suspicion made it adopt a farther successor),
      // this is how it finds its way back to the nearest alive node.
      Message info;
      info.type = Message::Type::kCcwInfo;
      info.origin = node.ccw;
      transport_.post(at, from, info);
      break;
    }
    case Message::Type::kCcwInfo: {
      // `from` is (normally) our successor telling us who precedes it. If
      // that node sits strictly between us and our current successor, probe
      // it and adopt it on response.
      const ids::RingIndex suggested = msg.origin;
      if (from != node.cw_succ || suggested == at) break;
      if (ids::clockwise_distance(at, suggested, config_.size) >=
          ids::clockwise_distance(at, node.cw_succ, config_.size)) {
        break;
      }
      // The recovery check subsumes the adopt-if-closer logic this handler
      // used to inline, and additionally repairs the ccw side.
      send_probe(at, suggested,
                 snapshot::Described{snapshot::kRingRecoveredAck, {at, suggested}},
                 snapshot::Described{});
      break;
    }
    case Message::Type::kNeighborClaim: {
      // `from` asserts it is our closest alive counter-clockwise neighbor.
      // Accept if our current pointer is suspect, or the claimant sits
      // strictly closer counter-clockwise.
      const auto current = ids::counter_clockwise_distance(at, node.ccw, config_.size);
      const auto offered = ids::counter_clockwise_distance(at, from, config_.size);
      if (node.ccw_suspected || offered < current) {
        if (node.ccw_suspected) {
          HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                                    .type = trace::EventType::kRecoveryComplete,
                                    .node = at,
                                    .peer = from,
                                    .causal = msg.qid});
        }
        node.ccw = from;
        node.ccw_suspected = false;
        node.awaiting_claim = false;
        node.ccw_miss_count = 0;
      }
      break;
    }
    case Message::Type::kRepair:
      forward_repair(at, msg.origin, msg.qid);
      break;
    case Message::Type::kQuery:
      process_query(at, msg);
      break;
    case Message::Type::kClientHop:
      // Custody transfer for an externally driven query: the transport-level
      // ack already told the client this node is serving; nothing to do.
      break;
  }
}

// -- probing & recovery ------------------------------------------------------------

void RingSimulation::send_probe(ids::RingIndex from, ids::RingIndex to,
                                snapshot::Described on_ack, snapshot::Described on_timeout) {
  Message probe;
  probe.type = Message::Type::kProbe;
  probes_sent_.inc();
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kProbeSent,
                            .node = from,
                            .peer = to});
  transport_.send_expect_ack(from, to, probe, std::move(on_ack), std::move(on_timeout));
}

void RingSimulation::schedule_probe(ids::RingIndex i, Ticks delay) {
  const std::uint64_t node = i;
  sim_.schedule(delay, snapshot::kRingProbeTimer, &node, 1);
}

void RingSimulation::probe_cycle(ids::RingIndex i) {
  Node& node = nodes_[i];
  if (!node.alive) {
    schedule_probe(i, config_.probe_period);  // dormant; resumes if revived
    return;
  }

  // Probe the clockwise successor; on silence, walk the table for the next
  // responsive sibling (conventional neighborhood recovery).
  send_probe(i, node.cw_succ, snapshot::Described{snapshot::kRingCwProbeAck, {i}},
             snapshot::Described{snapshot::kRingCwProbeTimeout, {i, node.cw_succ}});

  // Probe the counter-clockwise neighbor; on silence, wait one probe period
  // for a NeighborClaim before inferring massive failure (Section 4.3).
  send_probe(i, node.ccw, snapshot::Described{snapshot::kRingCcwProbeAck, {i}},
             snapshot::Described{snapshot::kRingCcwProbeTimeout, {i, node.ccw}});

  // Suspicion refresh: a recovered peer (revived, or back in reach after a
  // partition healed) is re-adopted or triggers active recovery on ack —
  // what re-merges two self-healed half-rings once a partition lifts.
  if (!liveness_.observer_empty(i)) refresh_suspected(i);

  schedule_probe(i, config_.probe_period);
}

void RingSimulation::cw_probe_timeout(ids::RingIndex i, ids::RingIndex succ) {
  Node& self = nodes_[i];
  if (!self.alive || self.cw_succ != succ) return;
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kProbeFailed,
                            .node = i,
                            .peer = succ});
  if (++self.cw_miss_count < config_.probe_failure_threshold) return;
  self.cw_miss_count = 0;
  suspect_peer(i, succ);
  // Candidates: remaining table entries in increasing clockwise distance.
  std::vector<ids::RingIndex> candidates;
  for (const auto& entry : self.table.entries()) {
    if (entry.sibling != succ && !liveness_.contains(i, entry.sibling)) {
      candidates.push_back(entry.sibling);
    }
  }
  advance_cw_successor(i, std::move(candidates));
}

void RingSimulation::ccw_probe_timeout(ids::RingIndex i, ids::RingIndex ccw) {
  Node& self = nodes_[i];
  if (!self.alive || self.ccw != ccw) return;
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kProbeFailed,
                            .node = i,
                            .peer = ccw});
  if (++self.ccw_miss_count < config_.probe_failure_threshold) return;
  self.ccw_miss_count = 0;
  if (self.awaiting_claim) return;  // a silence check is pending
  // Re-armed on every silent probe period: if a Repair or its closing
  // NeighborClaim is lost in transit, the next period simply tries again
  // until the ring closes.
  self.ccw_suspected = true;
  self.awaiting_claim = true;
  const std::uint64_t node = i;
  self.awaiting_check_event =
      sim_.schedule(config_.probe_period, snapshot::kRingCcwSilenceCheck, &node, 1);
}

void RingSimulation::refresh_suspected(ids::RingIndex i) {
  Node& node = nodes_[i];
  // Round-robin: every suspected peer is re-checked within |suspected|
  // probe periods, however the set churns in between.
  const ids::RingIndex target = liveness_.next_at_or_after(i, node.refresh_cursor);
  node.refresh_cursor = target + 1;
  send_probe(i, target, snapshot::Described{snapshot::kRingRecoveredAck, {i, target}},
             snapshot::Described{});  // still silent: stays suspected
}

void RingSimulation::on_suspect_recovered(ids::RingIndex i, ids::RingIndex peer) {
  Node& node = nodes_[i];
  if (!node.alive) return;
  liveness_.clear(i, peer);

  // Clockwise side: the recovered peer may sit between us and the successor
  // we advanced to while it was unreachable — adopt it and claim the
  // neighborship, exactly as conventional recovery would have.
  if (ids::clockwise_distance(i, peer, config_.size) <
      ids::clockwise_distance(i, node.cw_succ, config_.size)) {
    node.cw_succ = peer;
    node.cw_miss_count = 0;
    Message claim;
    claim.type = Message::Type::kNeighborClaim;
    claims_sent_.inc();
    transport_.send_expect_ack(i, peer, claim, snapshot::Described{}, snapshot::Described{});
  }

  // Counter-clockwise side: a recovered peer closer than the current ccw
  // neighbor means the predecessor geometry is stale — the signature state
  // after a partition heals, when each half has closed into its own ring
  // and the true predecessor sits in the other half. Re-run Section 4.3
  // active recovery: the Repair routes toward us through the re-merged
  // topology, the node that cannot forward it closer attaches, and the two
  // half-rings fuse back into one.
  if (ids::counter_clockwise_distance(i, peer, config_.size) <
      ids::counter_clockwise_distance(i, node.ccw, config_.size)) {
    start_active_recovery(i);
  }
}

void RingSimulation::advance_cw_successor(ids::RingIndex i,
                                          std::vector<ids::RingIndex> candidates) {
  Node& node = nodes_[i];
  if (!node.alive) return;
  if (candidates.empty()) {
    // Whole known clockwise side is silent; the far side of the gap will
    // reach us through active recovery.
    return;
  }
  const ids::RingIndex candidate = candidates.front();
  candidates.erase(candidates.begin());

  snapshot::Described timeout{snapshot::kRingAdvanceTimeout, {i, candidate}};
  timeout.args.insert(timeout.args.end(), candidates.begin(), candidates.end());
  send_probe(i, candidate, snapshot::Described{snapshot::kRingAdvanceAck, {i, candidate}},
             std::move(timeout));
}

void RingSimulation::advance_ack(ids::RingIndex i, ids::RingIndex candidate) {
  Node& self = nodes_[i];
  // Active recovery may have attached a closer successor while this walk's
  // probe was in flight; the stale walk must not skip back over it.
  if (!self.alive || !adopts_successor(i, candidate)) return;
  self.cw_succ = candidate;
  Message claim;
  claim.type = Message::Type::kNeighborClaim;
  claims_sent_.inc();
  transport_.send_expect_ack(i, candidate, claim, snapshot::Described{},
                             snapshot::Described{});
}

void RingSimulation::ccw_silence_check(ids::RingIndex i) {
  Node& node = nodes_[i];
  if (!node.alive || !node.awaiting_claim) return;
  node.awaiting_claim = false;
  start_active_recovery(i);
}

void RingSimulation::start_active_recovery(ids::RingIndex origin) {
  repairs_sent_.inc();
  const std::uint64_t rid = next_rid_++;
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kRecoveryStart,
                            .node = origin,
                            .causal = rid});
  HOURS_LOG_DEBUG("node %u starts active recovery", origin);
  forward_repair(origin, origin, rid);
}

void RingSimulation::forward_repair(ids::RingIndex at, ids::RingIndex origin,
                                    std::uint64_t rid) {
  const Node& node = nodes_[at];
  if (!node.alive) return;

  // Both Figure-3 rules reduce to Algorithm 3's greedy walk: the unsuspected
  // entries that make clockwise progress toward the originator, nearest
  // first, never the originator itself (that is the "second best choice"
  // when the originator is in the table); the originator's own distance is
  // the full circle. When nothing responds, this node is the far edge of
  // the gap — attach.
  const std::uint32_t distance =
      at == origin ? config_.size : ids::clockwise_distance(at, origin, config_.size);
  std::vector<ids::RingIndex> candidates;
  overlay::greedy_walk(node.table, distance, [&](ids::RingIndex sibling) {
    if (!liveness_.contains(at, sibling)) candidates.push_back(sibling);
    return false;
  });
  repair_attempt(at, origin, rid, std::move(candidates));
}

void RingSimulation::repair_attempt(ids::RingIndex at, ids::RingIndex origin,
                                    std::uint64_t rid,
                                    std::vector<ids::RingIndex> remaining) {
  if (!nodes_[at].alive) return;
  if (remaining.empty()) {
    attach_repair(at, origin, rid);
    return;
  }
  const ids::RingIndex next = remaining.front();
  remaining.erase(remaining.begin());
  Message repair;
  repair.type = Message::Type::kRepair;
  repair.origin = origin;
  repair.qid = rid;
  snapshot::Described timeout{snapshot::kRingRepairTimeout, {at, origin, rid, next}};
  timeout.args.insert(timeout.args.end(), remaining.begin(), remaining.end());
  transport_.send_expect_ack(at, next, repair, snapshot::Described{}, std::move(timeout));
}

void RingSimulation::attach_repair(ids::RingIndex at, ids::RingIndex origin,
                                   std::uint64_t rid) {
  Node& node = nodes_[at];
  if (at == origin) return;

  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kRecoveryAdopt,
                            .node = at,
                            .peer = origin,
                            .causal = rid});

  // "It creates a new routing entry for node s+1": the gap's far edge now
  // points at the originator and claims the counter-clockwise neighborship.
  node.table.insert_entry(overlay::TableEntry{origin, {}});
  if (adopts_successor(at, origin)) node.cw_succ = origin;
  Message claim;
  claim.type = Message::Type::kNeighborClaim;
  claim.qid = rid;  // lets the originator's acceptance close the trace span
  claims_sent_.inc();
  transport_.send_expect_ack(at, origin, claim, snapshot::Described{}, snapshot::Described{});
}

bool RingSimulation::adopts_successor(ids::RingIndex i, ids::RingIndex candidate) const {
  const ids::RingIndex current = nodes_[i].cw_succ;
  return liveness_.contains(i, current) ||
         ids::clockwise_distance(i, candidate, config_.size) <
             ids::clockwise_distance(i, current, config_.size);
}

void RingSimulation::suspect_peer(ids::RingIndex i, ids::RingIndex peer) {
  if (liveness_.suspect(i, peer, sim_.now())) {
    HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                              .type = trace::EventType::kSuspect,
                              .node = i,
                              .peer = peer});
  }
}

// -- gossip evidence source ---------------------------------------------------------

void RingSimulation::build_digest_words(ids::RingIndex from,
                                        std::vector<std::uint64_t>& out) {
  const std::size_t entries = liveness_.append_digest(from, sim_.now(), out);
  if (entries == 0) return;
  digests_sent_->inc();
  digest_entries_sent_->inc(entries);
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kLivenessDigestSent,
                            .node = from,
                            .value = entries});
}

void RingSimulation::apply_digest_words(ids::RingIndex at, ids::RingIndex from,
                                        const std::uint64_t* words, std::size_t count) {
  if (!nodes_[at].alive) return;
  const Ticks now = sim_.now();
  const std::uint64_t adopted = liveness_.adopt_digest(
      at, from, words, count, 0, config_.size, now, [&](ids::RingIndex peer, Ticks since) {
        gossip_adopted_->inc();
        HOURS_TRACE_EMIT(trace_, {.at = now,
                                  .type = trace::EventType::kLivenessGossipSuspect,
                                  .node = at,
                                  .peer = peer,
                                  .value = since});
      });
  HOURS_TRACE_EMIT(trace_, {.at = now,
                            .type = trace::EventType::kLivenessDigestApplied,
                            .node = at,
                            .peer = from,
                            .value = adopted});
}

// -- queries ------------------------------------------------------------------------

std::uint64_t RingSimulation::inject_query(ids::RingIndex from, ids::RingIndex od) {
  HOURS_EXPECTS(from < config_.size && od < config_.size);
  HOURS_EXPECTS(nodes_[from].alive);
  const std::uint64_t qid = next_qid_++;
  queries_[qid] = QueryOutcome{};
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kQuerySubmit,
                            .node = from,
                            .peer = od,
                            .causal = qid});

  Message query;
  query.type = Message::Type::kQuery;
  query.qid = qid;
  query.od = od;
  snapshot::Described start{snapshot::kRingQueryStart, {from}};
  encode_message(query, start.args);
  sim_.schedule(0, start);
  return qid;
}

const RingSimulation::QueryOutcome& RingSimulation::query(std::uint64_t qid) const {
  const auto it = queries_.find(qid);
  HOURS_EXPECTS(it != queries_.end());
  return it->second;
}

void RingSimulation::finish_query(std::uint64_t qid, bool delivered, std::uint32_t hops) {
  auto& outcome = queries_[qid];
  outcome.done = true;
  outcome.delivered = delivered;
  outcome.hops = hops;
  outcome.completed_at = sim_.now();
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = delivered ? trace::EventType::kQueryDelivered
                                              : trace::EventType::kQueryFailed,
                            .causal = qid,
                            .value = hops});
}

std::vector<ids::RingIndex> RingSimulation::route_candidates(ids::RingIndex at,
                                                             ids::RingIndex od,
                                                             bool& backward) const {
  HOURS_EXPECTS(at < config_.size && od < config_.size);
  const Node& node = nodes_[at];
  std::vector<ids::RingIndex> candidates;
  if (backward) {
    // Backward mode steps to the counter-clockwise neighbor ring
    // maintenance keeps, without re-running rule 1 (docs/PROTOCOL.md §7).
    if (!liveness_.contains(at, node.ccw)) candidates.push_back(node.ccw);
    return candidates;
  }
  overlay::offer_candidates(
      {.table = node.table,
       .od = od,
       .design = config_.params.design,
       .nephews = false,  // ring members have no children
       .backward_from = node.ccw},
      backward, [&](overlay::Offer, ids::RingIndex sibling) {
        if (liveness_.contains(at, sibling)) return overlay::Verdict::kSkip;
        candidates.push_back(sibling);
        return overlay::Verdict::kKeep;
      });
  return candidates;
}

void RingSimulation::client_attempt(ids::RingIndex at, ids::RingIndex to,
                                    std::function<void()> on_ack,
                                    std::function<void()> on_timeout) {
  HOURS_EXPECTS(at < config_.size && to < config_.size);
  Message hop;
  hop.type = Message::Type::kClientHop;
  transport_.send_expect_ack(at, to, hop, std::move(on_ack), std::move(on_timeout));
}

void RingSimulation::process_query(ids::RingIndex at, Message msg) {
  Node& node = nodes_[at];
  if (!node.alive) return;

  if (at == msg.od) {
    finish_query(msg.qid, true, msg.hops);
    return;
  }

  auto candidates = route_candidates(at, msg.od, msg.backward);
  if (candidates.empty()) {
    finish_query(msg.qid, false, msg.hops);
    return;
  }
  try_query_candidates(at, msg, std::move(candidates));
}

void RingSimulation::try_query_candidates(ids::RingIndex at, Message msg,
                                          std::vector<ids::RingIndex> candidates) {
  if (!nodes_[at].alive) return;
  if (candidates.empty()) {
    // Everything we tried timed out; re-run the decision with the updated
    // suspicion set (it may flip the query to backward mode).
    process_query(at, msg);
    return;
  }
  const ids::RingIndex next = candidates.front();
  candidates.erase(candidates.begin());

  Message forwarded = msg;
  forwarded.hops += 1;
  if (forwarded.hops > 4 * config_.size) {
    finish_query(msg.qid, false, msg.hops);
    return;
  }
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = msg.backward ? trace::EventType::kBackwardHop
                                                 : trace::EventType::kRingHop,
                            .node = at,
                            .peer = next,
                            .causal = msg.qid,
                            .value = forwarded.hops});
  // The timeout carries the PRE-hop message: the retry re-decides from the
  // state the failed attempt saw.
  snapshot::Described timeout{snapshot::kRingQueryHopTimeout, {at, next}};
  encode_message(msg, timeout.args);
  timeout.args.insert(timeout.args.end(), candidates.begin(), candidates.end());
  transport_.send_expect_ack(at, next, forwarded, snapshot::Described{}, std::move(timeout));
}

// -- snapshot (snapshot::Participant) ------------------------------------------------

snapshot::Json RingSimulation::save_state(std::string& error) const {
  using snapshot::Json;
  Json transport = transport_.save_state(error);
  if (!error.empty()) return Json::object();

  Json out = Json::object();

  // Config echo: a snapshot only restores into an identically configured
  // simulation (routing tables and transport seeds must regenerate equal).
  Json cfg = Json::object();
  cfg["size"] = Json(static_cast<std::uint64_t>(config_.size));
  cfg["design"] = Json(static_cast<std::uint64_t>(config_.params.design));
  cfg["k"] = Json(static_cast<std::uint64_t>(config_.params.k));
  cfg["q"] = Json(static_cast<std::uint64_t>(config_.params.q));
  cfg["table_seed"] = Json(config_.params.seed);
  cfg["seed"] = Json(config_.seed);
  cfg["probe_period"] = Json(config_.probe_period);
  cfg["ack_timeout"] = Json(config_.ack_timeout);
  // Gossip mode extends the echo (and the per-node suspicion rows below);
  // probe-only snapshots keep the legacy byte layout exactly.
  if (liveness_.gossip_enabled()) {
    cfg["liveness_mode"] = Json(std::uint64_t{1});
    cfg["digest_budget"] = Json(static_cast<std::uint64_t>(liveness_.config().digest_budget));
    cfg["digest_horizon"] = Json(liveness_.config().digest_horizon);
  }
  out["config"] = std::move(cfg);

  Json rng = Json::array();
  for (const auto word : rng_.state()) rng.push(Json(word));
  out["rng"] = std::move(rng);
  out["next_qid"] = Json(next_qid_);
  out["next_rid"] = Json(next_rid_);

  Json nodes = Json::array();
  for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
    const Node& node = nodes_[idx];
    Json n = Json::object();
    n["alive"] = Json(static_cast<std::uint64_t>(node.alive ? 1 : 0));
    n["cw_succ"] = Json(static_cast<std::uint64_t>(node.cw_succ));
    n["ccw"] = Json(static_cast<std::uint64_t>(node.ccw));
    n["ccw_suspected"] = Json(static_cast<std::uint64_t>(node.ccw_suspected ? 1 : 0));
    n["awaiting_claim"] = Json(static_cast<std::uint64_t>(node.awaiting_claim ? 1 : 0));
    n["cw_miss"] = Json(static_cast<std::uint64_t>(node.cw_miss_count));
    n["ccw_miss"] = Json(static_cast<std::uint64_t>(node.ccw_miss_count));
    n["awaiting_check_event"] = Json(node.awaiting_check_event);
    n["refresh_cursor"] = Json(static_cast<std::uint64_t>(node.refresh_cursor));
    // Suspicion rows, ascending peer: bare peers in probe-only mode (the
    // legacy set serialization), [peer, since, source] triples under gossip
    // so a restored run re-ages and re-broadcasts rumors identically.
    Json suspected = Json::array();
    const auto observer = static_cast<liveness::NodeId>(idx);
    if (liveness_.gossip_enabled()) {
      liveness_.for_each_observer(observer,
                                  [&suspected](liveness::NodeId peer,
                                               const liveness::Entry& entry) {
        Json row = Json::array();
        row.push(Json(static_cast<std::uint64_t>(peer)));
        row.push(Json(entry.since));
        row.push(Json(static_cast<std::uint64_t>(entry.source)));
        suspected.push(std::move(row));
      });
    } else {
      liveness_.for_each_observer(observer,
                                  [&suspected](liveness::NodeId peer,
                                               const liveness::Entry&) {
        suspected.push(Json(static_cast<std::uint64_t>(peer)));
      });
    }
    n["suspected"] = std::move(suspected);
    // Table: entries as [sibling, nephews...] rows in stored (distance)
    // order; ccw pointer as a 0/1-element array (optional).
    Json entries = Json::array();
    for (const auto& entry : node.table.entries()) {
      Json row = Json::array();
      row.push(Json(static_cast<std::uint64_t>(entry.sibling)));
      for (const auto nephew : entry.nephews) {
        row.push(Json(static_cast<std::uint64_t>(nephew)));
      }
      entries.push(std::move(row));
    }
    Json table = Json::object();
    table["entries"] = std::move(entries);
    Json ccw_ptr = Json::array();
    if (node.table.ccw_neighbor().has_value()) {
      ccw_ptr.push(Json(static_cast<std::uint64_t>(*node.table.ccw_neighbor())));
    }
    table["ccw_neighbor"] = std::move(ccw_ptr);
    n["table"] = std::move(table);
    nodes.push(std::move(n));
  }
  out["nodes"] = std::move(nodes);

  Json queries = Json::array();
  for (const auto& [qid, outcome] : queries_) {
    Json row = Json::array();
    row.push(Json(qid));
    row.push(Json(static_cast<std::uint64_t>(outcome.done ? 1 : 0)));
    row.push(Json(static_cast<std::uint64_t>(outcome.delivered ? 1 : 0)));
    row.push(Json(static_cast<std::uint64_t>(outcome.hops)));
    row.push(Json(outcome.completed_at));
    queries.push(std::move(row));
  }
  out["queries"] = std::move(queries);

  out["registry"] = snapshot::registry_to_json(registry_);
  out["transport"] = std::move(transport);
  return out;
}

std::string RingSimulation::restore_state(const snapshot::Json& state) {
  using snapshot::Json;
  const auto u64_field = [&state](const char* key, std::uint64_t& out) {
    const Json* v = state.find(key);
    if (v == nullptr || !v->is_u64()) return false;
    out = v->as_u64();
    return true;
  };

  const Json* cfg = state.find("config");
  if (cfg == nullptr || !cfg->is_object()) return "ring.config missing";
  const auto cfg_is = [cfg](const char* key, std::uint64_t expect) {
    const Json* v = cfg->find(key);
    return v != nullptr && v->is_u64() && v->as_u64() == expect;
  };
  if (!cfg_is("size", config_.size) ||
      !cfg_is("design", static_cast<std::uint64_t>(config_.params.design)) ||
      !cfg_is("k", config_.params.k) || !cfg_is("q", config_.params.q) ||
      !cfg_is("table_seed", config_.params.seed) || !cfg_is("seed", config_.seed) ||
      !cfg_is("probe_period", config_.probe_period) ||
      !cfg_is("ack_timeout", config_.ack_timeout)) {
    return "ring.config does not match this simulation's configuration";
  }
  if (liveness_.gossip_enabled() &&
      (!cfg_is("liveness_mode", 1) ||
       !cfg_is("digest_budget", liveness_.config().digest_budget) ||
       !cfg_is("digest_horizon", liveness_.config().digest_horizon))) {
    return "ring.config liveness settings do not match this simulation's configuration";
  }

  const Json* rng = state.find("rng");
  if (rng == nullptr || !rng->is_array() || rng->items().size() != 4) {
    return "ring.rng missing or malformed";
  }
  const Json* nodes = state.find("nodes");
  if (nodes == nullptr || !nodes->is_array() || nodes->items().size() != nodes_.size()) {
    return "ring.nodes missing or wrong node count";
  }
  const Json* queries = state.find("queries");
  if (queries == nullptr || !queries->is_array()) return "ring.queries missing";
  const Json* registry = state.find("registry");
  if (registry == nullptr) return "ring.registry missing";
  const Json* transport = state.find("transport");
  if (transport == nullptr) return "ring.transport missing";
  if (!u64_field("next_qid", next_qid_)) return "ring.next_qid missing";
  if (!u64_field("next_rid", next_rid_)) return "ring.next_rid missing";

  rng::Xoshiro256::State words{};
  for (std::size_t i = 0; i < 4; ++i) words[i] = rng->items()[i].as_u64();
  rng_.set_state(words);

  liveness_.clear_all();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Json& n = nodes->items()[i];
    if (!n.is_object()) return "ring.nodes entry malformed";
    Node& node = nodes_[i];
    const auto get = [&n](const char* key) -> const Json* {
      const Json* v = n.find(key);
      return (v != nullptr && v->is_u64()) ? v : nullptr;
    };
    const Json* alive = get("alive");
    const Json* cw_succ = get("cw_succ");
    const Json* ccw = get("ccw");
    const Json* ccw_suspected = get("ccw_suspected");
    const Json* awaiting_claim = get("awaiting_claim");
    const Json* cw_miss = get("cw_miss");
    const Json* ccw_miss = get("ccw_miss");
    const Json* check_event = get("awaiting_check_event");
    const Json* refresh_cursor = get("refresh_cursor");
    const Json* suspected = n.find("suspected");
    const Json* table = n.find("table");
    if (alive == nullptr || cw_succ == nullptr || ccw == nullptr ||
        ccw_suspected == nullptr || awaiting_claim == nullptr || cw_miss == nullptr ||
        ccw_miss == nullptr || check_event == nullptr || refresh_cursor == nullptr ||
        suspected == nullptr || !suspected->is_array() || table == nullptr ||
        !table->is_object()) {
      return "ring.nodes entry malformed";
    }
    if (cw_succ->as_u64() >= config_.size || ccw->as_u64() >= config_.size) {
      return "ring.nodes pointer out of range";
    }
    node.alive = alive->as_u64() != 0;
    node.cw_succ = static_cast<ids::RingIndex>(cw_succ->as_u64());
    node.ccw = static_cast<ids::RingIndex>(ccw->as_u64());
    node.ccw_suspected = ccw_suspected->as_u64() != 0;
    node.awaiting_claim = awaiting_claim->as_u64() != 0;
    node.cw_miss_count = static_cast<std::uint32_t>(cw_miss->as_u64());
    node.ccw_miss_count = static_cast<std::uint32_t>(ccw_miss->as_u64());
    node.awaiting_check_event = check_event->as_u64();
    node.refresh_cursor = static_cast<ids::RingIndex>(refresh_cursor->as_u64());
    const auto observer = static_cast<liveness::NodeId>(i);
    if (liveness_.gossip_enabled()) {
      for (const auto& row : suspected->items()) {
        if (!row.is_array() || row.items().size() != 3) {
          return "ring.nodes suspected row malformed";
        }
        const auto& f = row.items();
        if (!f[0].is_u64() || f[0].as_u64() >= config_.size || !f[1].is_u64() ||
            !f[2].is_u64() || f[2].as_u64() > 1) {
          return "ring.nodes suspected row malformed";
        }
        liveness_.restore_row(observer, static_cast<liveness::NodeId>(f[0].as_u64()),
                              liveness::Entry{liveness::kNeverExpires, f[1].as_u64(),
                                              static_cast<liveness::Source>(f[2].as_u64())});
      }
    } else {
      for (const auto& peer : suspected->items()) {
        if (!peer.is_u64() || peer.as_u64() >= config_.size) {
          return "ring.nodes suspected peer malformed";
        }
        liveness_.restore_row(observer, static_cast<liveness::NodeId>(peer.as_u64()),
                              liveness::Entry{});
      }
    }
    const Json* entries = table->find("entries");
    const Json* ccw_ptr = table->find("ccw_neighbor");
    if (entries == nullptr || !entries->is_array() || ccw_ptr == nullptr ||
        !ccw_ptr->is_array() || ccw_ptr->items().size() > 1) {
      return "ring.nodes table malformed";
    }
    overlay::RoutingTable rebuilt{static_cast<ids::RingIndex>(i), config_.size};
    for (const auto& raw : entries->items()) {
      if (!raw.is_array() || raw.items().empty()) return "ring.nodes table row malformed";
      overlay::TableEntry entry;
      for (std::size_t f = 0; f < raw.items().size(); ++f) {
        const Json& v = raw.items()[f];
        if (!v.is_u64() || v.as_u64() >= config_.size) {
          return "ring.nodes table row malformed";
        }
        if (f == 0) {
          entry.sibling = static_cast<ids::RingIndex>(v.as_u64());
        } else {
          entry.nephews.push_back(static_cast<ids::RingIndex>(v.as_u64()));
        }
      }
      rebuilt.add_entry(std::move(entry));
    }
    if (!ccw_ptr->items().empty()) {
      const Json& v = ccw_ptr->items()[0];
      if (!v.is_u64() || v.as_u64() >= config_.size) return "ring.nodes table malformed";
      rebuilt.set_ccw_neighbor(static_cast<ids::RingIndex>(v.as_u64()));
    }
    node.table = std::move(rebuilt);
  }

  queries_.clear();
  for (const auto& raw : queries->items()) {
    if (!raw.is_array() || raw.items().size() != 5) return "ring.queries entry malformed";
    const auto& f = raw.items();
    for (const auto& v : f) {
      if (!v.is_u64()) return "ring.queries entry malformed";
    }
    QueryOutcome outcome;
    outcome.done = f[1].as_u64() != 0;
    outcome.delivered = f[2].as_u64() != 0;
    outcome.hops = static_cast<std::uint32_t>(f[3].as_u64());
    outcome.completed_at = f[4].as_u64();
    queries_.emplace(f[0].as_u64(), outcome);
  }

  if (std::string err = snapshot::registry_from_json(registry_, *registry); !err.empty()) {
    return "ring.registry: " + err;
  }
  if (std::string err = transport_.restore_state(*transport); !err.empty()) {
    return "ring.transport: " + err;
  }
  return "";
}

bool RingSimulation::owns(std::uint32_t kind) const {
  // The ring block, plus the transport block: the transport's state is
  // part of this section.
  const std::uint32_t block = snapshot::kind_block(kind);
  return block == snapshot::kind_block(snapshot::kRingProbeTimer) ||
         block == snapshot::kind_block(snapshot::kTransportDelivery);
}

}  // namespace hours::sim
