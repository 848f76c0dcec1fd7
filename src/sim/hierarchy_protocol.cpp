#include "sim/hierarchy_protocol.hpp"

#include <algorithm>
#include <utility>

#include "ids/ring.hpp"
#include "overlay/forwarding.hpp"
#include "overlay/table_builder.hpp"
#include "snapshot/event_kinds.hpp"
#include "snapshot/registry_io.hpp"
#include "util/contracts.hpp"

namespace hours::sim {

namespace {

std::uint32_t total_nodes(const std::vector<std::uint32_t>& fanout) {
  std::uint64_t total = 1;
  std::uint64_t level_nodes = 1;
  for (const auto f : fanout) {
    level_nodes *= f;
    total += level_nodes;
    HOURS_EXPECTS(total < 5'000'000);  // event engine is for protocol-scale trees
  }
  return static_cast<std::uint32_t>(total);
}

}  // namespace

bool TreeTopology::consistent() const noexcept {
  if (child_counts.empty()) return false;
  std::uint64_t total = 1;
  for (const auto c : child_counts) {
    total += c;
    if (total >= 5'000'000) return false;  // event engine is for protocol-scale trees
  }
  return total == child_counts.size();
}

TreeTopology topology_from_fanout(const std::vector<std::uint32_t>& fanout) {
  TreeTopology topology;
  topology.child_counts.reserve(total_nodes(fanout));
  std::uint64_t level_nodes = 1;
  for (const auto f : fanout) {
    topology.child_counts.insert(topology.child_counts.end(), level_nodes, f);
    level_nodes *= f;
  }
  topology.child_counts.insert(topology.child_counts.end(), level_nodes, 0);  // leaves
  return topology;
}

HierarchySimulation::HierarchySimulation(HierarchySimConfig config)
    : config_(std::move(config)),
      liveness_(config_.liveness, config_.suspicion_ttl),
      transport_(sim_, config_.transport, total_nodes(config_.fanout), config_.seed,
                 &encode_message, &decode_message),
      queries_delivered_(registry_.counter("hier.queries_delivered")),
      queries_failed_(registry_.counter("hier.queries_failed")),
      hop_timeouts_(registry_.counter("hier.hop_timeouts")),
      delivered_hops_(&registry_.histogram("hier.delivered_hops")) {
  HOURS_EXPECTS(!config_.fanout.empty());
  build(topology_from_fanout(config_.fanout));
}

HierarchySimulation::HierarchySimulation(HierarchySimConfig config, const TreeTopology& topology)
    : config_(std::move(config)),
      liveness_(config_.liveness, config_.suspicion_ttl),
      transport_(sim_, config_.transport, static_cast<std::uint32_t>(topology.child_counts.size()),
                 config_.seed, &encode_message, &decode_message),
      queries_delivered_(registry_.counter("hier.queries_delivered")),
      queries_failed_(registry_.counter("hier.queries_failed")),
      hop_timeouts_(registry_.counter("hier.hop_timeouts")),
      delivered_hops_(&registry_.histogram("hier.delivered_hops")) {
  build(topology);
}

void HierarchySimulation::build(const TreeTopology& topology) {
  HOURS_EXPECTS(topology.consistent());
  config_.params.validate();

  // Breadth-first materialization into flat index tables: `child_counts` is
  // indexed by the very ids being assigned (children of node i appear after
  // every node j <= i has placed its children), so a single pass suffices
  // and children of each node get contiguous ids — a sibling set is the id
  // range [sibling_base, sibling_base + ring_size). Five flat vectors is
  // the whole topology; no per-node objects, no paths stored.
  const auto n = static_cast<std::uint32_t>(topology.child_counts.size());
  parent_.assign(n, 0);
  first_child_.assign(n, 0);
  child_count_.assign(n, 0);
  sibling_base_.assign(n, 0);
  ring_size_.assign(n, 1);
  level_.assign(n, 0);
  behavior_.assign(n, static_cast<std::uint8_t>(overlay::NodeBehavior::kHonest));

  std::uint32_t cursor = 1;  // next id to hand out
  for (std::uint32_t id = 0; id < n; ++id) {
    HOURS_EXPECTS(id < cursor);  // counts describe a connected tree
    const std::uint32_t count = topology.child_counts[id];
    if (count == 0) continue;
    first_child_[id] = cursor;
    child_count_[id] = count;
    for (std::uint32_t j = 0; j < count; ++j) {
      const std::uint32_t child = cursor + j;
      parent_[child] = id;
      sibling_base_[child] = cursor;
      ring_size_[child] = count;
      level_[child] = static_cast<std::uint16_t>(level_[id] + 1);
    }
    cursor += count;
  }
  HOURS_EXPECTS(cursor == n);

  transport_.set_handler([this](std::uint32_t to, const Transport<Message>::Envelope& env) {
    handle(to, env.payload);
  });
  // Query starts and attempt timeouts are described events of the
  // hierarchy block: live, restored and ack/timeout-settled alike run here.
  sim_.set_runner(snapshot::kHierQueryStart,
                  [this](std::uint32_t kind, const std::uint64_t* args, std::size_t count) {
                    run_continuation(kind, args, count);
                  });
  if (liveness_.gossip_enabled()) {
    digests_sent_ = registry_.counter("hier.liveness_digests_sent");
    digest_entries_sent_ = registry_.counter("hier.liveness_digest_entries_sent");
    gossip_adopted_ = registry_.counter("hier.liveness_gossip_adopted");
    transport_.set_digest_hooks(
        [this](std::uint32_t from, std::uint32_t /*to*/, std::vector<std::uint64_t>& out) {
          build_digest_words(from, out);
        },
        [this](std::uint32_t to, std::uint32_t from, const std::uint64_t* words,
               std::size_t count) { apply_digest_words(to, from, words, count); });
  }
}

const overlay::RoutingTable& HierarchySimulation::table_of(std::uint32_t id) const {
  const auto it = tables_.find(id);
  if (it != tables_.end()) return it->second;
  if (id == 0) {  // the root has no sibling overlay
    return tables_.emplace(0, overlay::RoutingTable{0, 1}).first->second;
  }
  // One randomized overlay per sibling set (Algorithm 1), built on first
  // touch. Nephew pointers are sampled against each sibling's actual child
  // count; a ring whose members are all leaves skips nephew sampling
  // entirely (matching the uniform constructor's leaf level).
  const std::uint32_t base = sibling_base_[id];
  const std::uint32_t ring = ring_size_[id];
  bool any_children = false;
  for (std::uint32_t j = 0; j < ring; ++j) {
    if (child_count_[base + j] > 0) {
      any_children = true;
      break;
    }
  }
  overlay::OverlayParams params = config_.params;
  params.seed = hierarchy::overlay_seed(config_.seed, hierarchy::kEventOverlaySalt,
                                        path_of(parent_[id]));
  auto table = overlay::build_routing_table(
      ring, id - base, params,
      any_children ? overlay::ChildCountFn{[this, base](ids::RingIndex j) {
        return child_count_[base + j];
      }}
                   : overlay::ChildCountFn{});
  return tables_.emplace(id, std::move(table)).first->second;
}

std::int64_t HierarchySimulation::find_id(const hierarchy::NodePath& path) const {
  std::uint32_t id = 0;
  for (const auto index : path) {
    if (index >= child_count_[id]) return -1;
    id = first_child_[id] + index;
  }
  return id;
}

std::uint32_t HierarchySimulation::id_of(const hierarchy::NodePath& path) const {
  const std::int64_t id = find_id(path);
  HOURS_EXPECTS(id >= 0);
  return static_cast<std::uint32_t>(id);
}

hierarchy::NodePath HierarchySimulation::path_of(std::uint32_t id) const {
  HOURS_EXPECTS(id < node_count());
  hierarchy::NodePath out(level_[id]);
  std::uint32_t walk = id;
  for (std::size_t l = level_[id]; l > 0; --l) {
    out[l - 1] = static_cast<ids::RingIndex>(walk - sibling_base_[walk]);
    walk = parent_[walk];
  }
  return out;
}

bool HierarchySimulation::upward_prefix(std::uint32_t id, std::size_t drop,
                                        const hierarchy::NodePath& dest) const {
  const std::size_t level = level_[id];
  HOURS_EXPECTS(drop <= level);
  const std::size_t prefix_len = level - drop;
  if (prefix_len > dest.size()) return false;
  std::uint32_t walk = id;
  for (std::size_t l = level; l > 0; --l) {
    const auto index = static_cast<ids::RingIndex>(walk - sibling_base_[walk]);
    if (l <= prefix_len && index != dest[l - 1]) return false;
    walk = parent_[walk];
  }
  return true;
}

void HierarchySimulation::kill(const hierarchy::NodePath& path) { kill_id(id_of(path)); }
void HierarchySimulation::revive(const hierarchy::NodePath& path) { revive_id(id_of(path)); }
bool HierarchySimulation::alive(const hierarchy::NodePath& path) const {
  return alive_id(id_of(path));
}

void HierarchySimulation::kill_id(std::uint32_t id) { transport_.set_alive(id, false); }

void HierarchySimulation::revive_id(std::uint32_t id) {
  transport_.set_alive(id, true);
  // Peers would un-suspect a revived node after its next probe round; the
  // query engine has no probes, so model that refresh directly.
  liveness_.clear_peer(id);
}

bool HierarchySimulation::alive_id(std::uint32_t id) const { return transport_.alive(id); }

void HierarchySimulation::set_behavior(const hierarchy::NodePath& path,
                                       overlay::NodeBehavior behavior) {
  set_behavior_id(id_of(path), behavior);
}

void HierarchySimulation::set_behavior_id(std::uint32_t id, overlay::NodeBehavior behavior) {
  HOURS_EXPECTS(id < node_count());
  behavior_[id] = static_cast<std::uint8_t>(behavior);
}

std::uint64_t HierarchySimulation::inject_query(const hierarchy::NodePath& dest,
                                                const hierarchy::NodePath& start) {
  HOURS_EXPECTS(find_id(dest) >= 0);
  const auto start_id = id_of(start);
  HOURS_EXPECTS(transport_.alive(start_id));

  const std::uint64_t qid = next_qid_++;
  queries_[qid] = QueryOutcome{};
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kQuerySubmit,
                            .node = start_id,
                            .peer = id_of(dest),
                            .level = static_cast<std::int32_t>(start.size()),
                            .causal = qid});
  Message msg;
  msg.qid = qid;
  msg.dest = dest;
  snapshot::Described submit{snapshot::kHierQueryStart, {start_id}};
  encode_message(msg, submit.args);
  sim_.schedule(0, submit);  // described-only: dispatched through the runner
  return qid;
}

const HierarchySimulation::QueryOutcome& HierarchySimulation::query(std::uint64_t qid) const {
  const auto it = queries_.find(qid);
  HOURS_EXPECTS(it != queries_.end());
  return it->second;
}

HierarchySimulation::QueryOutcome HierarchySimulation::run_query(
    const hierarchy::NodePath& dest, const hierarchy::NodePath& start,
    std::size_t max_events) {
  const auto qid = inject_query(dest, start);
  // No time limit: the engine has no periodic timers, so the queue drains
  // when the query (and any forks) terminate. A time limit would fast-
  // forward the clock past suspicion expiries between back-to-back queries.
  sim_.run(/*limit=*/0, max_events);
  return query(qid);
}

void HierarchySimulation::finish(std::uint64_t qid, bool delivered, std::uint32_t hops) {
  // Failure is provisional: a lost ack forks the query (the sender retries
  // while the original copy keeps forwarding), and one fork giving up must
  // not mask another fork delivering. Success is final.
  auto& outcome = queries_[qid];
  if (outcome.done && (outcome.delivered || !delivered)) return;
  outcome.done = true;
  outcome.delivered = delivered;
  outcome.hops = hops;
  outcome.completed_at = sim_.now();
  if (delivered) {
    queries_delivered_.inc();
    delivered_hops_->add(hops);
  } else {
    queries_failed_.inc();
  }
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = delivered ? trace::EventType::kQueryDelivered
                                              : trace::EventType::kQueryFailed,
                            .causal = qid,
                            .value = hops});
}

void HierarchySimulation::suspect(std::uint32_t at, std::uint32_t peer) {
  liveness_.suspect(at, peer, sim_.now());
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kSuspect,
                            .node = at,
                            .peer = peer,
                            .level = static_cast<std::int32_t>(level_[at])});
}

// -- gossip evidence source ---------------------------------------------------------

void HierarchySimulation::build_digest_words(std::uint32_t from,
                                             std::vector<std::uint64_t>& out) {
  const std::size_t entries = liveness_.append_digest(from, sim_.now(), out);
  if (entries == 0) return;
  digests_sent_->inc();
  digest_entries_sent_->inc(entries);
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kLivenessDigestSent,
                            .node = from,
                            .level = static_cast<std::int32_t>(level_[from]),
                            .value = entries});
}

void HierarchySimulation::apply_digest_words(std::uint32_t at, std::uint32_t from,
                                             const std::uint64_t* words, std::size_t count) {
  const Ticks now = sim_.now();
  // Rumors are only adopted about the receiver's own sibling ring: that is
  // where its routing decisions consult suspicion, and the scoping keeps a
  // million-node tree's gossip state proportional to actual traffic.
  const std::uint32_t base = sibling_base_[at];
  const std::uint64_t adopted = liveness_.adopt_digest(
      at, from, words, count, base, base + ring_size_[at], now,
      [&](std::uint32_t peer, Ticks since) {
        gossip_adopted_->inc();
        HOURS_TRACE_EMIT(trace_, {.at = now,
                                  .type = trace::EventType::kLivenessGossipSuspect,
                                  .node = at,
                                  .peer = peer,
                                  .level = static_cast<std::int32_t>(level_[at]),
                                  .value = since});
      });
  HOURS_TRACE_EMIT(trace_, {.at = now,
                            .type = trace::EventType::kLivenessDigestApplied,
                            .node = at,
                            .peer = from,
                            .level = static_cast<std::int32_t>(level_[at]),
                            .value = adopted});
}

std::vector<std::uint32_t> HierarchySimulation::route_candidates(
    std::uint32_t at, const hierarchy::NodePath& dest, bool& backward) const {
  std::vector<std::uint32_t> out;
  route_candidates(at, dest, backward, {}, out);
  return out;
}

void HierarchySimulation::route_candidates(std::uint32_t at, const hierarchy::NodePath& dest,
                                           bool& backward, liveness::SuspectSet drop,
                                           std::vector<std::uint32_t>& out) const {
  HOURS_EXPECTS(at < node_count());
  out.clear();
  const std::size_t level = level_[at];
  // One read of `at`'s suspicion rows per plan. An offer `at` suspects is
  // skipped; one in `drop` is kept but not listed.
  const auto rows = liveness_.active_in(at, 0, ~std::uint32_t{0}, sim_.now());
  const liveness::SuspectSet suspects{rows};
  auto push = [&](std::uint32_t id) {
    if (suspects.contains(id)) return false;
    if (!drop.contains(id)) out.push_back(id);
    return true;
  };

  if (level < dest.size() && upward_prefix(at, 0, dest)) {
    // Algorithm 2 at an ancestor: the on-path child first; on its silence,
    // alive children nearest counter-clockwise of it serve as overlay
    // entrances (footnote 4 / line 6). Counter-clockwise from the on-path
    // child is two descending id ranges: the on-path child down to child 0,
    // then the last child down to just past the on-path one.
    const std::uint32_t first = first_child_[at];
    const std::uint32_t count = child_count_[at];
    HOURS_EXPECTS(dest[level] < count);
    const std::uint32_t past_on_path = first + dest[level] + 1;
    out.resize(count);
    std::uint32_t* write = out.data();
    for (const auto& [top, bottom] :
         {std::pair{past_on_path, first}, std::pair{first + count, past_on_path}}) {
      const auto skipped = suspects.within(bottom, top).peers;
      const auto dropped = drop.within(bottom, top).peers;
      if (skipped.empty() && dropped.empty()) {
        for (std::uint32_t id = top; id-- > bottom;) *write++ = id;
        continue;
      }
      // The ids descend and both sets ascend: a merge from each set's top.
      auto next_skipped = skipped.rbegin();
      auto next_dropped = dropped.rbegin();
      for (std::uint32_t id = top; id-- > bottom;) {
        const bool skip = next_skipped != skipped.rend() && *next_skipped == id;
        const bool omit = next_dropped != dropped.rend() && *next_dropped == id;
        next_skipped += skip ? 1 : 0;
        next_dropped += omit ? 1 : 0;
        if (!skip && !omit) *write++ = id;
      }
    }
    out.resize(static_cast<std::size_t>(write - out.data()));
    return;
  }

  if (level == 0 || level > dest.size() || !upward_prefix(at, 1, dest)) {
    // Unrelated position (bootstrap start below/aside): climb.
    if (level > 0) push(parent_[at]);
    return;
  }

  // Algorithm 3: overlay forwarding toward OD = dest[level-1] among
  // siblings; nephews are children of the OD, ordered toward the
  // next-level OD. With a repaired ring the node's CCW pointer reaches the
  // nearest alive sibling (tried here in order); without repair only the
  // immediate neighbor is known.
  const auto self_index = static_cast<ids::RingIndex>(at - sibling_base_[at]);
  const std::uint32_t ring = ring_size_[at];
  const ids::RingIndex od = dest[level - 1];
  const std::uint32_t od_id = sibling_id(at, od);
  const bool nephews = level < dest.size();
  overlay::offer_candidates(
      {.table = table_of(at),
       .od = od,
       .design = config_.params.design,
       .nephews = nephews,
       .next_od = nephews ? std::optional<ids::RingIndex>{dest[level]} : std::nullopt,
       .child_ring = child_count_[od_id],
       .backward_from = ids::counter_clockwise_step(self_index, 1, ring),
       .reach = config_.assume_ring_repaired ? ring - 1 : 1},
      backward, [&](overlay::Offer kind, ids::RingIndex index) {
        const std::uint32_t id =
            kind == overlay::Offer::kNephew ? first_child_[od_id] + index : sibling_id(at, index);
        return push(id) ? overlay::Verdict::kKeep : overlay::Verdict::kSkip;
      });
}

trace::EventType HierarchySimulation::hop_kind(std::uint32_t at, std::uint32_t next,
                                               const Message& msg) const {
  // Parent climb and on-path descent are plain hierarchical hops; an
  // off-path child is an overlay entrance chosen to detour around a dead
  // on-path child (Algorithm 2 footnote 4). Sibling steps are overlay
  // forwarding (ring, or backward once greedy progress is exhausted), and
  // anything else is a nephew pointer exiting into the next-level overlay.
  if (next == parent_[at]) return trace::EventType::kHierHop;
  if (next >= first_child_[at] && next < first_child_[at] + child_count_[at]) {
    const std::size_t level = level_[at];
    const bool on_path = level < msg.dest.size() && upward_prefix(at, 0, msg.dest) &&
                         next == first_child_[at] + msg.dest[level];
    return on_path ? trace::EventType::kHierHop : trace::EventType::kDetourEnter;
  }
  if (same_overlay(at, next)) {
    return msg.backward ? trace::EventType::kBackwardHop : trace::EventType::kRingHop;
  }
  return trace::EventType::kNephewExit;
}

void HierarchySimulation::client_attempt(std::uint32_t at, std::uint32_t to,
                                         snapshot::DescribedView on_ack,
                                         snapshot::DescribedView on_timeout) {
  HOURS_EXPECTS(at < node_count() && to < node_count());
  Message hop;
  hop.client_hop = true;
  transport_.send_expect_ack(at, to, hop, on_ack, on_timeout);
}

void HierarchySimulation::handle(std::uint32_t at, const Message& msg) {
  if (msg.client_hop) return;  // the transport-level ack is the whole exchange

  auto& outcome = queries_[msg.qid];
  if (outcome.done && outcome.delivered) return;  // already answered

  if (level_[at] == msg.dest.size() && upward_prefix(at, 0, msg.dest)) {
    finish(msg.qid, true, msg.hops);
    return;
  }

  // Insiders (Section 5.3). The transport already acked, so the upstream
  // sender believes this hop succeeded.
  const auto behavior = static_cast<overlay::NodeBehavior>(behavior_[at]);
  if (behavior == overlay::NodeBehavior::kDropper) {
    return;  // silently swallowed; the query never settles
  }
  if (behavior == overlay::NodeBehavior::kMisrouter) {
    // Forward to a uniformly random table entry, ignoring the algorithm;
    // honest downstream nodes resume greedy forwarding.
    const overlay::RoutingTable& table = table_of(at);
    if (!table.entries().empty()) {
      const auto& entries = table.entries();
      const auto pick = entries[misroute_rng_.below(entries.size())].sibling;
      Message forwarded = msg;
      forwarded.hops += 1;
      if (forwarded.hops <= 4 * node_count() + 64) {
        transport_.send_expect_ack(at, sibling_id(at, pick), forwarded, {}, {});
        return;
      }
    }
    return;
  }

  Message m = msg;
  if (m.hops > 4 * node_count() + 64) {
    finish(m.qid, false, m.hops);
    return;
  }
  auto candidates = route_candidates(at, m.dest, m.backward);
  if (candidates.empty()) {
    finish(m.qid, false, m.hops);
    return;
  }
  try_candidates(at, m, std::move(candidates));
}

void HierarchySimulation::try_candidates(std::uint32_t at, Message msg,
                                         std::vector<std::uint32_t> candidates) {
  const auto& outcome = queries_[msg.qid];
  if (outcome.done && outcome.delivered) return;
  if (candidates.empty()) {
    // Every candidate timed out; re-decide with the enriched suspicion set
    // (this is where a stalled greedy flips to backward mode).
    handle(at, msg);
    return;
  }
  const std::uint32_t next = candidates.front();
  candidates.erase(candidates.begin());

  Message forwarded = msg;
  forwarded.hops += 1;
  forwarded.backward = msg.backward && same_overlay(at, next);
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = hop_kind(at, next, msg),
                            .node = at,
                            .peer = next,
                            .level = static_cast<std::int32_t>(level_[at]),
                            .causal = msg.qid,
                            .value = forwarded.hops});
  // The timeout continuation carries the PRE-hop message: the retry
  // re-decides from the state the failed attempt saw, plus the enriched
  // suspicion set.
  snapshot::Described timeout{snapshot::kHierAttemptTimeout, {at, next}};
  encode_message(msg, timeout.args);
  for (const auto candidate : candidates) timeout.args.push_back(candidate);
  transport_.send_expect_ack(at, next, forwarded, /*on_ack=*/{}, /*on_timeout=*/timeout);
}

void HierarchySimulation::attempt_timeout(std::uint32_t at, std::uint32_t next, Message msg,
                                          std::vector<std::uint32_t> remaining) {
  suspect(at, next);
  hop_timeouts_.inc();
  queries_[msg.qid].timeouts += 1;
  HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
                            .type = trace::EventType::kRetry,
                            .node = at,
                            .peer = next,
                            .causal = msg.qid});
  try_candidates(at, std::move(msg), std::move(remaining));
}

void HierarchySimulation::encode_message(const Message& msg, std::vector<std::uint64_t>& out) {
  out.reserve(out.size() + 4 + msg.dest.size());
  out.push_back(msg.qid);
  out.push_back((msg.backward ? 1ULL : 0ULL) | (msg.client_hop ? 2ULL : 0ULL));
  out.push_back(msg.hops);
  out.push_back(msg.dest.size());
  for (const auto index : msg.dest) out.push_back(index);
}

HierarchySimulation::Message HierarchySimulation::decode_message(const std::uint64_t* words,
                                                                 std::size_t count) {
  HOURS_EXPECTS(count >= 4 && count == 4 + words[3]);
  Message msg;
  msg.qid = words[0];
  msg.backward = (words[1] & 1ULL) != 0;
  msg.client_hop = (words[1] & 2ULL) != 0;
  msg.hops = static_cast<std::uint32_t>(words[2]);
  msg.dest.reserve(static_cast<std::size_t>(words[3]));
  for (std::uint64_t i = 0; i < words[3]; ++i) {
    msg.dest.push_back(static_cast<ids::RingIndex>(words[4 + i]));
  }
  return msg;
}

void HierarchySimulation::run_continuation(std::uint32_t kind, const std::uint64_t* args,
                                           std::size_t count) {
  switch (kind) {
    case snapshot::kHierQueryStart: {
      HOURS_EXPECTS(count >= 5);
      handle(static_cast<std::uint32_t>(args[0]), decode_message(args + 1, count - 1));
      return;
    }
    case snapshot::kHierAttemptTimeout: {
      HOURS_EXPECTS(count >= 6);  // at, tried, then a >= 4-word message
      const auto at = static_cast<std::uint32_t>(args[0]);
      const auto next = static_cast<std::uint32_t>(args[1]);
      const std::size_t msg_words = 4 + static_cast<std::size_t>(args[2 + 3]);
      HOURS_EXPECTS(count >= 2 + msg_words);
      Message msg = decode_message(args + 2, msg_words);
      std::vector<std::uint32_t> remaining;
      remaining.reserve(count - 2 - msg_words);
      for (std::size_t i = 2 + msg_words; i < count; ++i) {
        remaining.push_back(static_cast<std::uint32_t>(args[i]));
      }
      attempt_timeout(at, next, std::move(msg), std::move(remaining));
      return;
    }
    default:
      HOURS_EXPECTS(!"unknown hierarchy continuation kind");
  }
}

snapshot::Json HierarchySimulation::config_json() const {
  using snapshot::Json;
  Json config = Json::object();
  Json counts = Json::array();
  for (const auto count : child_count_) {
    counts.push(Json(static_cast<std::uint64_t>(count)));
  }
  config["child_counts"] = std::move(counts);
  config["design"] = Json(static_cast<std::uint64_t>(config_.params.design));
  config["k"] = Json(static_cast<std::uint64_t>(config_.params.k));
  config["q"] = Json(static_cast<std::uint64_t>(config_.params.q));
  config["seed"] = Json(config_.seed);
  config["suspicion_ttl"] = Json(config_.suspicion_ttl);
  config["assume_ring_repaired"] =
      Json(static_cast<std::uint64_t>(config_.assume_ring_repaired ? 1 : 0));
  // Gossip mode extends the echo (and the suspicion rows in save_state);
  // probe-only snapshots keep the legacy byte layout exactly.
  if (liveness_.gossip_enabled()) {
    config["liveness_mode"] = Json(std::uint64_t{1});
    config["digest_budget"] =
        Json(static_cast<std::uint64_t>(liveness_.config().digest_budget));
    config["digest_horizon"] = Json(liveness_.config().digest_horizon);
  }
  return config;
}

snapshot::Json HierarchySimulation::save_state(std::string& error) const {
  using snapshot::Json;
  Json out = Json::object();
  out["config"] = config_json();

  Json rng = Json::array();
  for (const auto word : misroute_rng_.state()) rng.push(Json(word));
  out["misroute_rng"] = std::move(rng);
  out["next_qid"] = Json(next_qid_);

  // Sparse per-node state: honest behavior and an empty suspicion set are
  // the overwhelmingly common case. The global suspicion map is keyed
  // (node << 32 | peer), so rows come out node-ascending then
  // peer-ascending — the same order the per-node maps used to produce.
  Json behaviors = Json::array();  // rows [id, behavior]
  for (std::uint32_t id = 0; id < node_count(); ++id) {
    if (behavior_[id] != static_cast<std::uint8_t>(overlay::NodeBehavior::kHonest)) {
      Json row = Json::array();
      row.push(Json(static_cast<std::uint64_t>(id)));
      row.push(Json(static_cast<std::uint64_t>(behavior_[id])));
      behaviors.push(std::move(row));
    }
  }
  // Rows [node, peer, expiry] in probe-only mode (the legacy layout);
  // [node, peer, expiry, since, source] under gossip so a restored run
  // re-ages and re-broadcasts rumors identically.
  const bool gossip = liveness_.gossip_enabled();
  Json suspected = Json::array();
  liveness_.for_each([&suspected, gossip](liveness::NodeId node, liveness::NodeId peer,
                                          const liveness::Entry& entry) {
    Json row = Json::array();
    row.push(Json(static_cast<std::uint64_t>(node)));
    row.push(Json(static_cast<std::uint64_t>(peer)));
    row.push(Json(entry.expiry));
    if (gossip) {
      row.push(Json(entry.since));
      row.push(Json(static_cast<std::uint64_t>(entry.source)));
    }
    suspected.push(std::move(row));
  });
  out["behaviors"] = std::move(behaviors);
  out["suspected"] = std::move(suspected);

  Json queries = Json::array();
  for (const auto& [qid, outcome] : queries_) {
    Json row = Json::array();
    row.push(Json(qid));
    row.push(Json(static_cast<std::uint64_t>(outcome.done ? 1 : 0)));
    row.push(Json(static_cast<std::uint64_t>(outcome.delivered ? 1 : 0)));
    row.push(Json(static_cast<std::uint64_t>(outcome.hops)));
    row.push(Json(static_cast<std::uint64_t>(outcome.timeouts)));
    row.push(Json(outcome.completed_at));
    queries.push(std::move(row));
  }
  out["queries"] = std::move(queries);

  out["registry"] = snapshot::registry_to_json(registry_);
  out["transport"] = transport_.save_state(*this, error);
  return out;
}

std::string HierarchySimulation::restore_state(const snapshot::Json& state) {
  using snapshot::Json;
  const Json* config = state.find("config");
  const Json* rng = state.find("misroute_rng");
  const Json* next_qid = state.find("next_qid");
  const Json* behaviors = state.find("behaviors");
  const Json* suspected = state.find("suspected");
  const Json* queries = state.find("queries");
  const Json* registry = state.find("registry");
  const Json* transport = state.find("transport");
  if (config == nullptr || rng == nullptr || !rng->is_array() || rng->items().size() != 4 ||
      next_qid == nullptr || !next_qid->is_u64() || behaviors == nullptr ||
      !behaviors->is_array() || suspected == nullptr || !suspected->is_array() ||
      queries == nullptr || !queries->is_array() || registry == nullptr ||
      transport == nullptr) {
    return "hier section malformed";
  }
  if (*config != config_json()) {
    return "hier.config does not match the running simulation";
  }
  const auto u64_row = [](const Json& row, std::size_t n) {
    if (!row.is_array() || row.items().size() != n) return false;
    for (const auto& field : row.items()) {
      if (!field.is_u64()) return false;
    }
    return true;
  };

  std::fill(behavior_.begin(), behavior_.end(),
            static_cast<std::uint8_t>(overlay::NodeBehavior::kHonest));
  liveness_.clear_all();
  for (const auto& raw : behaviors->items()) {
    if (!u64_row(raw, 2)) return "hier.behaviors entry malformed";
    const auto id = raw.items()[0].as_u64();
    const auto value = raw.items()[1].as_u64();
    if (id >= node_count() || value > static_cast<std::uint64_t>(overlay::NodeBehavior::kMisrouter)) {
      return "hier.behaviors entry out of range";
    }
    behavior_[id] = static_cast<std::uint8_t>(value);
  }
  const bool gossip = liveness_.gossip_enabled();
  for (const auto& raw : suspected->items()) {
    if (!u64_row(raw, gossip ? 5 : 3)) return "hier.suspected entry malformed";
    const auto& f = raw.items();
    const auto id = f[0].as_u64();
    const auto peer = f[1].as_u64();
    if (id >= node_count() || peer >= node_count() ||
        (gossip && f[4].as_u64() > 1)) {
      return "hier.suspected entry out of range";
    }
    liveness_.restore_row(
        static_cast<std::uint32_t>(id), static_cast<std::uint32_t>(peer),
        gossip ? liveness::Entry{f[2].as_u64(), f[3].as_u64(),
                                 static_cast<liveness::Source>(f[4].as_u64())}
               : liveness::Entry{f[2].as_u64(), 0, liveness::Source::kProbe});
  }

  for (const auto& field : rng->items()) {
    if (!field.is_u64()) return "hier.misroute_rng malformed";
  }
  rng::Xoshiro256::State words{};
  for (std::size_t i = 0; i < 4; ++i) words[i] = rng->items()[i].as_u64();
  misroute_rng_.set_state(words);
  next_qid_ = next_qid->as_u64();

  queries_.clear();
  for (const auto& raw : queries->items()) {
    if (!u64_row(raw, 6)) return "hier.queries entry malformed";
    const auto& f = raw.items();
    QueryOutcome outcome;
    outcome.done = f[1].as_u64() != 0;
    outcome.delivered = f[2].as_u64() != 0;
    outcome.hops = static_cast<std::uint32_t>(f[3].as_u64());
    outcome.timeouts = static_cast<std::uint32_t>(f[4].as_u64());
    outcome.completed_at = f[5].as_u64();
    queries_[f[0].as_u64()] = outcome;
  }

  if (std::string err = snapshot::registry_from_json(registry_, *registry); !err.empty()) {
    return "hier.registry: " + err;
  }
  if (std::string err = transport_.restore_state(*this, *transport); !err.empty()) {
    return "hier.transport: " + err;
  }
  return "";
}

bool HierarchySimulation::owns(std::uint32_t kind) const {
  // The hierarchy block, plus the transport block: the transport's state
  // is part of this section.
  const std::uint32_t block = snapshot::kind_block(kind);
  return block == snapshot::kind_block(snapshot::kHierQueryStart) ||
         block == snapshot::kind_block(snapshot::kTransportDelivery);
}

}  // namespace hours::sim
