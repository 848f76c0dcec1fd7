// Event-driven, message-level simulation of a full HOURS-protected service
// hierarchy.
//
// Where the graph engine (hierarchy/router.hpp) consults a liveness oracle,
// here every forwarding decision is taken by a node process from purely
// local state: its routing table (Algorithm 1), a suspicion set learned
// from ack timeouts, and the Algorithm 2/3 rules. Queries travel as
// messages with per-hop acks; dead servers simply never answer, and the
// sender walks its candidate list on each timeout. This demonstrates the
// protocol end to end under realistic asynchrony, including message loss.
//
// Scale note: node state is struct-of-arrays — flat u32 index tables for
// the topology (parent/first-child/sibling-ring), one byte per node of
// behavior, a single global suspicion map, and routing tables materialized
// lazily on first touch (a pure function of the configuration, so lazy and
// eager construction are bitwise identical). Constructing a million-node
// hierarchy costs five flat vectors; overlays are paid for only where
// traffic actually lands.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hierarchy/node_path.hpp"
#include "liveness/liveness.hpp"
#include "overlay/overlay.hpp"
#include "overlay/params.hpp"
#include "overlay/routing_table.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"
#include "snapshot/participant.hpp"
#include "trace/registry.hpp"
#include "trace/sink.hpp"

namespace hours::sim {

/// An explicit (possibly irregular) tree shape: `child_counts[i]` is the
/// number of children of node i in breadth-first order, root first, with
/// each node's children assigned contiguous ids in parent order. This is
/// exactly the id layout the uniform-fanout constructor produces, so
/// `topology_from_fanout` round-trips. Used to mirror an admitted
/// NamedHierarchy (whose zones rarely have equal sizes) into the event
/// engine (hours::EventBackend).
struct TreeTopology {
  std::vector<std::uint32_t> child_counts;

  /// Total node count must equal 1 + sum(child_counts).
  [[nodiscard]] bool consistent() const noexcept;
};

[[nodiscard]] TreeTopology topology_from_fanout(const std::vector<std::uint32_t>& fanout);

struct HierarchySimConfig {
  /// fanout[i] = children per level-i node (small trees; every node is
  /// materialized as a process). Ignored by the TreeTopology constructor.
  std::vector<std::uint32_t> fanout{8, 8};
  overlay::OverlayParams params;
  TransportConfig transport;
  std::uint64_t seed = 0x486965722dULL;
  /// How long an ack-timeout keeps a peer suspected. Periodic probing would
  /// refresh liveness in a deployment; expiry models that, so transient
  /// (loss-induced) false suspicion heals. 0 disables expiry.
  Ticks suspicion_ttl = liveness::kDefaultSuspicionTtl;
  /// Evidence-source selection (DESIGN.md §11): kProbeOnly keeps the
  /// timeout-only inference bit for bit; kGossip piggybacks bounded
  /// suspicion digests on transport frames, adopted only within the
  /// receiver's sibling ring.
  liveness::Config liveness;
  /// When true, backward forwarding steps to the nearest alive
  /// counter-clockwise sibling (active recovery assumed converged — the
  /// ring protocol in sim/ring_protocol.hpp demonstrates the convergence
  /// itself). When false, a dead counter-clockwise neighbor dead-ends the
  /// query.
  bool assume_ring_repaired = true;
};

class HierarchySimulation : public snapshot::Participant {
 public:
  explicit HierarchySimulation(HierarchySimConfig config);

  /// Materializes an explicit tree shape instead of uniform per-level
  /// fanouts; `config.fanout` is ignored. For a topology equal to
  /// `topology_from_fanout(config.fanout)` this reproduces the uniform
  /// constructor bit-for-bit (same ids, same routing tables).
  HierarchySimulation(HierarchySimConfig config, const TreeTopology& topology);

  [[nodiscard]] Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const HierarchySimConfig& config() const noexcept { return config_; }

  [[nodiscard]] std::uint32_t node_count() const noexcept {
    return static_cast<std::uint32_t>(parent_.size());
  }

  // -- topology ------------------------------------------------------------------
  [[nodiscard]] std::uint32_t id_of(const hierarchy::NodePath& path) const;
  /// Reconstructs the path by walking the flat parent table upward.
  [[nodiscard]] hierarchy::NodePath path_of(std::uint32_t id) const;
  /// id_of without the existence precondition: -1 when `path` leaves the
  /// tree's bounds.
  [[nodiscard]] std::int64_t find_id(const hierarchy::NodePath& path) const;
  /// True when `b` is in `a`'s sibling ring, the overlay `a` forwards in.
  /// Algorithm 3's backward mode ends on any hop that leaves it.
  [[nodiscard]] bool same_overlay(std::uint32_t a, std::uint32_t b) const noexcept {
    return b >= sibling_base_[a] && b < sibling_base_[a] + ring_size_[a];
  }

  // -- liveness ------------------------------------------------------------------
  void kill(const hierarchy::NodePath& path);
  void revive(const hierarchy::NodePath& path);
  [[nodiscard]] bool alive(const hierarchy::NodePath& path) const;
  /// Id-addressed forms (no path materialization; the hot path for
  /// fault-injection and facade mirroring at scale). Named distinctly from
  /// the path forms so single-element braced paths like `kill({2})` keep
  /// resolving to the NodePath overload.
  void kill_id(std::uint32_t id);
  void revive_id(std::uint32_t id);
  [[nodiscard]] bool alive_id(std::uint32_t id) const;

  /// Adjusts the transport loss rate mid-run (lossy-link fault episodes).
  void set_loss_probability(double p) { transport_.set_loss_probability(p); }
  [[nodiscard]] double loss_probability() const noexcept {
    return transport_.loss_probability();
  }

  /// Installs the transport's per-link reachability predicate (partition and
  /// link-cut faults, keyed by node id); null restores full connectivity.
  void set_link_filter(LinkFilter filter) { transport_.set_link_filter(std::move(filter)); }

  // -- observability -------------------------------------------------------------
  /// Attaches the trace stream (hop taxonomy, suspicion, query lifecycle,
  /// plus transport drops); null detaches. Must outlive the run.
  void set_tracer(trace::Tracer* tracer) {
    trace_ = tracer;
    transport_.set_tracer(tracer);
  }

  /// The run's counter/histogram registry ("hier.queries_delivered", ...).
  [[nodiscard]] trace::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const trace::Registry& registry() const noexcept { return registry_; }

  /// The unified suspicion store (DESIGN.md §11); read-only introspection
  /// for tests and benches.
  [[nodiscard]] const liveness::LivenessView& liveness() const noexcept {
    return liveness_;
  }

  // -- insiders (Section 5.3) ------------------------------------------------------
  /// Compromised-node behavior. Unlike a DoS'd server, an insider *acks*
  /// every message (the transport cannot tell), so a dropper is stealthy:
  /// upstream nodes learn nothing from timeouts and the query simply
  /// vanishes (the client-side outcome stays done = false).
  void set_behavior(const hierarchy::NodePath& path, overlay::NodeBehavior behavior);
  void set_behavior_id(std::uint32_t id, overlay::NodeBehavior behavior);

  // -- queries -------------------------------------------------------------------
  struct QueryOutcome {
    bool done = false;
    bool delivered = false;
    std::uint32_t hops = 0;           ///< successful transfers
    std::uint32_t timeouts = 0;       ///< dead/lossy attempts that timed out
    Ticks completed_at = 0;
  };

  /// Injects a query at the root (default) or `start` for `dest`.
  std::uint64_t inject_query(const hierarchy::NodePath& dest,
                             const hierarchy::NodePath& start = {});
  [[nodiscard]] const QueryOutcome& query(std::uint64_t qid) const;

  /// Convenience: injects, runs the simulator until the query settles (or
  /// `max_events` fire), and returns the outcome.
  QueryOutcome run_query(const hierarchy::NodePath& dest,
                         const hierarchy::NodePath& start = {},
                         std::size_t max_events = 10'000'000);

  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return transport_.messages_sent();
  }

  // -- client-driven queries (sim/query_client.hpp) -------------------------------
  /// The ordered next-hop candidate ids node `at` would offer a query toward
  /// `dest`, from its local table and suspicion state only. Flips `backward`
  /// when greedy progress is exhausted (Algorithm 3 line 14).
  ///
  /// Cost: one read of `at`'s suspicion rows, then time linear in the
  /// entries considered (an ancestor's children, or the table's siblings
  /// and nephews plus the backward steps); no entry is tested against the
  /// list built so far. The list holds no duplicate id, and its order is
  /// part of the determinism contract: every client-driven query walks it,
  /// so tests/hierarchy_protocol_test.cpp's RouteCandidatesPinned hashes
  /// it over every branch.
  [[nodiscard]] std::vector<std::uint32_t> route_candidates(std::uint32_t at,
                                                            const hierarchy::NodePath& dest,
                                                            bool& backward) const;

  /// One custody-transfer attempt from `at` to `to` on behalf of an external
  /// query client; exactly one of the callbacks fires. The receiving node
  /// acks (if alive) but takes no forwarding action of its own.
  ///
  /// Snapshot note: client callbacks are caller-owned closures with no data
  /// form, so saves are blocked while a client attempt is outstanding (the
  /// protocol's own queries serialize fully).
  void client_attempt(std::uint32_t at, std::uint32_t to, std::function<void()> on_ack,
                      std::function<void()> on_timeout);

  // -- snapshot (snapshot/participant.hpp) -----------------------------------------
  // The "hier" section: suspicion state, insider behaviors, the misroute RNG
  // stream, query outcomes, metrics, and the transport — everything mutated
  // after construction. Topology and routing tables are NOT serialized; they
  // are pure functions of the configuration, which the section echoes and
  // restore_state() verifies against the running simulation.
  [[nodiscard]] std::string section() const override { return "hier"; }
  [[nodiscard]] snapshot::Json save_state(std::string& error) const override;
  [[nodiscard]] std::string restore_state(const snapshot::Json& state) override;
  [[nodiscard]] bool owns(std::uint32_t kind) const override;

 private:
  struct Message {
    std::uint64_t qid = 0;
    hierarchy::NodePath dest;
    bool backward = false;    ///< Algorithm 3 mode bit, within one sibling ring
    bool client_hop = false;  ///< custody transfer for an external client
    std::uint32_t hops = 0;
  };

  /// Shared constructor body: one BFS pass filling the flat index tables.
  void build(const TreeTopology& topology);

  /// The node's routing table, materialized on first touch (tables are pure
  /// functions of the configuration; lazy == eager bitwise).
  [[nodiscard]] const overlay::RoutingTable& table_of(std::uint32_t id) const;

  /// True when the node's path, with `drop` trailing indices removed, is a
  /// prefix of `dest` — computed by walking the parent table upward, no
  /// path materialization.
  [[nodiscard]] bool upward_prefix(std::uint32_t id, std::size_t drop,
                                   const hierarchy::NodePath& dest) const;

  void suspect(std::uint32_t at, std::uint32_t peer);

  // Gossip evidence source: digest construction/adoption hooks installed on
  // the transport when config_.liveness.mode == kGossip.
  void build_digest_words(std::uint32_t from, std::vector<std::uint64_t>& out);
  void apply_digest_words(std::uint32_t at, std::uint32_t from,
                          const std::uint64_t* words, std::size_t count);

  void handle(std::uint32_t at, const Message& msg);
  void try_candidates(std::uint32_t at, Message msg, std::vector<std::uint32_t> candidates);
  void finish(std::uint64_t qid, bool delivered, std::uint32_t hops);

  /// Message <-> u64 words, self-delimiting ([qid, flags, hops, |dest|,
  /// dest...]) so a description can carry a message followed by more args.
  /// encode appends to `out`.
  static void encode_message(const Message& msg, std::vector<std::uint64_t>& out);
  static Message decode_message(const std::uint64_t* words, std::size_t count);

  /// Dispatches a hierarchy-block event or continuation (kHier* kinds) —
  /// the runner this simulation claims, for live and restored events alike.
  void run_continuation(std::uint32_t kind, const std::uint64_t* args, std::size_t count);

  /// The configuration echo stored in a snapshot and verified by
  /// restore_state() (a snapshot only restores into an identically
  /// configured simulation).
  [[nodiscard]] snapshot::Json config_json() const;

  /// Body of the per-attempt ack-timeout continuation: suspect the silent
  /// peer and walk on to the remaining candidates.
  void attempt_timeout(std::uint32_t at, std::uint32_t next, Message msg,
                       std::vector<std::uint32_t> remaining);

  /// Classifies the hop `at` -> `next` for the trace taxonomy (Algorithm 2
  /// descent, overlay detour entrance, ring/backward step, or nephew exit).
  [[nodiscard]] trace::EventType hop_kind(std::uint32_t at, std::uint32_t next,
                                          const Message& msg) const;

  [[nodiscard]] std::uint32_t sibling_id(std::uint32_t at, ids::RingIndex index) const {
    return sibling_base_[at] + index;
  }

  HierarchySimConfig config_;
  Simulator sim_;
  // Struct-of-arrays node state, indexed by node id (BFS order, root = 0).
  // A sibling set is the contiguous id range [sibling_base, sibling_base +
  // ring_size); a node's ring index is id - sibling_base.
  std::vector<std::uint32_t> parent_;        ///< self for the root
  std::vector<std::uint32_t> first_child_;   ///< id of child ring index 0
  std::vector<std::uint32_t> child_count_;
  std::vector<std::uint32_t> sibling_base_;  ///< id of sibling ring index 0
  std::vector<std::uint32_t> ring_size_;     ///< sibling overlay size
  std::vector<std::uint16_t> level_;         ///< depth (0 = root)
  std::vector<std::uint8_t> behavior_;       ///< overlay::NodeBehavior
  /// Routing tables materialized on first touch by table_of(). Iteration
  /// order never observed — only keyed lookups — so the unordered map does
  /// not threaten determinism.
  mutable std::unordered_map<std::uint32_t, overlay::RoutingTable> tables_;
  /// The unified suspicion store, keyed (node << 32 | peer) so snapshot
  /// rows come out node-ascending then peer-ascending, exactly as the
  /// per-node maps used to serialize. One map for the whole tree keeps the
  /// SoA memory profile at million-node scale.
  liveness::LivenessView liveness_;
  Transport<Message> transport_;

  rng::Xoshiro256 misroute_rng_{0x5E3ULL};
  std::uint64_t next_qid_ = 1;
  std::map<std::uint64_t, QueryOutcome> queries_;

  trace::Registry registry_;
  trace::Tracer* trace_ = nullptr;
  trace::Counter queries_delivered_;
  trace::Counter queries_failed_;
  trace::Counter hop_timeouts_;
  metrics::Histogram* delivered_hops_ = nullptr;  ///< owned by registry_
  // Registered only in gossip mode so the probe-only registry (and its
  // snapshot serialization) stays byte-identical to the legacy format.
  std::optional<trace::Counter> digests_sent_;
  std::optional<trace::Counter> digest_entries_sent_;
  std::optional<trace::Counter> gossip_adopted_;
};

}  // namespace hours::sim
