// Event-driven overlay-ring protocol: periodic neighbor probing,
// conventional neighborhood recovery, and Section 4.3's *active recovery*.
//
// This is the message-level counterpart of the graph engine. Nodes know only
// their own routing table; liveness is learned through probe/ack timeouts,
// gaps are bridged by Repair messages exactly as Figure 3 describes:
//
//   * every node probes its clockwise successor and counter-clockwise
//     neighbor once per probe period;
//   * when a clockwise successor dies, the node walks its table for the next
//     responsive sibling and claims to be its counter-clockwise neighbor
//     (conventional recovery — works while gaps are shorter than k);
//   * when a node's counter-clockwise side goes silent for a full probe
//     period with no claim arriving, it infers massive failure and emits a
//     Repair message destined to itself; the node that cannot forward the
//     Repair any closer creates a routing entry for the originator and
//     becomes its new counter-clockwise neighbor, closing the gap.
//
// Queries ride the same machinery (greedy with per-hop timeout fallback and
// backward mode), so integration tests can show end-to-end service before,
// during, and after recovery.
//
// Every protocol event and continuation (probe timers and callbacks, repair
// retries, query starts and hops) is a snapshot::Described datum of the
// ring block, which the simulation claims on its simulator at
// construction: run_continuation() is the one dispatcher on the live path
// and after a snapshot restore, making the whole simulation serializable
// mid-flight (RingSimulation is a snapshot::Participant). The only closures
// are client_attempt() callbacks, which belong to an external query client.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "liveness/liveness.hpp"
#include "overlay/params.hpp"
#include "overlay/routing_table.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"
#include "snapshot/participant.hpp"
#include "trace/registry.hpp"
#include "trace/sink.hpp"

namespace hours::sim {

struct RingSimConfig {
  std::uint32_t size = 16;
  overlay::OverlayParams params;  // design/k/q/seed for table generation
  std::uint64_t seed = 0x52494E47ULL;

  Ticks probe_period = 1000;
  Ticks latency_min = 10;
  Ticks latency_max = 50;
  Ticks ack_timeout = 250;  ///< must exceed 2 * latency_max
  double loss_probability = 0.0;  ///< i.i.d. per transmission (incl. acks)
  /// Consecutive probe misses before a neighbor is declared dead. One miss
  /// is enough on loss-free links; lossy links need >= 2-3 or false
  /// suspicion keeps churning the ring.
  std::uint32_t probe_failure_threshold = 1;
  /// Evidence-source selection for the liveness plane: kProbeOnly keeps
  /// today's timeout-only inference bit for bit; kGossip additionally
  /// piggybacks bounded suspicion digests on every transport frame (probes,
  /// repairs, queries and their acks alike — no new message types).
  liveness::Config liveness;
};

class RingSimulation : public snapshot::Participant {
 public:
  explicit RingSimulation(RingSimConfig config);

  [[nodiscard]] Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] const RingSimConfig& config() const noexcept { return config_; }

  /// Schedules the initial (staggered) probe timers. Call once — and not at
  /// all when the simulation is about to be restored from a snapshot.
  void start();

  void kill(ids::RingIndex i);
  void revive(ids::RingIndex i);
  [[nodiscard]] bool alive(ids::RingIndex i) const;

  /// Adjusts the transport loss rate mid-run (lossy-link fault episodes).
  void set_loss_probability(double p) { transport_.set_loss_probability(p); }
  [[nodiscard]] double loss_probability() const noexcept {
    return transport_.loss_probability();
  }

  /// Installs the transport's per-link reachability predicate (partition and
  /// link-cut faults); null restores full connectivity. Severed links look
  /// like dead peers: sends time out, probes raise suspicion.
  void set_link_filter(LinkFilter filter) { transport_.set_link_filter(std::move(filter)); }

  // -- observability -------------------------------------------------------------
  /// Attaches the trace stream (probe/suspect/recovery/query events, plus
  /// transport drops); null detaches. Must outlive the run.
  void set_tracer(trace::Tracer* tracer) {
    trace_ = tracer;
    transport_.set_tracer(tracer);
  }

  /// The run's counter registry ("ring.probes_sent", ...).
  [[nodiscard]] trace::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const trace::Registry& registry() const noexcept { return registry_; }

  // -- snapshot (snapshot::Participant) -----------------------------------------
  [[nodiscard]] std::string section() const override { return "ring"; }
  [[nodiscard]] snapshot::Json save_state(std::string& error) const override;
  [[nodiscard]] std::string restore_state(const snapshot::Json& state) override;
  [[nodiscard]] bool owns(std::uint32_t kind) const override;

  // -- protocol introspection (tests) ------------------------------------------
  [[nodiscard]] ids::RingIndex cw_successor(ids::RingIndex i) const;
  [[nodiscard]] ids::RingIndex ccw_neighbor(ids::RingIndex i) const;

  /// True if following cw-successor pointers from any alive node visits every
  /// alive node exactly once and returns — i.e. no gap survived.
  [[nodiscard]] bool ring_connected() const;

  /// True while node `i` believes `peer` is dead (timeout- or
  /// gossip-inferred; the liveness plane does not distinguish for routing).
  [[nodiscard]] bool suspects(ids::RingIndex i, ids::RingIndex peer) const;

  /// The unified suspicion store (DESIGN.md §11); read-only introspection
  /// for tests and benches.
  [[nodiscard]] const liveness::LivenessView& liveness() const noexcept {
    return liveness_;
  }

  [[nodiscard]] std::uint64_t probes_sent() const noexcept { return probes_sent_.value(); }
  [[nodiscard]] std::uint64_t repairs_sent() const noexcept { return repairs_sent_.value(); }
  [[nodiscard]] std::uint64_t claims_sent() const noexcept { return claims_sent_.value(); }
  /// Messages suppressed by the link filter (severed-link traffic).
  [[nodiscard]] std::uint64_t messages_link_dropped() const noexcept {
    return transport_.messages_link_dropped();
  }

  // -- queries -------------------------------------------------------------------
  struct QueryOutcome {
    bool done = false;
    bool delivered = false;
    std::uint32_t hops = 0;
    Ticks completed_at = 0;
  };

  /// Injects a query at `from` destined to overlay node `od`; returns its id.
  std::uint64_t inject_query(ids::RingIndex from, ids::RingIndex od);
  [[nodiscard]] const QueryOutcome& query(std::uint64_t qid) const;

  // -- client-driven queries (sim/query_client.hpp) -------------------------------
  /// The ordered next-hop candidates node `at` would offer a query toward
  /// overlay destination `od`, from its local table and suspicion state only
  /// (no liveness oracle). Flips `backward` when greedy progress is
  /// exhausted, exactly as Algorithm 3 line 14 does for in-network queries.
  [[nodiscard]] std::vector<ids::RingIndex> route_candidates(ids::RingIndex at,
                                                             ids::RingIndex od,
                                                             bool& backward) const;

  /// One custody-transfer attempt from `at` to `to` on behalf of an external
  /// query client: rides the transport's ack/timeout primitive, so exactly
  /// one of the callbacks fires. The receiving node takes no protocol action.
  /// Uses opaque (closure) callbacks: snapshotting is unavailable while one
  /// is outstanding.
  void client_attempt(ids::RingIndex at, ids::RingIndex to, std::function<void()> on_ack,
                      std::function<void()> on_timeout);

 private:
  struct Message {
    enum class Type : std::uint8_t {
      kProbe,
      kCcwInfo,  ///< probe response: "my counter-clockwise neighbor is msg.origin"
      kNeighborClaim,
      kRepair,
      kQuery,
      kClientHop,  ///< client-driven custody transfer; only the ack matters
    };
    Type type = Type::kProbe;
    ids::RingIndex origin = 0;  ///< Repair: the gap-side originator
    /// Causal id: the query's qid, or the repair id minted by
    /// start_active_recovery() (carried by Repair and its closing
    /// NeighborClaim so a recovery episode traces end to end).
    std::uint64_t qid = 0;
    ids::RingIndex od = 0;   ///< Query: overlay destination
    bool backward = false;   ///< Query: Algorithm 3 mode bit
    std::uint32_t hops = 0;  ///< Query: hops so far
  };

  struct Node {
    bool alive = true;
    overlay::RoutingTable table{0, 1};
    ids::RingIndex cw_succ = 0;
    ids::RingIndex ccw = 0;
    bool ccw_suspected = false;
    bool awaiting_claim = false;
    std::uint32_t cw_miss_count = 0;   ///< consecutive failed probes of cw_succ
    std::uint32_t ccw_miss_count = 0;  ///< consecutive failed probes of ccw
    std::uint64_t awaiting_check_event = 0;
    /// Round-robin position in this node's suspicion rows (liveness_).
    ids::RingIndex refresh_cursor = 0;
  };

  // Message <-> u64 words (transport snapshot codec; encode appends).
  static void encode_message(const Message& msg, std::vector<std::uint64_t>& out);
  static Message decode_message(const std::uint64_t* words, std::size_t count);

  /// Executes one ring-block event or continuation — the runner this
  /// simulation claims, for the live path and the restore path alike.
  void run_continuation(std::uint32_t kind, const std::uint64_t* args, std::size_t count);

  void handle(ids::RingIndex at, ids::RingIndex from, const Message& msg);

  // Probing and recovery. The *_ack / *_timeout methods are the bodies of
  // continuations; their arguments mirror the continuation args.
  /// Sends one probe (counted and traced) with its ack/timeout continuations.
  void send_probe(ids::RingIndex from, ids::RingIndex to, snapshot::Described on_ack,
                  snapshot::Described on_timeout);
  void schedule_probe(ids::RingIndex i, Ticks delay);
  void probe_cycle(ids::RingIndex i);
  void cw_probe_timeout(ids::RingIndex i, ids::RingIndex succ);
  void ccw_probe_timeout(ids::RingIndex i, ids::RingIndex ccw);
  void refresh_suspected(ids::RingIndex i);
  void on_suspect_recovered(ids::RingIndex i, ids::RingIndex peer);
  void advance_cw_successor(ids::RingIndex i, std::vector<ids::RingIndex> candidates);
  void advance_ack(ids::RingIndex i, ids::RingIndex candidate);
  /// Whether `i` takes `candidate` as its clockwise successor: only when the
  /// current one is suspected or `candidate` is strictly closer clockwise.
  [[nodiscard]] bool adopts_successor(ids::RingIndex i, ids::RingIndex candidate) const;
  void ccw_silence_check(ids::RingIndex i);
  void start_active_recovery(ids::RingIndex origin);
  void forward_repair(ids::RingIndex at, ids::RingIndex origin, std::uint64_t rid);
  void repair_attempt(ids::RingIndex at, ids::RingIndex origin, std::uint64_t rid,
                      std::vector<ids::RingIndex> remaining);
  void attach_repair(ids::RingIndex at, ids::RingIndex origin, std::uint64_t rid);

  /// Marks `peer` suspected at node `i` (with the trace event); the
  /// scattered timeout handlers all funnel through here.
  void suspect_peer(ids::RingIndex i, ids::RingIndex peer);

  // Gossip evidence source: digest construction/adoption hooks installed on
  // the transport when config_.liveness.mode == kGossip.
  void build_digest_words(ids::RingIndex from, std::vector<std::uint64_t>& out);
  void apply_digest_words(ids::RingIndex at, ids::RingIndex from,
                          const std::uint64_t* words, std::size_t count);

  // Queries.
  void process_query(ids::RingIndex at, Message msg);
  void try_query_candidates(ids::RingIndex at, Message msg,
                            std::vector<ids::RingIndex> candidates);
  void finish_query(std::uint64_t qid, bool delivered, std::uint32_t hops);

  RingSimConfig config_;
  Simulator sim_;
  rng::Xoshiro256 rng_;
  std::vector<Node> nodes_;
  Transport<Message> transport_;
  liveness::LivenessView liveness_;

  std::uint64_t next_qid_ = 1;
  std::uint64_t next_rid_ = 1;  ///< repair-episode causal ids
  std::map<std::uint64_t, QueryOutcome> queries_;

  trace::Registry registry_;
  trace::Tracer* trace_ = nullptr;
  trace::Counter probes_sent_;
  trace::Counter repairs_sent_;
  trace::Counter claims_sent_;
  // Registered only in gossip mode so the probe-only registry (and its
  // snapshot serialization) stays byte-identical to the legacy format.
  std::optional<trace::Counter> digests_sent_;
  std::optional<trace::Counter> digest_entries_sent_;
  std::optional<trace::Counter> gossip_adopted_;
};

}  // namespace hours::sim
