// End-to-end query client with retries, backoff, failover, and deadlines.
//
// The in-network query paths (ring_protocol, hierarchy_protocol) model a
// query as custody handed hop to hop; each relay walks its candidate list
// once per silence. A real resolver is more patient and more bounded: it
// retransmits an unanswered hop with capped exponential backoff (silence
// may be loss, not death), fails over to an alternate pointer only after
// the retry budget is spent, remembers timeout-inferred suspicion across
// queries, and gives up when an end-to-end deadline expires — whichever
// comes first. This client drives exactly that policy from outside the
// network, one transport-level attempt at a time, against any simulation
// exposing the QueryNetwork hooks. All liveness knowledge is inferred from
// silence; there is no oracle anywhere on the path.
//
// Determinism: backoff jitter comes from a client-owned seeded generator,
// so a fixed (network seed, client seed) pair replays bit-identically.
//
// Events: the client claims the query-client kind block (0x500) on its
// simulator, so a simulator hosts one client. Its timers and hop
// continuations are one-word events carrying the qid. The client is not a
// snapshot participant, so a save refuses while one is queued or pending.
//
// One attempt outstanding: a query makes at most one transport attempt at
// a time, and QueryState::current is that attempt's target until one of
// its two continuations runs (a retransmission re-attempts the same target
// after its backoff; only a continuation moves `current` on). They carry
// just the qid and read the target from the query, so a hop attempt
// allocates nothing. The try-list is consumed through a cursor, not by
// erasing its head.
//
// One pass per plan: the destination's route (QueryNetwork::route_of) is
// derived once per query, and the network's generator writes the try-list
// into the query's own vector, leaving the client's suspects out as it
// pushes. The suspect set is a sorted copy of the client's view, rebuilt
// only when a suspicion is added or cleared or its earliest row expires.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "liveness/liveness.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/simulator.hpp"
#include "snapshot/described.hpp"
#include "trace/registry.hpp"
#include "trace/sink.hpp"

namespace hours::sim {

class RingSimulation;
class HierarchySimulation;

/// The hooks a simulation exposes to be queried by a client.
struct QueryNetwork {
  Simulator* sim = nullptr;
  std::uint32_t node_count = 0;
  /// One custody-transfer attempt; exactly one continuation runs.
  std::function<void(std::uint32_t from, std::uint32_t to, snapshot::DescribedView on_ack,
                     snapshot::DescribedView on_timeout)>
      attempt;
  /// What `candidates` needs to know of `dest`, derived once per query
  /// (the hierarchy: dest's path). Optional: without it `route` is empty.
  std::function<void(std::uint32_t dest, std::vector<std::uint32_t>& route)> route_of;
  /// Overwrites `out` with the ordered next-hop candidates `at` offers
  /// toward `dest` (`route` is route_of's), minus the client's suspects in
  /// `drop`; may flip `backward` (Algorithm 3 line 14) exactly as it would
  /// with `drop` empty.
  std::function<void(std::uint32_t at, std::uint32_t dest,
                     const std::vector<std::uint32_t>& route, bool& backward,
                     liveness::SuspectSet drop, std::vector<std::uint32_t>& out)>
      candidates;
  std::function<bool(std::uint32_t at, std::uint32_t dest)> is_destination;
  /// Whether a hop from `a` to `b` stays in one overlay; a hop that leaves
  /// it ends backward mode.
  std::function<bool(std::uint32_t a, std::uint32_t b)> same_overlay;
};

/// Ring adapter: destinations are ring indices.
[[nodiscard]] QueryNetwork make_query_network(RingSimulation& ring);
/// Hierarchy adapter: destinations are node ids (HierarchySimulation::id_of).
[[nodiscard]] QueryNetwork make_query_network(HierarchySimulation& hierarchy);

struct QueryClientConfig {
  /// Retransmissions of one hop after its first attempt, before the next-hop
  /// candidate is declared suspect and the client fails over.
  std::uint32_t max_retries_per_hop = 2;
  Ticks backoff_base = 200;   ///< delay before the first retransmission
  Ticks backoff_cap = 1'600;  ///< exponential growth is clamped here
  /// Each backoff delay is scaled by a deterministic factor drawn uniformly
  /// from [1 - jitter, 1 + jitter].
  double jitter = 0.25;
  /// End-to-end budget per query, measured from submission (0 = unbounded).
  Ticks deadline = 0;
  /// Hop budget (0 = 4 * node_count + 64, matching the in-network engines).
  std::uint32_t max_hops = 0;
  /// How long a timeout keeps a peer suspected client-side (0 = forever).
  Ticks suspicion_ttl = liveness::kDefaultSuspicionTtl;
  std::uint64_t seed = 0xC11E57ULL;
};

enum class QueryStatus : std::uint8_t {
  kPending,
  kDelivered,
  kDeadlineExceeded,
  kNoRoute,  ///< every known pointer is suspect; no path worth retrying
};

struct ClientQueryOutcome {
  QueryStatus status = QueryStatus::kPending;
  std::uint32_t hops = 0;             ///< successful custody transfers
  std::uint32_t retransmissions = 0;  ///< repeat attempts of an unanswered hop
  std::uint32_t failovers = 0;        ///< alternate pointers taken after retry exhaustion
  Ticks issued_at = 0;
  Ticks completed_at = 0;
  [[nodiscard]] Ticks latency() const noexcept { return completed_at - issued_at; }
};

/// Aggregate view over the client's registry counters ("client.*").
struct QueryClientStats {
  std::uint64_t submitted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t no_route = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t failovers = 0;
};

class QueryClient {
 public:
  /// Claims the query-client kind block on `network.sim`, which must not
  /// have been claimed already; the client must outlive the simulator's use.
  QueryClient(QueryNetwork network, QueryClientConfig config);
  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Starts a query whose custody begins at `start`; returns its id. The
  /// simulation must then be run for the outcome to settle.
  std::uint64_t submit(std::uint32_t start, std::uint32_t dest);
  /// The same, for a caller that already holds QueryNetwork::route_of(dest)
  /// (EventBackend resolves the destination's path from its name).
  std::uint64_t submit(std::uint32_t start, std::uint32_t dest,
                       std::vector<std::uint32_t> route);

  /// The query's outcome; kPending until it settles. `qid` must be a
  /// submitted query that has not been released. One map lookup over the
  /// queries not yet released.
  [[nodiscard]] const ClientQueryOutcome& outcome(std::uint64_t qid) const;
  /// Forgets a settled query, so a long-running client holds only the
  /// queries its caller still reads. Afterwards outcome(qid) is invalid,
  /// and a hop continuation or retransmission still queued for the query
  /// finds nothing and returns, just as it returns for a settled one.
  void release(std::uint64_t qid);
  /// Snapshot assembled from the registry counters.
  [[nodiscard]] QueryClientStats stats() const noexcept;
  [[nodiscard]] const QueryClientConfig& config() const noexcept { return config_; }

  /// Attaches the trace stream (submit/retry/suspect/outcome events); null
  /// detaches. Must outlive the client.
  void set_tracer(trace::Tracer* tracer) { trace_ = tracer; }

  /// The client's counter/histogram registry ("client.submitted", ...,
  /// "client.delivered_latency").
  [[nodiscard]] trace::Registry& registry() noexcept { return registry_; }
  [[nodiscard]] const trace::Registry& registry() const noexcept { return registry_; }

  /// Currently suspected peers (timeout-inferred, TTL-bounded).
  [[nodiscard]] bool suspected(std::uint32_t node) const;

  /// The backoff delay (before jitter) preceding retransmission `retry`
  /// (1-based). Exposed for tests and docs.
  [[nodiscard]] Ticks base_backoff(std::uint32_t retry) const;

 private:
  struct QueryState {
    std::uint32_t dest = 0;
    std::uint32_t at = 0;  ///< current custody holder
    bool backward = false;
    std::vector<std::uint32_t> route;       ///< QueryNetwork::route_of(dest)
    std::vector<std::uint32_t> candidates;  ///< the try-list planned at `at`
    std::size_t next_candidate = 0;         ///< candidates[next_candidate..] remain
    std::uint32_t current = 0;              ///< target of the outstanding attempt
    std::uint32_t attempts = 0;             ///< attempts made for `current`
    std::uint32_t replans = 0;              ///< candidate recomputations at `at`
    std::uint64_t deadline_event = 0;
    ClientQueryOutcome out;
  };

  // Query `qid`'s steps; `q` is its state, still pending.
  void advance(std::uint64_t qid, QueryState& q);
  void attempt_current(std::uint64_t qid, QueryState& q);
  /// The outstanding attempt to q.current was acked / went unanswered.
  void on_ack(std::uint64_t qid, QueryState& q);
  void on_timeout(std::uint64_t qid, QueryState& q);
  void complete(std::uint64_t qid, QueryStatus status);
  void suspect(std::uint32_t node);
  /// The peers the client suspects now, for candidate planning.
  [[nodiscard]] liveness::SuspectSet plan_suspects();
  [[nodiscard]] std::uint32_t hop_budget() const noexcept;

  QueryNetwork network_;
  QueryClientConfig config_;
  rng::Xoshiro256 jitter_rng_;
  std::uint64_t next_qid_ = 1;
  std::map<std::uint64_t, QueryState> queries_;
  /// Unified liveness plane (DESIGN.md §11); the client is the sole
  /// observer, so every row is keyed under observer 0.
  liveness::LivenessView liveness_;
  /// liveness_'s active set as of the last plan, valid until
  /// `suspects_until_` unless a suspicion is added or cleared first (both
  /// reset it to 0), so most plans read no map row.
  std::vector<std::uint32_t> suspects_;
  Ticks suspects_until_ = 0;

  trace::Registry registry_;
  trace::Tracer* trace_ = nullptr;
  trace::Counter submitted_;
  trace::Counter delivered_;
  trace::Counter deadline_exceeded_;
  trace::Counter no_route_;
  trace::Counter retransmissions_;
  trace::Counter failovers_;
  metrics::Histogram* delivered_latency_ = nullptr;  ///< owned by registry_
};

}  // namespace hours::sim
