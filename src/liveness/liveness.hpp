// Unified liveness plane: one per-simulation store for every "who do I
// currently distrust" decision (DESIGN.md §11).
//
// Suspicion used to be re-implemented four times — the ring's per-node
// std::set, the hierarchy's flat (node<<32)|peer expiry map, QueryClient's
// TTL map, and the event backend's silence inference riding on the
// hierarchy's — each with its own expiry convention. LivenessView keeps all
// of them in a single ordered map keyed (observer<<32)|peer whose entries
// carry {expiry, since, source}, exactly reproducing each call site's
// semantics:
//
//   * ring:        suspicion_ttl == 0 -> entries never expire; membership
//                  (contains) is the routing filter, cleared on any direct
//                  contact or revival;
//   * hierarchy /  suspicion_ttl != 0 -> an entry is active while
//     client:      expiry > now; expired entries stay in the map (and in
//                  snapshots) until overwritten or cleared, matching the
//                  historical maps bit for bit.
//
// Evidence sources form the pluggable seam: kProbe entries are local
// timeout inferences (today's only source), kGossip entries arrive in
// bounded digests piggybacked on existing transport traffic. `since`
// records when the evidence was first produced — digests re-broadcast the
// original observation time, so a rumor ages across hops and the
// digest_horizon bounds how far (in sim-time) it can propagate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "util/contracts.hpp"

namespace hours::liveness {

using Ticks = std::uint64_t;
using NodeId = std::uint32_t;

/// The one shared suspicion-TTL default. QueryClientConfig::suspicion_ttl,
/// EventBackendConfig::suspicion_ttl and HierarchySimConfig::suspicion_ttl
/// all default to this constant (regression-pinned in tests/liveness_test).
inline constexpr Ticks kDefaultSuspicionTtl = 4'000;

/// Entry expiry meaning "until explicitly cleared" (ring semantics, and the
/// ttl == 0 convention of the hierarchy/client maps).
inline constexpr Ticks kNeverExpires = ~Ticks{0};

/// Default bound on digest entries piggybacked per transport message.
inline constexpr std::uint32_t kDefaultDigestBudget = 4;

/// Default evidence-age cutoff: gossip entries whose original observation
/// is older than this many ticks are neither re-broadcast nor adopted.
inline constexpr Ticks kDefaultDigestHorizon = 16'000;

enum class Mode : std::uint8_t {
  kProbeOnly = 0,  ///< local timeout inference only (bit-exact legacy behavior)
  kGossip = 1,     ///< probe inference + piggybacked suspicion digests
};

enum class Source : std::uint8_t {
  kProbe = 0,   ///< local probe/attempt timeout
  kGossip = 1,  ///< adopted from a peer's digest
};

struct Config {
  Mode mode = Mode::kProbeOnly;
  std::uint32_t digest_budget = kDefaultDigestBudget;
  Ticks digest_horizon = kDefaultDigestHorizon;
};

struct Entry {
  Ticks expiry = kNeverExpires;  ///< active while kNeverExpires or > now
  Ticks since = 0;               ///< sim-time of the original evidence
  Source source = Source::kProbe;
};

/// One digest row on the wire: "someone observed `peer` silent at `since`".
struct DigestEntry {
  NodeId peer = 0;
  Ticks since = 0;
};

/// Peers one observer suspects at one instant, ascending, borrowed from
/// their owner. A query client hands its own to candidate generation,
/// which leaves them out as it pushes instead of filtering afterwards.
struct SuspectSet {
  std::span<const NodeId> peers;

  [[nodiscard]] bool contains(NodeId peer) const {
    return !peers.empty() && std::binary_search(peers.begin(), peers.end(), peer);
  }
  /// The members in [lo, hi): a generator pushing ids of one range
  /// searches only these, usually none.
  [[nodiscard]] SuspectSet within(NodeId lo, NodeId hi) const {
    const auto first = std::lower_bound(peers.begin(), peers.end(), lo);
    return {{first, std::lower_bound(first, peers.end(), hi)}};
  }
};

class LivenessView {
 public:
  explicit LivenessView(Config config = {}, Ticks suspicion_ttl = 0)
      : config_(config), ttl_(suspicion_ttl) {}

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] Ticks suspicion_ttl() const noexcept { return ttl_; }
  [[nodiscard]] bool gossip_enabled() const noexcept {
    return config_.mode == Mode::kGossip;
  }

  /// Local (probe) suspicion: overwrites any existing entry with expiry
  /// now+ttl (kNeverExpires when ttl == 0) and since = now. Returns true
  /// when the row was newly inserted — the ring traces only on insertion.
  bool suspect(NodeId observer, NodeId peer, Ticks now) {
    auto [it, inserted] = rows_.insert_or_assign(
        key(observer, peer), Entry{expiry_at(now), now, Source::kProbe});
    (void)it;
    return inserted;
  }

  /// Gossip adoption: inserts only when the row is absent, preserving the
  /// rumor's original observation time so it ages across hops. Returns
  /// false (no-op) when the observer already holds any entry for the peer.
  bool adopt(NodeId observer, NodeId peer, Ticks since, Ticks now) {
    return rows_.emplace(key(observer, peer), Entry{expiry_at(now), since, Source::kGossip})
        .second;
  }

  /// Raw membership, ignoring expiry — the ring's routing filter (its
  /// entries never expire, so membership and activeness coincide).
  [[nodiscard]] bool contains(NodeId observer, NodeId peer) const {
    return rows_.count(key(observer, peer)) != 0;
  }

  /// TTL-filtered activeness — the hierarchy/client filter. Expired rows
  /// remain in the map (and in snapshots) until overwritten or cleared.
  [[nodiscard]] bool is_suspected(NodeId observer, NodeId peer, Ticks now) const {
    const auto it = rows_.find(key(observer, peer));
    return it != rows_.end() && active(it->second, now);
  }

  /// The peers in [lo, hi] (both inclusive) that `observer` suspects at
  /// `now`, ascending: one lower_bound, then a walk over that observer's
  /// rows in the range. Activeness is exactly is_suspected's, so filtering
  /// a candidate list against this set equals one is_suspected per entry.
  [[nodiscard]] std::vector<NodeId> active_in(NodeId observer, NodeId lo, NodeId hi,
                                              Ticks now) const;

  /// Overwrites `out` with every peer `observer` suspects at `now`,
  /// ascending, and returns when that set next changes by itself: the
  /// earliest expiry among its rows (kNeverExpires when none expires).
  /// Before then only suspect, adopt and clear change it.
  Ticks active_set(NodeId observer, Ticks now, std::vector<NodeId>& out) const;

  /// Erases one row (proof of life); returns whether it existed.
  bool clear(NodeId observer, NodeId peer) {
    return rows_.erase(key(observer, peer)) != 0;
  }

  /// Drops everything `observer` suspects (ring revival of the observer).
  void clear_observer(NodeId observer) {
    rows_.erase(rows_.lower_bound(key(observer, 0)),
                observer == ~NodeId{0} ? rows_.end()
                                       : rows_.lower_bound(key(observer + 1, 0)));
  }

  /// Drops every observer's entry for `peer` (hierarchy revival: the node
  /// is authoritatively back, all stale suspicion of it is cleared).
  void clear_peer(NodeId peer) {
    for (auto it = rows_.begin(); it != rows_.end();) {
      if (static_cast<NodeId>(it->first & 0xFFFFFFFFULL) == peer) {
        it = rows_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void clear_all() noexcept { rows_.clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }

  [[nodiscard]] std::size_t count_observer(NodeId observer) const {
    return static_cast<std::size_t>(
        std::distance(rows_.lower_bound(key(observer, 0)),
                      observer == ~NodeId{0} ? rows_.end()
                                             : rows_.lower_bound(key(observer + 1, 0))));
  }

  [[nodiscard]] bool observer_empty(NodeId observer) const {
    const auto it = rows_.lower_bound(key(observer, 0));
    return it == rows_.end() || static_cast<NodeId>(it->first >> 32) != observer;
  }

  /// Round-robin helper for the ring's suspicion refresh: the smallest
  /// suspected peer >= cursor, wrapping to the observer's smallest entry.
  /// Requires !observer_empty(observer).
  [[nodiscard]] NodeId next_at_or_after(NodeId observer, NodeId cursor) const {
    auto it = rows_.lower_bound(key(observer, cursor));
    if (it == rows_.end() || static_cast<NodeId>(it->first >> 32) != observer) {
      it = rows_.lower_bound(key(observer, 0));
    }
    return static_cast<NodeId>(it->first & 0xFFFFFFFFULL);
  }

  /// Ascending (observer, peer) iteration — snapshot serialization order,
  /// identical to the historical flat maps' key order.
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& [k, entry] : rows_) {
      f(static_cast<NodeId>(k >> 32), static_cast<NodeId>(k & 0xFFFFFFFFULL), entry);
    }
  }

  /// Ascending peer iteration over one observer's rows.
  template <typename F>
  void for_each_observer(NodeId observer, F&& f) const {
    for (auto it = rows_.lower_bound(key(observer, 0));
         it != rows_.end() && static_cast<NodeId>(it->first >> 32) == observer; ++it) {
      f(static_cast<NodeId>(it->first & 0xFFFFFFFFULL), it->second);
    }
  }

  /// The bounded digest `observer` piggybacks on outgoing traffic: its
  /// freshest active entries whose evidence is within digest_horizon,
  /// ordered (since desc, peer asc), truncated to digest_budget.
  [[nodiscard]] std::vector<DigestEntry> build_digest(NodeId observer, Ticks now) const;

  /// True when a digest row is still worth spreading/adopting at `now`.
  [[nodiscard]] bool within_horizon(Ticks since, Ticks now) const noexcept {
    return since + config_.digest_horizon > now;
  }

  // -- the digest wire codec: [peer, since] word pairs on transport frames ----------

  /// Appends build_digest(observer, now) to `out` as [peer, since] word
  /// pairs; returns the entry count (0 leaves `out` untouched).
  std::size_t append_digest(NodeId observer, Ticks now, std::vector<std::uint64_t>& out) const;

  /// Adopts a received digest, `count` words of [peer, since] pairs sent by
  /// `sender`, into `observer`'s rows. Skips the observer itself, the
  /// sender (its frame proves it alive), peers outside [lo, hi), rumors past
  /// the horizon, and peers the observer already holds a row for. Calls
  /// on_adopt(peer, since) once per adopted row; returns the adopted count.
  template <typename F>
  std::uint64_t adopt_digest(NodeId observer, NodeId sender, const std::uint64_t* words,
                             std::size_t count, NodeId lo, NodeId hi, Ticks now,
                             F&& on_adopt) {
    HOURS_EXPECTS(count % 2 == 0);
    std::uint64_t adopted = 0;
    for (std::size_t k = 0; k + 1 < count; k += 2) {
      const auto peer = static_cast<NodeId>(words[k]);
      const Ticks since = words[k + 1];
      if (peer == observer || peer == sender || peer < lo || peer >= hi) continue;
      if (!within_horizon(since, now) || !adopt(observer, peer, since, now)) continue;
      ++adopted;
      on_adopt(peer, since);
    }
    return adopted;
  }

  /// Snapshot restore: installs a row verbatim (expiry/since/source as
  /// saved), bypassing the ttl computation.
  void restore_row(NodeId observer, NodeId peer, Entry entry) {
    rows_[key(observer, peer)] = entry;
  }

 private:
  [[nodiscard]] static std::uint64_t key(NodeId observer, NodeId peer) noexcept {
    return (static_cast<std::uint64_t>(observer) << 32) | peer;
  }
  [[nodiscard]] Ticks expiry_at(Ticks now) const noexcept {
    return ttl_ == 0 ? kNeverExpires : now + ttl_;
  }
  [[nodiscard]] static bool active(const Entry& entry, Ticks now) noexcept {
    return entry.expiry == kNeverExpires || entry.expiry > now;
  }

  Config config_;
  Ticks ttl_;
  std::map<std::uint64_t, Entry> rows_;
};

}  // namespace hours::liveness
