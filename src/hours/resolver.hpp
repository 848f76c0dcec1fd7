// Client-side resolver with answer caching (Section 7, "Query Bootstrapping
// and Caching"; related-work discussion of [Breslau99]/[Jung01]).
//
// The paper is explicit that caching is *complementary* to HOURS: it gives
// only opportunistic resolution (hit rates depend on the query pattern),
// while HOURS assures forwarding of arbitrary queries. A client's resolver
// is a TTL-bounded answer cache (ConcurrentResolver) in front of
// HoursSystem::lookup, with the hit/miss/failure accounting declared here
// so the caching study can quantify exactly that claim.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "store/record_store.hpp"

namespace hours {

/// Minimum TTL over an answer's records; answers without records get a
/// short negative-style TTL (60s) so existence checks still benefit. No
/// sentinel: a record whose TTL *is* 60 participates in the minimum like
/// any other value.
[[nodiscard]] std::uint64_t answer_min_ttl(const std::vector<store::Record>& records) noexcept;

struct ResolverStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;    ///< forwarded to the hierarchy, answered
  std::uint64_t failures = 0;        ///< forwarded, not answered
  std::uint64_t evictions = 0;
  std::uint64_t refusals = 0;        ///< denied by the negative-cache defense
  std::uint64_t zones_flagged = 0;   ///< zone flag transitions by the defense

  [[nodiscard]] double hit_rate() const noexcept {
    const auto total = cache_hits + cache_misses + failures;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

/// Cache-busting defense knobs (DESIGN.md §11). A zone that accumulates
/// `distinct_miss_threshold` distinct forwarded-miss names within `window`
/// seconds is flagged for `flag_ttl` seconds; queries for a flagged zone are
/// refused at the resolver edge instead of costing an authoritative lookup
/// and a cache eviction. Legitimate traffic re-asks a bounded name set, so
/// it never crosses the distinct-name threshold; the random-query-string
/// attacker crosses it almost immediately.
struct NegativeCacheDefenseConfig {
  bool enabled = false;
  std::uint64_t distinct_miss_threshold = 32;
  std::uint64_t window = 10;    ///< seconds of miss history per zone
  std::uint64_t flag_ttl = 60;  ///< seconds a flagged zone stays refused
};

/// The shared evidence of the cache-busting defense: a per-zone digest of
/// recent distinct forwarded-miss names plus the flagged set they imply.
/// One digest backs every shard of a ConcurrentResolver, so any shard
/// detecting a burst protects all — the cache analogue of the liveness
/// plane's suspicion digests. Internally synchronized; soft state only
/// (never snapshotted — a restored resolver re-learns it within one window).
class NegativeCacheDigest {
 public:
  explicit NegativeCacheDigest(NegativeCacheDefenseConfig config) : config_(config) {}

  /// True while `zone` is flagged at time `now`.
  [[nodiscard]] bool flagged(std::string_view zone, std::uint64_t now) const;

  /// Records one forwarded miss for `name` in `zone`; returns true when this
  /// miss crosses the distinct-name threshold and flags the zone.
  bool record_miss(std::string_view zone, std::string_view name, std::uint64_t now);

  /// Flag transitions so far (ResolverStats::zones_flagged).
  [[nodiscard]] std::uint64_t zones_flagged() const;

  /// The zone a name belongs to: the suffix after its first label
  /// ("h3.cb" -> "cb", "a.b.c" -> "b.c"), or the whole name when top-level.
  [[nodiscard]] static std::string_view zone_of(std::string_view name) noexcept;

 private:
  struct ZoneTrack {
    /// Distinct recently-missed names and their last forwarded-miss time;
    /// bounded by the threshold (cleared on every flag transition).
    std::map<std::string, std::uint64_t, std::less<>> recent;
    std::uint64_t flagged_until = 0;
  };

  NegativeCacheDefenseConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, ZoneTrack, std::less<>> zones_;
  std::uint64_t zones_flagged_ = 0;
};

struct ResolveResult {
  bool answered = false;
  bool from_cache = false;
  std::uint32_t hops = 0;  ///< 0 on a cache hit
  std::vector<store::Record> records;
};

}  // namespace hours
