// Client resolver: TTL answer caching in front of the routed lookup
// (Section 7's caching discussion), as a single client runs it — a
// ConcurrentResolver with one shard.
#include <gtest/gtest.h>

#include "hours/concurrent_resolver.hpp"

namespace hours {
namespace {

constexpr unsigned kOneShard = 1;

struct Fixture {
  HoursSystem sys;
  Fixture() {
    HoursConfig cfg;
    cfg.overlay.k = 3;
    cfg.overlay.q = 2;
    for (const char* zone : {"red", "green", "blue", "cyan"}) {
      sys.admit(zone);
      for (const char* host : {"a", "b"}) {
        const std::string n = std::string{host} + "." + zone;
        sys.admit(n);
        sys.add_record(n, store::Record{"A", "10.0.0." + std::string{host}, 100});
      }
    }
  }
};

TEST(HoursDataPlane, LookupReturnsRecords) {
  Fixture f;
  const auto r = f.sys.lookup("a.red");
  ASSERT_TRUE(r.query.delivered);
  ASSERT_EQ(r.records.size(), 1U);
  EXPECT_EQ(r.records[0].type, "A");
}

TEST(HoursDataPlane, RecordsRequireAdmittedOwner) {
  Fixture f;
  EXPECT_FALSE(f.sys.add_record("ghost.red", store::Record{"A", "x", 1}).ok());
  EXPECT_TRUE(f.sys.add_record("b.blue", store::Record{"TXT", "x", 1}).ok());
}

TEST(HoursDataPlane, LookupOfNodeWithoutRecords) {
  Fixture f;
  const auto r = f.sys.lookup("red");
  EXPECT_TRUE(r.query.delivered);
  EXPECT_TRUE(r.records.empty());
}

TEST(Resolver, CachesWithinTtl) {
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};

  const auto first = resolver.resolve("a.red", 0);
  ASSERT_TRUE(first.answered);
  EXPECT_FALSE(first.from_cache);
  EXPECT_GT(first.hops, 0U);

  const auto second = resolver.resolve("a.red", 50);  // within ttl=100
  ASSERT_TRUE(second.answered);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.hops, 0U);
  EXPECT_EQ(second.records, first.records);

  const auto third = resolver.resolve("a.red", 150);  // expired
  ASSERT_TRUE(third.answered);
  EXPECT_FALSE(third.from_cache);

  EXPECT_EQ(resolver.stats().cache_hits, 1U);
  EXPECT_EQ(resolver.stats().cache_misses, 2U);
}

TEST(Resolver, CachedAnswersSurviveTotalOutage) {
  // The paper's point about caching being opportunistic: cached names keep
  // resolving through an outage, anything else fails.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};
  ASSERT_TRUE(resolver.resolve("a.green", 0).answered);

  f.sys.set_alive(".", false);
  for (const char* zone : {"red", "green", "blue", "cyan"}) {
    f.sys.set_alive(zone, false);
  }

  EXPECT_TRUE(resolver.resolve("a.green", 10).answered);  // cache hit
  // Sibling of the cached node: bootstraps sideways through the (dead)
  // parent's child overlay — HOURS at work, not the cache.
  const auto sibling = resolver.resolve("b.green", 10);
  EXPECT_TRUE(sibling.answered);
  EXPECT_FALSE(sibling.from_cache);
  // A different zone is beyond reach: the only cached nodes sit under the
  // dead "green" and cannot climb out of it.
  EXPECT_FALSE(resolver.resolve("b.blue", 10).answered);
  EXPECT_EQ(resolver.stats().failures, 1U);
}

TEST(Resolver, CapacityEviction) {
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/2, kOneShard};
  ASSERT_TRUE(resolver.resolve("a.red", 0).answered);
  ASSERT_TRUE(resolver.resolve("a.green", 0).answered);
  ASSERT_TRUE(resolver.resolve("a.blue", 0).answered);  // evicts one
  EXPECT_LE(resolver.cached_names(), 2U);
  EXPECT_GE(resolver.stats().evictions, 1U);
}

TEST(Resolver, FailureIsNotCached) {
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};
  f.sys.set_alive("a.cyan", false);
  EXPECT_FALSE(resolver.resolve("a.cyan", 0).answered);
  f.sys.set_alive("a.cyan", true);
  const auto r = resolver.resolve("a.cyan", 1);
  EXPECT_TRUE(r.answered);
  EXPECT_FALSE(r.from_cache);
}

TEST(Resolver, FailureAccountingAndHitRateDenominator) {
  // Failures are forwarded-but-unanswered lookups; they must count in the
  // hit-rate denominator (an unavailable name is not a cache win).
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};
  f.sys.set_alive("a.cyan", false);
  EXPECT_FALSE(resolver.resolve("a.cyan", 0).answered);
  EXPECT_FALSE(resolver.resolve("a.cyan", 1).answered);
  ASSERT_TRUE(resolver.resolve("a.red", 2).answered);   // miss
  ASSERT_TRUE(resolver.resolve("a.red", 3).answered);   // hit
  EXPECT_EQ(resolver.stats().failures, 2U);
  EXPECT_EQ(resolver.stats().cache_misses, 1U);
  EXPECT_EQ(resolver.stats().cache_hits, 1U);
  EXPECT_DOUBLE_EQ(resolver.stats().hit_rate(), 0.25);
  // Failures leave no cache entry behind.
  EXPECT_FALSE(resolver.peek("a.cyan", 4, nullptr));
}

TEST(Resolver, EvictionPrefersExpiredThenEarliestExpiry) {
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/3, kOneShard};
  resolver.insert("short", 0, {store::Record{"A", "1", 10}});
  resolver.insert("mid", 0, {store::Record{"A", "2", 50}});
  resolver.insert("long", 0, {store::Record{"A", "3", 100}});
  ASSERT_EQ(resolver.cached_names(), 3U);

  // At t=20 "short" is expired; inserting under pressure drops exactly it.
  resolver.insert("fresh", 20, {store::Record{"A", "4", 100}});
  EXPECT_EQ(resolver.cached_names(), 3U);
  EXPECT_EQ(resolver.stats().evictions, 1U);
  EXPECT_FALSE(resolver.peek("short", 20, nullptr));
  EXPECT_TRUE(resolver.peek("mid", 20, nullptr));
  EXPECT_TRUE(resolver.peek("long", 20, nullptr));

  // Nothing expired now: the entry closest to expiry ("mid") is the victim.
  resolver.insert("newest", 20, {store::Record{"A", "5", 100}});
  EXPECT_EQ(resolver.cached_names(), 3U);
  EXPECT_EQ(resolver.stats().evictions, 2U);
  EXPECT_FALSE(resolver.peek("mid", 20, nullptr));
  EXPECT_TRUE(resolver.peek("long", 20, nullptr));
  EXPECT_TRUE(resolver.peek("newest", 20, nullptr));

  // "long" goes next; then "fresh", "last" and "newest" all expire at 120
  // and the smallest name is the victim.
  resolver.insert("last", 20, {store::Record{"A", "6", 100}});
  EXPECT_FALSE(resolver.peek("long", 20, nullptr));
  resolver.insert("later", 20, {store::Record{"A", "7", 100}});
  EXPECT_EQ(resolver.stats().evictions, 4U);
  EXPECT_FALSE(resolver.peek("fresh", 20, nullptr));
  EXPECT_TRUE(resolver.peek("last", 20, nullptr));
  EXPECT_TRUE(resolver.peek("newest", 20, nullptr));
}

TEST(Resolver, OverwriteOfACachedNameNeverEvicts) {
  // A full cache re-inserting a name it holds replaces that entry in place;
  // no other live entry is dropped to make room.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/3, kOneShard};
  resolver.insert("x", 0, {store::Record{"A", "1", 100}});
  resolver.insert("y", 0, {store::Record{"A", "2", 100}});
  resolver.insert("z", 0, {store::Record{"A", "3", 100}});

  resolver.insert("y", 10, {store::Record{"A", "4", 100}});
  EXPECT_EQ(resolver.stats().evictions, 0U);
  EXPECT_EQ(resolver.cached_names(), 3U);
  std::vector<store::Record> y;
  EXPECT_TRUE(resolver.peek("x", 10, nullptr));
  ASSERT_TRUE(resolver.peek("y", 10, &y));
  EXPECT_EQ(y.at(0).value, "4");
  EXPECT_TRUE(resolver.peek("z", 10, nullptr));
}

TEST(Resolver, MultiRecordAnswerCachedUnderMinimumTtl) {
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/4, kOneShard};
  resolver.insert("multi", 0,
                  {store::Record{"A", "1", 80}, store::Record{"TXT", "t", 30}});
  EXPECT_TRUE(resolver.peek("multi", 29, nullptr));   // within the min TTL
  EXPECT_FALSE(resolver.peek("multi", 30, nullptr));  // the 30s record bounds it
}

TEST(Resolver, TtlOfSixtyIsNotASentinel) {
  // Regression: min_ttl() once started its accumulator at the 60s
  // no-records default, so a record whose TTL *was* 60 lost to any larger
  // sibling and {60, 300} stayed cached for 300s.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/4, kOneShard};
  resolver.insert("pair", 0,
                  {store::Record{"A", "1", 60}, store::Record{"TXT", "t", 300}});
  EXPECT_TRUE(resolver.peek("pair", 59, nullptr));
  EXPECT_FALSE(resolver.peek("pair", 60, nullptr));  // bounded by the 60s record

  // TTLs above 60 must still win over the empty-answer default...
  resolver.insert("slow", 0, {store::Record{"A", "1", 200}});
  EXPECT_TRUE(resolver.peek("slow", 199, nullptr));
  EXPECT_FALSE(resolver.peek("slow", 200, nullptr));
  // ...and an answer with no records still gets the 60s existence TTL.
  resolver.insert("bare", 0, {});
  EXPECT_TRUE(resolver.peek("bare", 59, nullptr));
  EXPECT_FALSE(resolver.peek("bare", 60, nullptr));
}

TEST(Resolver, ExpiryBoundaryIsExclusive) {
  // An entry expiring at T is stale *at* T, for peek and resolve alike.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};
  ASSERT_TRUE(resolver.resolve("a.red", 0).answered);  // ttl=100 -> expires_at=100
  EXPECT_TRUE(resolver.peek("a.red", 99, nullptr));
  EXPECT_FALSE(resolver.peek("a.red", 100, nullptr));

  const auto at_expiry = resolver.resolve("a.red", 100);
  ASSERT_TRUE(at_expiry.answered);
  EXPECT_FALSE(at_expiry.from_cache);  // refetched, not served stale
  EXPECT_EQ(resolver.stats().cache_hits, 0U);
  EXPECT_EQ(resolver.stats().cache_misses, 2U);
}

TEST(Resolver, EvictionCountsEveryExpiredDrop) {
  // A single insert under capacity pressure may sweep several expired
  // entries; each one is an eviction, not just the first.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/3, kOneShard};
  resolver.insert("e1", 0, {store::Record{"A", "1", 5}});
  resolver.insert("e2", 0, {store::Record{"A", "2", 10}});
  resolver.insert("e3", 0, {store::Record{"A", "3", 15}});
  ASSERT_EQ(resolver.cached_names(), 3U);

  resolver.insert("fresh", 50, {store::Record{"A", "4", 100}});  // all three expired
  EXPECT_EQ(resolver.stats().evictions, 3U);
  EXPECT_EQ(resolver.cached_names(), 1U);
  EXPECT_TRUE(resolver.peek("fresh", 50, nullptr));

  // No expired entries now: exactly one (earliest-expiry) victim.
  resolver.insert("f2", 50, {store::Record{"A", "5", 200}});
  resolver.insert("f3", 50, {store::Record{"A", "6", 300}});
  resolver.insert("f4", 50, {store::Record{"A", "7", 400}});
  EXPECT_EQ(resolver.stats().evictions, 4U);
  EXPECT_EQ(resolver.cached_names(), 3U);
  EXPECT_FALSE(resolver.peek("fresh", 50, nullptr));  // closest expiry lost
}

TEST(Resolver, BackendClockDrivesTtlExpiry) {
  // Resolving at system.now() puts cache TTLs on the backend timeline, so
  // advancing the clock ages entries.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};
  const auto first = resolver.resolve("a.red", f.sys.now());
  ASSERT_TRUE(first.answered);
  EXPECT_FALSE(first.from_cache);

  f.sys.advance(99);  // ttl=100, still fresh
  EXPECT_TRUE(resolver.resolve("a.red", f.sys.now()).from_cache);
  EXPECT_TRUE(resolver.peek("a.red", f.sys.now(), nullptr));

  f.sys.advance(1);  // now == expires_at
  EXPECT_FALSE(resolver.peek("a.red", f.sys.now(), nullptr));
  const auto refreshed = resolver.resolve("a.red", f.sys.now());
  ASSERT_TRUE(refreshed.answered);
  EXPECT_FALSE(refreshed.from_cache);
}

TEST(Resolver, CacheSurvivesBackendSwapAndExpiresAcrossClockJump) {
  // Swapping engines carries the clock forward, so cached answers stay
  // valid across the swap; a large advance() on the new backend then ages
  // them out like any other passage of time.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};
  ASSERT_TRUE(resolver.resolve("a.red", f.sys.now()).answered);  // graph backend, t=0

  f.sys.use_event_backend();
  ASSERT_EQ(f.sys.now(), 0U);
  EXPECT_TRUE(resolver.resolve("a.red", f.sys.now()).from_cache);  // swap kept the entry live

  f.sys.advance(250);  // clock jump far past the 100s TTL
  EXPECT_FALSE(resolver.peek("a.red", f.sys.now(), nullptr));
  const auto after_jump = resolver.resolve("a.red", f.sys.now());
  ASSERT_TRUE(after_jump.answered);
  EXPECT_FALSE(after_jump.from_cache);  // re-routed through the event engine
  EXPECT_EQ(resolver.stats().cache_hits, 1U);
  EXPECT_EQ(resolver.stats().cache_misses, 2U);
}

TEST(Resolver, PeekDoesNotMutateStats) {
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};
  ASSERT_TRUE(resolver.resolve("a.red", 0).answered);
  const auto before = resolver.stats();

  ASSERT_TRUE(resolver.peek("a.red", 1, nullptr));      // fresh hit
  EXPECT_FALSE(resolver.peek("a.green", 1, nullptr));   // absent
  EXPECT_FALSE(resolver.peek("a.red", 1000, nullptr));  // expired

  EXPECT_EQ(resolver.stats().cache_hits, before.cache_hits);
  EXPECT_EQ(resolver.stats().cache_misses, before.cache_misses);
  EXPECT_EQ(resolver.stats().failures, before.failures);
  EXPECT_EQ(resolver.stats().evictions, before.evictions);
  EXPECT_EQ(resolver.cached_names(), 1U);  // peek of an expired entry does not erase
}

TEST(Resolver, FailedOrRefusedRelookupDropsTheExpiredEntry) {
  // A lookup that fails, or that the defense refuses, erases the name's
  // expired entry and counts no eviction: the cache never keeps an answer
  // it could neither serve nor refresh.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/4, kOneShard};
  NegativeCacheDefenseConfig defense;
  defense.enabled = true;
  defense.distinct_miss_threshold = 1;  // every forwarded miss flags its zone
  resolver.set_defense(defense);
  ASSERT_TRUE(resolver.resolve("a.red", 0).answered);    // expires at 100
  ASSERT_TRUE(resolver.resolve("a.green", 0).answered);  // expires at 100
  ASSERT_EQ(resolver.cached_names(), 2U);

  f.sys.set_alive("a.red", false);
  EXPECT_FALSE(resolver.resolve("a.red", 150).answered);  // "red" unflagged since 60
  EXPECT_EQ(resolver.stats().failures, 1U);
  EXPECT_EQ(resolver.cached_names(), 1U);

  ASSERT_TRUE(resolver.resolve("b.green", 150).answered);   // flags "green" until 210
  EXPECT_FALSE(resolver.resolve("a.green", 160).answered);  // refused
  EXPECT_EQ(resolver.stats().refusals, 1U);
  EXPECT_FALSE(resolver.peek("a.green", 0, nullptr));
  EXPECT_TRUE(resolver.peek("b.green", 160, nullptr));
  EXPECT_EQ(resolver.cached_names(), 1U);
  EXPECT_EQ(resolver.stats().evictions, 0U);
}

TEST(Resolver, MaximalTtlDoesNotWrap) {
  // now + TTL saturates: an answer whose TTL is 2^64-1 stays fresh however
  // late it is cached, on the insert and the resolve path alike.
  Fixture f;
  constexpr std::uint64_t kForever = ~std::uint64_t{0};
  ASSERT_TRUE(f.sys.admit("z.red").ok());
  ASSERT_TRUE(f.sys.add_record("z.red", store::Record{"A", "10.0.0.z", kForever}).ok());
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};

  resolver.insert("inserted", 5, {store::Record{"A", "1", kForever}});
  EXPECT_TRUE(resolver.peek("inserted", 5, nullptr));
  EXPECT_TRUE(resolver.peek("inserted", kForever - 1, nullptr));

  ASSERT_TRUE(resolver.resolve("z.red", 5).answered);
  EXPECT_TRUE(resolver.resolve("z.red", 6).from_cache);
  EXPECT_TRUE(resolver.peek("z.red", kForever - 1, nullptr));
}

TEST(Resolver, ServesThroughCoordinatedStrike) {
  // End-to-end: records keep flowing while a zone and its ring neighborhood
  // are under a coordinated neighbor attack.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/1024, kOneShard};
  ASSERT_TRUE(f.sys.strike("red", attack::Strategy::kNeighbor, 2).ok());

  const auto r = resolver.resolve("a.red", 0);
  ASSERT_TRUE(r.answered);
  EXPECT_FALSE(r.from_cache);
  ASSERT_EQ(r.records.size(), 1U);

  ASSERT_TRUE(f.sys.lift_attack("red").ok());
  const auto healed = f.sys.query("a.red");
  ASSERT_TRUE(healed.delivered);
  EXPECT_EQ(healed.overlay_hops, 0U);
}

}  // namespace
}  // namespace hours
