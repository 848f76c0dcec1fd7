// ConcurrentResolver: the sharded RCU-published answer cache in front of
// HoursSystem. Two kinds of coverage: (a) oracle equality — a
// single-threaded trace through ConcurrentResolver produces exactly the
// hit/miss/failure counts and cache size of an in-test reference model of
// the cache policy whenever capacity never binds, and with one shard
// exactly the model's answers, counters and cache contents under eviction
// pressure, failed re-lookups and defense refusals too; (b) TSan-exercised
// concurrency — lock-free readers racing inserts, evictions, TTL expiry and
// drops of expired entries, on private and on shared bucket chains (the
// `unit` label runs under the TSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hours/concurrent_resolver.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace hours {
namespace {

struct Fixture {
  HoursSystem sys;
  std::vector<std::string> names;  ///< every admitted host with a record
  Fixture() {
    for (const char* zone : {"red", "green", "blue", "cyan"}) {
      sys.admit(zone);
      for (const char* host : {"a", "b", "c"}) {
        const std::string n = std::string{host} + "." + zone;
        sys.admit(n);
        sys.add_record(n, store::Record{"A", "10.0.0." + std::string{host}, 100});
        names.push_back(n);
      }
    }
  }
};

/// Reference model of the answer-cache policy: a std::map keyed by name
/// that erases an expired entry when it is asked for it. Answers cached at
/// `now` expire at now + answer_min_ttl (saturating) and are stale from
/// then on; an overwrite never evicts; a fresh name over capacity drops
/// every expired entry, else the one closest to expiry, the first in name
/// order on a tie. The defense gates forwarded misses through a private
/// digest.
class ReferenceCache {
 public:
  ReferenceCache(HoursSystem& system, std::size_t capacity)
      : system_(system), capacity_(capacity) {}

  void set_defense(NegativeCacheDefenseConfig config) {
    defense_ = std::make_unique<NegativeCacheDigest>(config);
  }

  ResolveResult resolve(const std::string& name, std::uint64_t now) {
    ResolveResult result;
    bool stale = false;
    if (const auto it = cache_.find(name); it != cache_.end()) {
      if (it->second.expires_at > now) {
        ++stats_.cache_hits;
        result.answered = true;
        result.from_cache = true;
        result.records = it->second.records;
        return result;
      }
      cache_.erase(it);
      stale = true;
    }
    const auto zone = NegativeCacheDigest::zone_of(name);
    if (defense_ != nullptr && defense_->flagged(zone, now)) {
      ++stats_.refusals;
      if (stale) ++stale_refusals_;
      return result;
    }
    const auto looked_up = system_.lookup(name);
    result.hops = looked_up.query.hops;
    if (defense_ != nullptr) (void)defense_->record_miss(zone, name, now);
    if (!looked_up.query.delivered) {
      ++stats_.failures;
      if (stale) ++stale_failures_;
      return result;
    }
    ++stats_.cache_misses;
    result.answered = true;
    result.records = looked_up.records;
    insert(name, now, result.records);
    return result;
  }

  void insert(const std::string& name, std::uint64_t now, std::vector<store::Record> records) {
    constexpr std::uint64_t kNever = ~std::uint64_t{0};
    const std::uint64_t ttl = answer_min_ttl(records);
    const std::uint64_t expires_at = ttl > kNever - now ? kNever : now + ttl;
    if (const auto it = cache_.find(name); it != cache_.end()) {
      it->second = Entry{expires_at, std::move(records)};
      return;
    }
    if (cache_.size() >= capacity_) evict(now);
    cache_.emplace(name, Entry{expires_at, std::move(records)});
  }

  [[nodiscard]] const std::vector<store::Record>* peek(const std::string& name,
                                                       std::uint64_t now) const {
    const auto it = cache_.find(name);
    return it == cache_.end() || it->second.expires_at <= now ? nullptr : &it->second.records;
  }

  [[nodiscard]] ResolverStats stats() const {
    ResolverStats s = stats_;
    if (defense_ != nullptr) s.zones_flagged = defense_->zones_flagged();
    return s;
  }
  [[nodiscard]] std::size_t cached_names() const { return cache_.size(); }
  /// Expired entries erased by a resolve whose lookup then failed, or was
  /// refused: the calls on which the cache must drop what it cannot serve.
  [[nodiscard]] std::uint64_t stale_failures() const { return stale_failures_; }
  [[nodiscard]] std::uint64_t stale_refusals() const { return stale_refusals_; }

 private:
  struct Entry {
    std::uint64_t expires_at = 0;
    std::vector<store::Record> records;
  };

  void evict(std::uint64_t now) {
    std::size_t dropped = 0;
    for (auto it = cache_.begin(); it != cache_.end();) {
      if (it->second.expires_at <= now) {
        it = cache_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    if (dropped == 0 && !cache_.empty()) {
      auto victim = cache_.begin();
      for (auto it = cache_.begin(); it != cache_.end(); ++it) {
        if (it->second.expires_at < victim->second.expires_at) victim = it;
      }
      cache_.erase(victim);
      dropped = 1;
    }
    stats_.evictions += dropped;
  }

  HoursSystem& system_;
  std::size_t capacity_;
  std::map<std::string, Entry> cache_;
  ResolverStats stats_;
  std::uint64_t stale_failures_ = 0;
  std::uint64_t stale_refusals_ = 0;
  std::unique_ptr<NegativeCacheDigest> defense_;  ///< null = defense off
};

TEST(ConcurrentResolver, ResolveCachesAndExpiresLikeResolver) {
  Fixture f;
  ConcurrentResolver resolver{f.sys};

  const auto first = resolver.resolve("a.red", 0);
  ASSERT_TRUE(first.answered);
  EXPECT_FALSE(first.from_cache);
  EXPECT_GT(first.hops, 0U);

  const auto second = resolver.resolve("a.red", 50);  // within ttl=100
  ASSERT_TRUE(second.answered);
  EXPECT_TRUE(second.from_cache);
  EXPECT_EQ(second.hops, 0U);
  EXPECT_EQ(second.records, first.records);

  const auto third = resolver.resolve("a.red", 100);  // expiry is exclusive
  ASSERT_TRUE(third.answered);
  EXPECT_FALSE(third.from_cache);

  EXPECT_EQ(resolver.stats().cache_hits, 1U);
  EXPECT_EQ(resolver.stats().cache_misses, 2U);
}

TEST(ConcurrentResolver, SingleThreadedTraceMatchesResolverOracle) {
  // Drive an identical pseudo-random trace (names, times, an outage window)
  // through the reference model and a four-shard ConcurrentResolver.
  // Capacity never binds, so the shard-local eviction difference is out of
  // play and every counter and the cache size must agree exactly.
  Fixture oracle_fixture;
  Fixture subject_fixture;
  ReferenceCache oracle{oracle_fixture.sys, /*capacity=*/1024};
  ConcurrentResolver subject{subject_fixture.sys, /*capacity=*/1024, /*shard_count=*/4};

  const auto drive = [&](std::uint64_t step, HoursSystem& sys,
                         const std::vector<std::string>& names,
                         auto&& resolve) {
    rng::Xoshiro256 g{rng::mix64(0xACE5, step)};
    if (step == 40) sys.set_alive("a.cyan", false);
    if (step == 120) sys.set_alive("a.cyan", true);
    const auto& name = names[g.below(names.size())];
    // Time advances slowly relative to the 100s TTL, then jumps past it
    // twice so expiry paths run.
    const std::uint64_t now = step + (step > 90 ? 200 : 0) + (step > 160 ? 400 : 0);
    resolve(name, now);
  };
  for (std::uint64_t step = 0; step < 220; ++step) {
    drive(step, oracle_fixture.sys, oracle_fixture.names,
          [&](const std::string& name, std::uint64_t now) { (void)oracle.resolve(name, now); });
    drive(step, subject_fixture.sys, subject_fixture.names,
          [&](const std::string& name, std::uint64_t now) { (void)subject.resolve(name, now); });
  }

  EXPECT_EQ(subject.stats().cache_hits, oracle.stats().cache_hits);
  EXPECT_EQ(subject.stats().cache_misses, oracle.stats().cache_misses);
  EXPECT_EQ(subject.stats().failures, oracle.stats().failures);
  EXPECT_EQ(subject.cached_names(), oracle.cached_names());
  EXPECT_EQ(subject.stats().evictions, 0U);
  EXPECT_EQ(oracle.stats().evictions, 0U);
  EXPECT_GT(subject.stats().cache_hits, 0U);   // the trace exercised every path
  EXPECT_GT(subject.stats().failures, 0U);
  EXPECT_GT(oracle.stale_failures(), 0U);
}

TEST(ConcurrentResolver, BatchMatchesSingly) {
  Fixture batched_fixture;
  Fixture single_fixture;
  ConcurrentResolver batched{batched_fixture.sys};
  ConcurrentResolver singly{single_fixture.sys};

  const std::vector<std::string> wave1 = {"a.red", "b.red", "a.green", "missing.red", "a.red"};
  const auto results1 = batched.resolve_batch(wave1, 0);
  std::vector<ResolveResult> expected1;
  for (const auto& name : wave1) expected1.push_back(singly.resolve(name, 0));
  ASSERT_EQ(results1.size(), expected1.size());
  for (std::size_t i = 0; i < results1.size(); ++i) {
    EXPECT_EQ(results1[i].answered, expected1[i].answered) << wave1[i];
    EXPECT_EQ(results1[i].records, expected1[i].records) << wave1[i];
  }
  // The duplicate "a.red" in one batch: first instance misses and
  // publishes, but the whole batch was probed before the authority pass, so
  // whether the second instance counts as hit or miss is the double-check's
  // business. Totals across hit+miss must still match the serial driver.
  const auto batch_stats = batched.stats();
  const auto single_stats = singly.stats();
  EXPECT_EQ(batch_stats.cache_hits + batch_stats.cache_misses,
            single_stats.cache_hits + single_stats.cache_misses);
  EXPECT_EQ(batch_stats.failures, single_stats.failures);

  // A second identical wave is all hits for both.
  const auto results2 = batched.resolve_batch(wave1, 1);
  for (std::size_t i = 0; i < wave1.size(); ++i) {
    if (wave1[i] == "missing.red") continue;
    EXPECT_TRUE(results2[i].from_cache) << wave1[i];
  }
}

TEST(ConcurrentResolver, CachedNamesRespectsShardCapacityBound) {
  Fixture f;
  // capacity 6 over 3 shards -> per-shard cap 2, global bound 6.
  ConcurrentResolver resolver{f.sys, /*capacity=*/6, /*shard_count=*/3};
  for (int round = 0; round < 3; ++round) {
    for (const auto& name : f.names) {
      (void)resolver.resolve(name, static_cast<std::uint64_t>(round));
    }
  }
  EXPECT_LE(resolver.cached_names(), 6U);
  EXPECT_GT(resolver.stats().evictions, 0U);
}

TEST(ConcurrentResolver, EvictionPrefersExpiredThenEarliestExpiryPerShard) {
  Fixture f;
  // One shard so the policy is observable without hash bucketing.
  ConcurrentResolver resolver{f.sys, /*capacity=*/3, /*shard_count=*/1};
  resolver.insert("short", 0, {store::Record{"A", "1", 10}});
  resolver.insert("mid", 0, {store::Record{"A", "2", 50}});
  resolver.insert("long", 0, {store::Record{"A", "3", 100}});
  std::vector<store::Record> out;

  // At t=20 "short" is expired; inserting under pressure drops exactly it.
  resolver.insert("fresh", 20, {store::Record{"A", "4", 100}});
  EXPECT_EQ(resolver.cached_names(), 3U);
  EXPECT_EQ(resolver.stats().evictions, 1U);
  EXPECT_FALSE(resolver.peek("short", 20, &out));
  EXPECT_TRUE(resolver.peek("mid", 20, &out));
  EXPECT_TRUE(resolver.peek("long", 20, &out));

  // Nothing expired now: the entry closest to expiry ("mid") is the victim.
  resolver.insert("newest", 20, {store::Record{"A", "5", 100}});
  EXPECT_EQ(resolver.stats().evictions, 2U);
  EXPECT_FALSE(resolver.peek("mid", 20, &out));
  EXPECT_TRUE(resolver.peek("long", 20, &out));
  EXPECT_TRUE(resolver.peek("newest", 20, &out));

  // "long" goes next; then "fresh", "last" and "newest" all expire at 120
  // and the smallest name is the victim.
  resolver.insert("last", 20, {store::Record{"A", "6", 100}});
  EXPECT_FALSE(resolver.peek("long", 20, &out));
  resolver.insert("later", 20, {store::Record{"A", "7", 100}});
  EXPECT_EQ(resolver.stats().evictions, 4U);
  EXPECT_FALSE(resolver.peek("fresh", 20, &out));
  EXPECT_TRUE(resolver.peek("last", 20, &out));
  EXPECT_TRUE(resolver.peek("newest", 20, &out));

  // Overwriting a cached name in the full shard evicts nothing.
  resolver.insert("newest", 20, {store::Record{"A", "8", 100}});
  EXPECT_EQ(resolver.stats().evictions, 4U);
  EXPECT_EQ(resolver.cached_names(), 3U);
  ASSERT_TRUE(resolver.peek("newest", 20, &out));
  EXPECT_EQ(out[0].value, "8");
}

// Differential check under eviction pressure: seeded traces of resolve and
// insert over more names than the capacity, driven through the reference
// model and a one-shard ConcurrentResolver, must agree on every call and on
// the final cache. Traces kill and revive hosts, so re-lookups of expired
// cached names fail, and half the seeds arm the defense with a low
// threshold, so refusals meet expired names too. Seed control, as in the
// fuzz harnesses:
//   HOURS_FUZZ_SEEDS=N   sweep seeds 1..N   (default 25)
//   HOURS_FUZZ_SEED=S    run exactly seed S

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

/// The model and a one-shard ConcurrentResolver of one capacity, each over
/// its own identically built system (lookups advance per-system state).
struct DifferentialPair {
  explicit DifferentialPair(std::size_t capacity)
      : oracle{oracle_side.sys, capacity}, subject{subject_side.sys, capacity, 1} {
    for (auto* side : {&oracle_side, &subject_side}) {
      side->sys.admit("dead.red");
      side->sys.add_record("dead.red", store::Record{"A", "dead", 100});
      side->sys.set_alive("dead.red", false);
    }
  }
  void arm(NegativeCacheDefenseConfig config) {
    oracle.set_defense(config);
    subject.set_defense(config);
  }
  void set_alive(const std::string& name, bool alive) {
    oracle_side.sys.set_alive(name, alive);
    subject_side.sys.set_alive(name, alive);
  }
  Fixture oracle_side;
  Fixture subject_side;
  ReferenceCache oracle;
  ConcurrentResolver subject;
};

void expect_same_state(const DifferentialPair& pair) {
  const auto want = pair.oracle.stats();
  const auto got = pair.subject.stats();
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.cache_misses, want.cache_misses);
  EXPECT_EQ(got.failures, want.failures);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.refusals, want.refusals);
  EXPECT_EQ(got.zones_flagged, want.zones_flagged);
  EXPECT_EQ(pair.subject.cached_names(), pair.oracle.cached_names());
}

/// How often, over a sweep, a failed or refused re-lookup met an expired
/// cached entry (the model's count).
struct StaleTotals {
  std::uint64_t failures = 0;
  std::uint64_t refusals = 0;
};

void run_eviction_seed(std::uint64_t seed, StaleTotals& stale) {
  SCOPED_TRACE("reproduce with HOURS_FUZZ_SEED=" + std::to_string(seed));
  rng::Xoshiro256 g{rng::mix64(0xE71C7, seed)};
  // 2..7 slots for 12 resolvable hosts plus 6 insert-only names. The
  // unbounded pair pins the capped bucket array and never evicts.
  DifferentialPair tight{2 + g.below(6)};
  DifferentialPair roomy{std::size_t{1} << 40};
  NegativeCacheDefenseConfig defense;  // armed on even seeds
  defense.enabled = true;
  defense.distinct_miss_threshold = 2;
  defense.window = 5;
  defense.flag_ttl = 20;
  if (seed % 2 == 0) {
    for (auto* pair : {&tight, &roomy}) pair->arm(defense);
  }

  const std::vector<std::string> hosts = tight.oracle_side.names;  // killed and revived
  std::vector<bool> alive(hosts.size(), true);
  std::vector<std::string> resolvable = hosts;
  resolvable.push_back("dead.red");     // admitted, then killed
  resolvable.push_back("ghost.green");  // never admitted
  std::vector<std::string> insertable = hosts;
  for (int i = 0; i < 6; ++i) insertable.push_back("out-of-band-" + std::to_string(i));
  // Few distinct TTLs on a slow clock: expiries tie often, so the name
  // tie-break decides many victims.
  constexpr std::uint64_t kTtls[] = {5, 40, 100};

  std::uint64_t now = 0;
  for (std::uint64_t step = 0; step < 300; ++step) {
    now += g.below(20) == 0 ? 100 + g.below(100) : g.below(3);  // now and then, past every TTL
    const std::uint64_t kind = g.below(12);
    if (kind < 4) {
      const auto& name = insertable[g.below(insertable.size())];
      const std::vector<store::Record> records{
          store::Record{"A", name + "#" + std::to_string(step), kTtls[g.below(3)]}};
      for (auto* pair : {&tight, &roomy}) {
        pair->oracle.insert(name, now, records);
        pair->subject.insert(name, now, records);
      }
    } else if (kind == 4) {
      const std::size_t h = g.below(hosts.size());
      alive[h] = !alive[h];
      for (auto* pair : {&tight, &roomy}) pair->set_alive(hosts[h], alive[h]);
    } else {
      const auto& name = resolvable[g.below(resolvable.size())];
      for (auto* pair : {&tight, &roomy}) {
        const auto want = pair->oracle.resolve(name, now);
        const auto got = pair->subject.resolve(name, now);
        ASSERT_EQ(got.answered, want.answered) << "step " << step << " " << name;
        ASSERT_EQ(got.from_cache, want.from_cache) << "step " << step << " " << name;
        ASSERT_EQ(got.hops, want.hops) << "step " << step << " " << name;
        ASSERT_EQ(got.records, want.records) << "step " << step << " " << name;
      }
    }
    for (const auto* pair : {&tight, &roomy}) {
      SCOPED_TRACE("after step " + std::to_string(step));
      expect_same_state(*pair);
      if (::testing::Test::HasFailure()) return;
    }
  }

  EXPECT_GT(tight.oracle.stats().evictions, 0U);
  EXPECT_GT(tight.oracle.stats().failures, 0U);
  EXPECT_EQ(roomy.subject.stats().evictions, 0U);
  std::vector<std::string> every = resolvable;
  every.insert(every.end(), insertable.end() - 6, insertable.end());
  for (const auto* pair : {&tight, &roomy}) {
    for (const auto& name : every) {
      std::vector<store::Record> got;
      const auto* want = pair->oracle.peek(name, now);
      ASSERT_EQ(pair->subject.peek(name, now, &got), want != nullptr) << name;
      if (want != nullptr) {
        EXPECT_EQ(got, *want) << name;
      }
    }
    stale.failures += pair->oracle.stale_failures();
    stale.refusals += pair->oracle.stale_refusals();
  }

  // A deep heap: 40..200 slots and 400 names that only insert() installs,
  // so the eviction heap is 6-8 levels deep and overwrites and drops land on
  // interior positions. Those names are never admitted, so resolving one
  // fails (as for ghost.green) and drops it once expired. The clock, which
  // every call takes from its caller, now and then steps back. Its own
  // generator leaves the two pairs' streams above unchanged.
  rng::Xoshiro256 dg{rng::mix64(0xDEE9, seed)};
  DifferentialPair deep{40 + dg.below(161)};
  if (seed % 2 == 0) deep.arm(defense);
  std::vector<std::string> deep_names;
  for (int i = 0; i < 400; ++i) {
    deep_names.push_back("d" + std::to_string(i) + ".z" + std::to_string(i % 8));
  }
  std::vector<bool> deep_alive(hosts.size(), true);
  constexpr std::uint64_t kDeepTtls[] = {5, 40, 100, 250};
  std::uint64_t clock = 1'000;
  for (std::uint64_t step = 0; step < 2'000; ++step) {
    // A slow clock, so the heap fills with live entries, now and then past
    // most TTLs, now and then back.
    const std::uint64_t move = dg.below(200);
    if (move == 0) {
      clock += 100 + dg.below(200);
    } else if (move < 7) {
      clock -= std::min<std::uint64_t>(clock, dg.below(20));
    } else {
      clock += dg.below(2);
    }
    const std::uint64_t kind = dg.below(10);
    if (kind < 6) {
      const bool host = dg.below(8) == 0;
      const auto& name = host ? hosts[dg.below(hosts.size())] : deep_names[dg.below(400)];
      const std::vector<store::Record> records{
          store::Record{"A", name + "#" + std::to_string(step), kDeepTtls[dg.below(4)]}};
      deep.oracle.insert(name, clock, records);
      deep.subject.insert(name, clock, records);
    } else if (kind == 6) {
      const std::size_t h = dg.below(hosts.size());
      deep_alive[h] = !deep_alive[h];
      deep.set_alive(hosts[h], deep_alive[h]);
    } else {
      const bool host = dg.below(2) == 0;
      const auto& name = host ? hosts[dg.below(hosts.size())] : deep_names[dg.below(400)];
      const auto want = deep.oracle.resolve(name, clock);
      const auto got = deep.subject.resolve(name, clock);
      ASSERT_EQ(got.answered, want.answered) << "deep step " << step << " " << name;
      ASSERT_EQ(got.from_cache, want.from_cache) << "deep step " << step << " " << name;
      ASSERT_EQ(got.hops, want.hops) << "deep step " << step << " " << name;
      ASSERT_EQ(got.records, want.records) << "deep step " << step << " " << name;
    }
    SCOPED_TRACE("after deep step " + std::to_string(step));
    expect_same_state(deep);
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(deep.oracle.stats().evictions, 0U);
  for (const auto& name : deep_names) {
    std::vector<store::Record> got;
    const auto* want = deep.oracle.peek(name, clock);
    ASSERT_EQ(deep.subject.peek(name, clock, &got), want != nullptr) << name;
    if (want != nullptr) {
      EXPECT_EQ(got, *want) << name;
    }
  }
  stale.failures += deep.oracle.stale_failures();
  stale.refusals += deep.oracle.stale_refusals();
}

TEST(ConcurrentResolver, MatchesResolverUnderEvictionPressure) {
  const std::uint64_t pinned = env_u64("HOURS_FUZZ_SEED", 0);
  const std::uint64_t count = pinned != 0 ? 1 : env_u64("HOURS_FUZZ_SEEDS", 25);
  ASSERT_GT(count, 0U) << "HOURS_FUZZ_SEEDS must be >= 1";
  StaleTotals stale;
  for (std::uint64_t i = 0; i < count; ++i) {
    run_eviction_seed(pinned != 0 ? pinned : i + 1, stale);
    if (HasFailure()) return;
  }
  if (count >= 2) {
    // The sweep reached both drop paths (one seed may miss either).
    EXPECT_GT(stale.failures, 0U);
    EXPECT_GT(stale.refusals, 0U);
  }
}

TEST(ConcurrentResolver, ConcurrentReadersDuringInsertsAndEvictions) {
  // Readers spin on peek/resolve while writer threads churn the cache with
  // inserts that force both TTL expiry sweeps and earliest-expiry eviction.
  // Correctness here is (a) no torn/stale-freed snapshots — TSan and ASan
  // enforce the memory side — and (b) every answered result carries the
  // records that were published for that name.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/16, /*shard_count=*/4};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> clock{0};
  std::atomic<std::uint64_t> answered{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0x5EED, static_cast<std::uint64_t>(t))};
      std::vector<store::Record> out;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t now = clock.load(std::memory_order_relaxed);
        const auto& name = f.names[g.below(f.names.size())];
        if (resolver.peek(name, now, &out)) {
          ASSERT_FALSE(out.empty());
          ASSERT_EQ(out[0].type, "A");
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        const auto result = resolver.resolve(name, now);
        if (result.answered) {
          ASSERT_EQ(result.records.size(), 1U);
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0xF00D, static_cast<std::uint64_t>(t))};
      for (int i = 0; i < 2'000; ++i) {
        const std::uint64_t now = clock.fetch_add(1, std::memory_order_relaxed);
        // Short TTLs guarantee expiry sweeps; synthetic names guarantee
        // capacity pressure beyond the fixture's 12 hosts.
        const std::string name = "synthetic-" + std::to_string(g.below(64));
        resolver.insert(name, now,
                        {store::Record{"A", std::to_string(i), 1 + g.below(8)}});
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(answered.load(), 0U);
  EXPECT_LE(resolver.cached_names(), 16U);
  EXPECT_GT(resolver.stats().evictions, 0U);
}

TEST(ConcurrentResolver, ConcurrentReadersOnSharedBucketChains) {
  // One shard of capacity 4 has four buckets, so the 64 churned names share
  // chains and writers unlink nodes other readers are walking past. Every
  // record's value names the key it was published under: a reader that
  // followed a stale or freed link into another name's node would see it.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/4, /*shard_count=*/1};
  std::vector<std::string> churned;
  for (int i = 0; i < 64; ++i) churned.push_back("synthetic-" + std::to_string(i));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> clock{0};
  std::atomic<std::uint64_t> answered{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0xC4A1, static_cast<std::uint64_t>(t))};
      std::vector<store::Record> out;
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t now = clock.load(std::memory_order_relaxed);
        const auto& name = churned[g.below(churned.size())];
        if (resolver.peek(name, now, &out)) {
          ASSERT_EQ(out.size(), 1U) << name;
          ASSERT_EQ(out[0].value.substr(0, name.size() + 1), name + "#") << out[0].value;
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        const auto& host = f.names[g.below(f.names.size())];
        const auto result = resolver.resolve(host, now);
        ASSERT_TRUE(result.answered) << host;
        ASSERT_EQ(result.records.size(), 1U) << host;
        ASSERT_EQ(result.records[0].value, "10.0.0." + host.substr(0, 1)) << host;
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0xD1CE, static_cast<std::uint64_t>(t))};
      // At least 2'000 publishes each, then more until a reader has seen a
      // hit: under load the readers can start after a fixed burst is over.
      const auto no_hit_yet = [&] { return answered.load(std::memory_order_relaxed) == 0; };
      for (int i = 0; i < 2'000 || (no_hit_yet() && i < 1'000'000); ++i) {
        const std::uint64_t now = clock.fetch_add(1, std::memory_order_relaxed);
        const auto& name = churned[g.below(churned.size())];
        resolver.insert(name, now,
                        {store::Record{"A", name + "#" + std::to_string(i), 1 + g.below(8)}});
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(answered.load(), 0U);
  EXPECT_LE(resolver.cached_names(), 4U);
  EXPECT_GT(resolver.stats().evictions, 0U);
}

TEST(ConcurrentResolver, ConcurrentDropsOfExpiredFailedLookups) {
  // Writers re-insert never-admitted names out of band with 1-8 s TTLs;
  // readers resolve the same names, so a read after expiry forwards a
  // lookup that fails and unlinks the expired node while other threads walk
  // the chain it sat on (one shard of capacity 4: four buckets, 16 names).
  // Every served record must name its key.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/4, /*shard_count=*/1};
  std::vector<std::string> churned;
  for (int i = 0; i < 16; ++i) churned.push_back("unadmitted-" + std::to_string(i));
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> clock{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failed{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0xD209, static_cast<std::uint64_t>(t))};
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t now = clock.load(std::memory_order_relaxed);
        const auto& name = churned[g.below(churned.size())];
        const auto result = resolver.resolve(name, now);
        if (!result.answered) {
          failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        ASSERT_TRUE(result.from_cache) << name;
        ASSERT_EQ(result.records.size(), 1U) << name;
        ASSERT_EQ(result.records[0].value.substr(0, name.size() + 1), name + "#")
            << result.records[0].value;
        served.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0xE4B1, static_cast<std::uint64_t>(t))};
      // At least 2'000 publishes each, then more until the readers have
      // both been served and seen a lookup fail.
      const auto pending = [&] {
        return served.load(std::memory_order_relaxed) == 0 ||
               failed.load(std::memory_order_relaxed) == 0;
      };
      for (int i = 0; i < 2'000 || (pending() && i < 1'000'000); ++i) {
        const std::uint64_t now = clock.fetch_add(1, std::memory_order_relaxed);
        const auto& name = churned[g.below(churned.size())];
        resolver.insert(name, now,
                        {store::Record{"A", name + "#" + std::to_string(i), 1 + g.below(8)}});
      }
    });
  }
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(served.load(), 0U);
  EXPECT_GT(failed.load(), 0U);
  EXPECT_EQ(resolver.stats().failures, failed.load());
  EXPECT_LE(resolver.cached_names(), 4U);
}

TEST(ConcurrentResolver, ConcurrentResolversAgreeOnRecords) {
  // Many threads resolving the same working set: every answered resolve
  // must return the one true record for its name, whether it was served
  // from the cache or from the (mutex-serialized) hierarchy.
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/64, /*shard_count=*/8};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      rng::Xoshiro256 g{rng::mix64(0xBEEF, static_cast<std::uint64_t>(t))};
      for (int i = 0; i < 500; ++i) {
        const auto& name = f.names[g.below(f.names.size())];
        const auto result = resolver.resolve(name, static_cast<std::uint64_t>(i / 8));
        ASSERT_TRUE(result.answered) << name;
        ASSERT_EQ(result.records.size(), 1U) << name;
        // The record value encodes the host letter the fixture gave it.
        ASSERT_EQ(result.records[0].value, "10.0.0." + name.substr(0, 1)) << name;
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto stats = resolver.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total.load());
  EXPECT_EQ(stats.failures, 0U);
}

TEST(ConcurrentResolver, ConcurrentBatchesDrainEveryName) {
  Fixture f;
  ConcurrentResolver resolver{f.sys, /*capacity=*/64, /*shard_count=*/4};
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> answered{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        const auto results = resolver.resolve_batch(f.names, static_cast<std::uint64_t>(i));
        for (const auto& result : results) {
          ASSERT_TRUE(result.answered);
          answered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(answered.load(), 4U * 50U * f.names.size());
  const auto stats = resolver.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, answered.load());
}

}  // namespace
}  // namespace hours
