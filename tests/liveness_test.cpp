// Tests for the unified liveness plane (src/liveness) and the resolver's
// gossip-shared negative-cache digest (DESIGN.md §11): the shared
// suspicion-TTL default pinned across every consumer, LivenessView's two
// expiry conventions (ring never-expires vs hierarchy TTL), gossip adoption
// semantics, bounded digest construction, and the per-zone distinct-miss
// burst detector behind the cache-busting defense.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "hours/event_backend.hpp"
#include "hours/resolver.hpp"
#include "liveness/liveness.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/query_client.hpp"

namespace {

using namespace hours;
using liveness::Config;
using liveness::DigestEntry;
using liveness::Entry;
using liveness::LivenessView;
using liveness::Mode;
using liveness::Source;

// -- the one suspicion-TTL constant -------------------------------------------------

TEST(SuspicionTtl, DefaultIsPinnedAcrossEveryConsumer) {
  // The 4'000-tick suspicion TTL used to be duplicated at each call site;
  // it now lives once in liveness::kDefaultSuspicionTtl. This pins today's
  // value and every consumer's default to it — changing any of them is a
  // protocol change and must be deliberate.
  EXPECT_EQ(liveness::kDefaultSuspicionTtl, 4'000u);
  EXPECT_EQ(sim::QueryClientConfig{}.suspicion_ttl, liveness::kDefaultSuspicionTtl);
  EXPECT_EQ(sim::HierarchySimConfig{}.suspicion_ttl, liveness::kDefaultSuspicionTtl);
  EXPECT_EQ(EventBackendConfig{}.suspicion_ttl, liveness::kDefaultSuspicionTtl);
}

TEST(SuspicionTtl, GossipTuningDefaultsArePinned) {
  EXPECT_EQ(liveness::kDefaultDigestBudget, 4u);
  EXPECT_EQ(liveness::kDefaultDigestHorizon, 16'000u);
  const Config config;
  EXPECT_EQ(config.mode, Mode::kProbeOnly);
  EXPECT_EQ(config.digest_budget, liveness::kDefaultDigestBudget);
  EXPECT_EQ(config.digest_horizon, liveness::kDefaultDigestHorizon);
}

// -- LivenessView -------------------------------------------------------------------

TEST(LivenessView, RingSemanticsNeverExpire) {
  LivenessView view{{}, /*suspicion_ttl=*/0};
  EXPECT_TRUE(view.suspect(1, 7, 100));
  EXPECT_FALSE(view.suspect(1, 7, 200));  // overwrite, not an insertion
  EXPECT_TRUE(view.contains(1, 7));
  EXPECT_TRUE(view.is_suspected(1, 7, ~std::uint64_t{0} - 1));  // never expires
  EXPECT_TRUE(view.clear(1, 7));
  EXPECT_FALSE(view.contains(1, 7));
  EXPECT_FALSE(view.clear(1, 7));
}

TEST(LivenessView, HierarchySemanticsExpireButStayInTheMap) {
  LivenessView view{{}, /*suspicion_ttl=*/4'000};
  view.suspect(2, 9, 1'000);
  EXPECT_TRUE(view.is_suspected(2, 9, 4'999));
  EXPECT_FALSE(view.is_suspected(2, 9, 5'000));  // expiry = now + ttl, exclusive
  // The expired row remains until overwritten or cleared — the historical
  // flat maps kept it, and snapshots must reproduce them bit for bit.
  EXPECT_TRUE(view.contains(2, 9));
  view.suspect(2, 9, 6'000);  // re-suspect refreshes the expiry
  EXPECT_TRUE(view.is_suspected(2, 9, 9'999));
}

TEST(LivenessView, ObserverAndPeerClearing) {
  LivenessView view{{}, 0};
  view.suspect(1, 5, 10);
  view.suspect(1, 6, 10);
  view.suspect(2, 5, 10);
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view.count_observer(1), 2u);

  view.clear_peer(5);  // hierarchy revival: every observer forgets peer 5
  EXPECT_FALSE(view.contains(1, 5));
  EXPECT_FALSE(view.contains(2, 5));
  EXPECT_TRUE(view.contains(1, 6));

  view.clear_observer(1);  // ring revival of the observer itself
  EXPECT_TRUE(view.observer_empty(1));
  EXPECT_EQ(view.size(), 0u);
}

TEST(LivenessView, NextAtOrAfterWrapsRoundRobin) {
  LivenessView view{{}, 0};
  view.suspect(3, 4, 0);
  view.suspect(3, 9, 0);
  EXPECT_EQ(view.next_at_or_after(3, 0), 4u);
  EXPECT_EQ(view.next_at_or_after(3, 5), 9u);
  EXPECT_EQ(view.next_at_or_after(3, 10), 4u);  // wraps
}

TEST(LivenessView, AdoptPreservesRumorAgeAndNeverOverwrites) {
  LivenessView view{Config{Mode::kGossip}, 0};
  // Adoption keeps the original observation time so the rumor ages across
  // hops instead of being refreshed at every gossip exchange.
  EXPECT_TRUE(view.adopt(1, 7, /*since=*/500, /*now=*/2'000));
  bool saw = false;
  view.for_each_observer(1, [&](liveness::NodeId peer, const Entry& entry) {
    saw = true;
    EXPECT_EQ(peer, 7u);
    EXPECT_EQ(entry.since, 500u);
    EXPECT_EQ(entry.source, Source::kGossip);
  });
  EXPECT_TRUE(saw);
  // A second rumor for the same peer is a no-op; so is gossip on top of a
  // local probe observation.
  EXPECT_FALSE(view.adopt(1, 7, 900, 2'100));
  view.suspect(2, 7, 1'000);
  EXPECT_FALSE(view.adopt(2, 7, 400, 2'000));
}

TEST(LivenessView, BuildDigestIsBoundedFreshestFirstAndHorizonFiltered) {
  Config config{Mode::kGossip, /*digest_budget=*/2, /*digest_horizon=*/1'000};
  LivenessView view{config, 0};
  const liveness::Ticks now = 1'500;
  view.suspect(1, 4, 1'200);
  view.suspect(1, 5, 1'400);
  view.suspect(1, 6, 1'200);
  view.suspect(1, 7, 300);  // past the horizon at `now` — never broadcast
  view.suspect(2, 8, 1'400);  // another observer's row

  const std::vector<DigestEntry> digest = view.build_digest(1, now);
  ASSERT_EQ(digest.size(), 2u);  // budget-truncated from 3 eligible
  EXPECT_EQ(digest[0].peer, 5u);  // freshest first
  EXPECT_EQ(digest[0].since, 1'400u);
  EXPECT_EQ(digest[1].peer, 4u);  // tie on since=1'200 breaks peer-ascending
  EXPECT_EQ(digest[1].since, 1'200u);

  EXPECT_TRUE(view.within_horizon(501, now));
  EXPECT_FALSE(view.within_horizon(500, now));  // since + horizon > now, exclusive
}

/// One adopt_digest() call, recording every (peer, since) the callback saw.
struct Adoption {
  std::uint64_t returned = 0;
  std::vector<std::pair<liveness::NodeId, liveness::Ticks>> rows;
};

Adoption adopt_words(LivenessView& view, liveness::NodeId observer, liveness::NodeId sender,
                     const std::vector<std::uint64_t>& words, liveness::NodeId lo,
                     liveness::NodeId hi, liveness::Ticks now) {
  Adoption out;
  out.returned = view.adopt_digest(observer, sender, words.data(), words.size(), lo, hi, now,
                                   [&out](liveness::NodeId peer, liveness::Ticks since) {
                                     out.rows.emplace_back(peer, since);
                                   });
  return out;
}

TEST(LivenessView, DigestCodecRoundTripsBuildDigestAsWordPairs) {
  Config config{Mode::kGossip, /*digest_budget=*/3, /*digest_horizon=*/1'000};
  LivenessView sender{config, 0};
  sender.suspect(1, 4, 1'200);
  sender.suspect(1, 5, 1'400);
  sender.suspect(1, 6, 1'300);
  sender.suspect(1, 7, 1'100);  // budget-truncated

  // Appending keeps what the frame already carries and writes build_digest's
  // rows, in its order, as [peer, since] pairs.
  std::vector<std::uint64_t> frame{42};
  ASSERT_EQ(sender.append_digest(1, 1'500, frame), 3u);
  EXPECT_EQ(frame, (std::vector<std::uint64_t>{42, 5, 1'400, 6, 1'300, 4, 1'200}));
  std::vector<std::uint64_t> silent;
  EXPECT_EQ(sender.append_digest(9, 1'500, silent), 0u);  // nothing suspected
  EXPECT_TRUE(silent.empty());

  // The receiver adopts every row, keeping each rumor's original age.
  LivenessView receiver{config, 0};
  const std::vector<std::uint64_t> words(frame.begin() + 1, frame.end());
  const Adoption adopted = adopt_words(receiver, 2, 1, words, 0, 16, 1'600);
  EXPECT_EQ(adopted.returned, 3u);
  using Row = std::pair<liveness::NodeId, liveness::Ticks>;
  EXPECT_EQ(adopted.rows, (std::vector<Row>{{5, 1'400}, {6, 1'300}, {4, 1'200}}));
  std::vector<DigestEntry> relayed = receiver.build_digest(2, 1'600);
  ASSERT_EQ(relayed.size(), 3u);
  EXPECT_EQ(relayed[0].peer, 5u);
  EXPECT_EQ(relayed[0].since, 1'400u);
}

TEST(LivenessView, DigestAdoptionSkipsSelfSenderScopeStaleAndHeldRows) {
  Config config{Mode::kGossip, 4, /*digest_horizon=*/1'000};
  LivenessView view{config, 0};
  view.suspect(3, 12, 1'000);  // a local observation gossip must not replace
  const std::vector<std::uint64_t> words{
      3,  1'900,  // the observer itself
      7,  1'900,  // the sender: its frame proves it alive
      9,  1'900,  // below the scope [10, 20)
      20, 1'900,  // at the scope's exclusive end
      11, 1'000,  // past the horizon: 1'000 + 1'000 is not > 2'000
      12, 1'900,  // already held
      13, 1'001,  // adopted
  };
  const Adoption adopted = adopt_words(view, 3, 7, words, 10, 20, 2'000);
  EXPECT_EQ(adopted.returned, 1u);
  using Row = std::pair<liveness::NodeId, liveness::Ticks>;
  EXPECT_EQ(adopted.rows, (std::vector<Row>{{13, 1'001}}));
  std::vector<std::pair<liveness::NodeId, Source>> held;
  view.for_each_observer(3, [&](liveness::NodeId peer, const Entry& entry) {
    held.emplace_back(peer, entry.source);
  });
  EXPECT_EQ(held, (std::vector<std::pair<liveness::NodeId, Source>>{{12, Source::kProbe},
                                                                     {13, Source::kGossip}}));
}

using Peers = std::vector<liveness::NodeId>;

TEST(LivenessView, ActiveInBoundsAreInclusive) {
  LivenessView view{{}, 100};
  for (const liveness::NodeId peer : {9u, 10u, 15u, 20u, 21u}) view.suspect(3, peer, 0);
  EXPECT_EQ(view.active_in(3, 10, 20, 50), (Peers{10, 15, 20}));
  EXPECT_EQ(view.active_in(3, 15, 15, 50), (Peers{15}));
  EXPECT_EQ(view.active_in(3, 11, 14, 50), Peers{});
  EXPECT_EQ(view.active_in(3, 20, 10, 50), Peers{});  // empty range
  EXPECT_EQ(view.active_in(3, 0, ~liveness::NodeId{0}, 50), (Peers{9, 10, 15, 20, 21}));
}

TEST(LivenessView, ActiveInNeverReadsANeighbouringObserver) {
  LivenessView view{{}, 0};
  const liveness::NodeId top = ~liveness::NodeId{0};
  view.suspect(4, top, 0);  // observer - 1's last possible peer
  view.suspect(5, 7, 0);
  view.suspect(6, 0, 0);  // observer + 1's first possible peer
  EXPECT_EQ(view.active_in(5, 0, top, 0), (Peers{7}));
  EXPECT_EQ(view.active_in(4, 0, top, 0), (Peers{top}));
  EXPECT_EQ(view.active_in(6, 0, top, 0), (Peers{0}));
  EXPECT_EQ(view.active_in(7, 0, top, 0), Peers{});

  view.suspect(top, top, 0);  // the last key of the whole map
  view.suspect(top, 0, 0);
  EXPECT_EQ(view.active_in(top, 0, top, 0), (Peers{0, top}));
}

TEST(LivenessView, ActiveInMatchesIsSuspectedAtTheExpiryBoundary) {
  LivenessView view{{}, 1'000};
  view.suspect(1, 2, 0);                                                    // expiry 1'000
  view.restore_row(1, 3, Entry{liveness::kNeverExpires, 0, Source::kProbe});  // ttl 0 style
  view.suspect(1, 4, 500);                                                  // expiry 1'500
  EXPECT_EQ(view.active_in(1, 0, 10, 999), (Peers{2, 3, 4}));
  // expiry == now is inactive, exactly as is_suspected reads it.
  EXPECT_FALSE(view.is_suspected(1, 2, 1'000));
  EXPECT_EQ(view.active_in(1, 0, 10, 1'000), (Peers{3, 4}));
  EXPECT_EQ(view.active_in(1, 0, 10, 1'500), (Peers{3}));
  EXPECT_EQ(view.active_in(1, 0, 10, ~liveness::Ticks{0} - 1), (Peers{3}));
  EXPECT_EQ(view.size(), 3u);  // reading never drops an expired row
}

TEST(LivenessView, RestoreRowInstallsSavedStateVerbatim) {
  LivenessView view{{}, 4'000};
  view.restore_row(1, 2, Entry{/*expiry=*/123, /*since=*/45, Source::kGossip});
  EXPECT_TRUE(view.contains(1, 2));
  EXPECT_TRUE(view.is_suspected(1, 2, 122));
  EXPECT_FALSE(view.is_suspected(1, 2, 123));
  view.for_each([](liveness::NodeId observer, liveness::NodeId peer, const Entry& entry) {
    EXPECT_EQ(observer, 1u);
    EXPECT_EQ(peer, 2u);
    EXPECT_EQ(entry.expiry, 123u);
    EXPECT_EQ(entry.since, 45u);
    EXPECT_EQ(entry.source, Source::kGossip);
  });
}

// -- the gossip-shared negative-cache digest ----------------------------------------

TEST(NegativeCacheDigest, ZoneOfIsTheSuffixAfterTheFirstLabel) {
  EXPECT_EQ(NegativeCacheDigest::zone_of("h3.zone0"), "zone0");
  EXPECT_EQ(NegativeCacheDigest::zone_of("a.b.c"), "b.c");
  EXPECT_EQ(NegativeCacheDigest::zone_of("root"), "root");  // no dot: whole name
}

TEST(NegativeCacheDigest, FlagsAZoneOnlyAfterABurstOfDistinctMisses) {
  NegativeCacheDefenseConfig config;
  config.enabled = true;
  config.distinct_miss_threshold = 4;
  config.window = 10;
  config.flag_ttl = 60;
  NegativeCacheDigest digest{config};

  // The same name missing repeatedly is a dead record, not an attack.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(digest.record_miss("cb", "h0.cb", 100));
  }
  EXPECT_FALSE(digest.flagged("cb", 100));

  // Distinct names inside one window trip the detector at the threshold.
  EXPECT_FALSE(digest.record_miss("cb", "h1.cb", 101));
  EXPECT_FALSE(digest.record_miss("cb", "h2.cb", 102));
  EXPECT_TRUE(digest.record_miss("cb", "h3.cb", 103));
  EXPECT_TRUE(digest.flagged("cb", 103));
  EXPECT_EQ(digest.zones_flagged(), 1u);

  // The flag expires after flag_ttl, and another burst re-flags.
  EXPECT_TRUE(digest.flagged("cb", 162));
  EXPECT_FALSE(digest.flagged("cb", 163));
  for (int i = 0; i < 3; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    name += ".cb";
    EXPECT_FALSE(digest.record_miss("cb", name, 200));
  }
  EXPECT_TRUE(digest.record_miss("cb", "x3.cb", 200));
  EXPECT_EQ(digest.zones_flagged(), 2u);
}

TEST(NegativeCacheDigest, WindowPruningAndZoneIsolation) {
  NegativeCacheDefenseConfig config;
  config.enabled = true;
  config.distinct_miss_threshold = 3;
  config.window = 10;
  config.flag_ttl = 60;
  NegativeCacheDigest digest{config};

  // Two misses, then a long pause: the window forgets them, so two more
  // distinct misses later do not reach the threshold of three.
  EXPECT_FALSE(digest.record_miss("zone0", "a.zone0", 0));
  EXPECT_FALSE(digest.record_miss("zone0", "b.zone0", 1));
  EXPECT_FALSE(digest.record_miss("zone0", "c.zone0", 50));
  EXPECT_FALSE(digest.record_miss("zone0", "d.zone0", 51));
  EXPECT_FALSE(digest.flagged("zone0", 51));

  // Bursts accumulate per zone, never across zones.
  EXPECT_FALSE(digest.record_miss("zone1", "a.zone1", 52));
  EXPECT_FALSE(digest.record_miss("zone1", "b.zone1", 52));
  EXPECT_FALSE(digest.flagged("zone1", 52));
  EXPECT_TRUE(digest.record_miss("zone1", "c.zone1", 53));
  EXPECT_TRUE(digest.flagged("zone1", 53));
  EXPECT_FALSE(digest.flagged("zone0", 53));
}

}  // namespace
