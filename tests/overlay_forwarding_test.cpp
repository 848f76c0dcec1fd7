// Intra-overlay forwarding — Algorithms 2 and 3.
//
// Covers: greedy delivery with no failures, detours around dead ODs via
// nephew exits, backward-mode flips, base-design dead-ends (the Section 3.4
// vulnerability), dropper/misrouter behaviors, and parameterized sweeps of
// delivery under no attack.
#include <gtest/gtest.h>

#include <array>
#include <type_traits>
#include <vector>

#include "overlay/overlay.hpp"

namespace hours::overlay {
namespace {

OverlayParams enhanced(std::uint32_t k = 5, std::uint32_t q = 4) {
  OverlayParams p;
  p.design = Design::kEnhanced;
  p.k = k;
  p.q = q;
  return p;
}

OverlayParams base(std::uint32_t q = 4) {
  OverlayParams p;
  p.design = Design::kBase;
  p.q = q;
  return p;
}

ChildCountFn uniform_children(std::uint32_t count) {
  return [count](ids::RingIndex) { return count; };
}

TEST(Forward, TrivialSelfDelivery) {
  Overlay ov{16, enhanced()};
  const auto res = ov.forward(3, 3);
  EXPECT_EQ(res.kind, ExitKind::kArrivedAtOd);
  EXPECT_EQ(res.hops, 0U);
}

TEST(Forward, DeliversEverywhereWithoutAttack) {
  Overlay ov{64, enhanced()};
  for (ids::RingIndex from = 0; from < 64; from += 5) {
    for (ids::RingIndex to = 0; to < 64; to += 3) {
      const auto res = ov.forward(from, to);
      EXPECT_EQ(res.kind, ExitKind::kArrivedAtOd) << from << "->" << to;
      EXPECT_EQ(res.backward_steps, 0U);
    }
  }
}

TEST(Forward, GreedyNeverOvershootsAndMakesProgress) {
  Overlay ov{256, enhanced()};
  ForwardOptions opts;
  opts.record_path = true;
  for (ids::RingIndex to = 3; to < 256; to += 37) {
    const auto res = ov.forward(0, to, opts);
    ASSERT_EQ(res.kind, ExitKind::kArrivedAtOd);
    // Clockwise distance to the OD must shrink strictly at every hop.
    std::uint32_t previous = ids::clockwise_distance(0, to, 256);
    for (std::size_t i = 1; i < res.path.size(); ++i) {
      const std::uint32_t d = ids::clockwise_distance(res.path[i], to, 256);
      EXPECT_LT(d, previous);
      previous = d;
    }
  }
}

TEST(Forward, HopsAreLogarithmic) {
  Overlay ov{4096, enhanced()};
  std::uint64_t total = 0;
  std::uint32_t queries = 0;
  for (ids::RingIndex from = 0; from < 4096; from += 97) {
    for (ids::RingIndex to = 1; to < 4096; to += 131) {
      const auto res = ov.forward(from, to);
      ASSERT_EQ(res.kind, ExitKind::kArrivedAtOd);
      total += res.hops;
      ++queries;
    }
  }
  const double mean = static_cast<double>(total) / queries;
  // ln(4096) ~ 8.3; the enhanced design should do clearly better, and
  // anything above it would signal broken greedy routing.
  EXPECT_LT(mean, 8.3);
  EXPECT_GT(mean, 1.0);
}

TEST(Forward, DeadOdExitsThroughNephew) {
  Overlay ov{64, enhanced(5, 4), TableStorage::kEager, uniform_children(10)};
  ov.kill(20);
  const auto res = ov.forward(3, 20);
  ASSERT_EQ(res.kind, ExitKind::kNephewExit);
  EXPECT_LT(res.nephew, 10U);
  EXPECT_TRUE(ov.alive(res.last_node));
  // The exit node must actually hold a table entry for the OD.
  EXPECT_NE(ov.table(res.last_node).find(20), nullptr);
}

TEST(Forward, NephewSelectionPrefersClosestToNextOd) {
  Overlay ov{64, enhanced(5, 6), TableStorage::kEager, uniform_children(40)};
  ov.kill(20);
  ForwardOptions opts;
  opts.next_od = 17;
  std::vector<std::uint8_t> child_alive(40, 1);
  opts.child_alive = &child_alive;

  const auto res = ov.forward(3, 20, opts);
  ASSERT_EQ(res.kind, ExitKind::kNephewExit);
  // The chosen nephew is the clockwise-closest to 17 among the entry's
  // nephews.
  const TableEntry* entry = ov.table(res.last_node).find(20);
  ASSERT_NE(entry, nullptr);
  const auto chosen = ids::clockwise_distance(res.nephew, 17, 40);
  for (const auto n : entry->nephews) {
    EXPECT_LE(chosen, ids::clockwise_distance(n, 17, 40));
  }
}

TEST(Forward, DeadNephewsAreSkipped) {
  Overlay ov{64, enhanced(5, 3), TableStorage::kEager, uniform_children(12)};
  ov.kill(20);
  ForwardOptions opts;
  opts.next_od = 0;
  std::vector<std::uint8_t> child_alive(12, 1);
  opts.child_alive = &child_alive;

  const auto first = ov.forward(3, 20, opts);
  ASSERT_EQ(first.kind, ExitKind::kNephewExit);

  // Kill the nephew that was chosen; rerouting must avoid it.
  child_alive[first.nephew] = 0;
  const auto second = ov.forward(3, 20, opts);
  if (second.kind == ExitKind::kNephewExit) {
    EXPECT_NE(second.nephew, first.nephew);
  }
}

TEST(Forward, NeighborAttackTriggersBackwardMode) {
  // Kill the OD and its k counter-clockwise neighbors: greedy must stall at
  // the block edge and walk backward to an exit holding an OD entry.
  const std::uint32_t k = 4;
  Overlay ov{128, enhanced(k, 3), TableStorage::kEager, uniform_children(8)};
  const ids::RingIndex od = 60;
  ov.kill(od);
  for (std::uint32_t s = 1; s <= 3 * k; ++s) {
    ov.kill(ids::counter_clockwise_step(od, s, 128));
  }

  const auto res = ov.forward(70, od);  // entrance is clockwise of the block
  ASSERT_EQ(res.kind, ExitKind::kNephewExit);
  EXPECT_TRUE(ov.alive(res.last_node));
  EXPECT_NE(ov.table(res.last_node).find(od), nullptr);
}

TEST(Forward, BackwardStepsCountedUnderNeighborAttack) {
  const std::uint32_t k = 2;
  Overlay ov{256, enhanced(k, 3), TableStorage::kEager, uniform_children(8)};
  const ids::RingIndex od = 100;
  ov.kill(od);
  for (std::uint32_t s = 1; s <= 30; ++s) {
    ov.kill(ids::counter_clockwise_step(od, s, 256));
  }
  // Start counter-clockwise of the dead block so greedy stalls immediately.
  const auto res = ov.forward(ids::counter_clockwise_step(od, 40, 256), od);
  ASSERT_EQ(res.kind, ExitKind::kNephewExit);
  // With such a deep block relative to k, reaching an exit generally takes
  // backward movement; at minimum the count must be consistent.
  EXPECT_LE(res.backward_steps, res.hops);
}

TEST(Forward, BaseDesignDiesOnTwoNodeNeighborAttack) {
  // Section 3.4: shutting down the OD and its counter-clockwise neighbor
  // breaks the base design (no backward mode, nephews only at distance 1).
  Overlay ov{128, base(3), TableStorage::kEager, uniform_children(8)};
  const ids::RingIndex od = 50;
  ov.kill(od);
  ov.kill(ids::counter_clockwise_step(od, 1, 128));

  const auto res = ov.forward(10, od);
  EXPECT_EQ(res.kind, ExitKind::kUnreachable);
}

TEST(Forward, EnhancedSurvivesTwoNodeNeighborAttack) {
  Overlay ov{128, enhanced(5, 3), TableStorage::kEager, uniform_children(8)};
  const ids::RingIndex od = 50;
  ov.kill(od);
  ov.kill(ids::counter_clockwise_step(od, 1, 128));

  const auto res = ov.forward(10, od);
  EXPECT_EQ(res.kind, ExitKind::kNephewExit);
}

TEST(Forward, UnrepairedRingGapCutsBackwardWalkShort) {
  // Ablation of active recovery. Force a pure backward walk by killing the
  // OD and *every* node holding a routing entry for it; the dead
  // entry-holders leave holes in the counter-clockwise chain. With repaired
  // ring pointers the walk skips holes (and eventually exhausts its budget,
  // since no exit exists at all); with stale pointers it dead-ends at the
  // first hole.
  const std::uint32_t k = 2;
  Overlay ov{64, enhanced(k, 3), TableStorage::kEager, uniform_children(8)};
  const ids::RingIndex od = 30;
  ov.kill(od);
  for (ids::RingIndex i = 0; i < 64; ++i) {
    if (i != od && ov.table(i).find(od) != nullptr) ov.kill(i);
  }
  // The immediate CCW neighbors of the OD hold entries with certainty, so
  // the backward path starts right behind a hole.
  ASSERT_FALSE(ov.alive(ids::counter_clockwise_step(od, 1, 64)));

  const ids::RingIndex entrance = ids::clockwise_step(od, 5, 64) < 64 &&
                                          ov.alive(ids::clockwise_step(od, 32, 64))
                                      ? ids::clockwise_step(od, 32, 64)
                                      : *ov.nearest_alive_cw(od);

  ov.set_ring_repaired(true);
  const auto repaired = ov.forward(entrance, od);
  EXPECT_EQ(repaired.kind, ExitKind::kUnreachable);  // no exit exists at all

  ov.set_ring_repaired(false);
  const auto stale = ov.forward(entrance, od);
  EXPECT_EQ(stale.kind, ExitKind::kUnreachable);
  // The stale-pointer walk dies at the first hole; the repaired walk keeps
  // skipping holes until its hop budget ends.
  EXPECT_LT(stale.hops, repaired.hops);
}

TEST(Forward, DropperSwallowsQueries) {
  Overlay ov{64, enhanced()};
  // Find the first hop toward 40 from 0 and make it a dropper.
  ForwardOptions opts;
  opts.record_path = true;
  const auto clean = ov.forward(0, 40, opts);
  ASSERT_EQ(clean.kind, ExitKind::kArrivedAtOd);
  ASSERT_GE(clean.path.size(), 2U);
  ov.set_behavior(clean.path[1], NodeBehavior::kDropper);

  const auto res = ov.forward(0, 40, opts);
  EXPECT_EQ(res.kind, ExitKind::kDropped);
  EXPECT_EQ(res.last_node, clean.path[1]);
}

TEST(Forward, MisrouterStillUsuallyDelivers) {
  Overlay ov{128, enhanced()};
  ov.set_behavior(5, NodeBehavior::kMisrouter);
  int delivered = 0;
  for (ids::RingIndex to = 10; to < 128; to += 7) {
    const auto res = ov.forward(5, to);
    if (res.kind == ExitKind::kArrivedAtOd) ++delivered;
  }
  // Mis-routing wastes hops but honest downstream nodes resume greedy.
  EXPECT_GT(delivered, 10);
}

TEST(Forward, IdenticalOverlaysMisrouteIdentically) {
  // Each overlay draws misroutes from its own stream: a second overlay with
  // the same params routes the same queries along the same paths, whatever
  // the first one drew before it.
  const auto routes = [] {
    Overlay ov{128, enhanced()};
    ov.set_behavior(5, NodeBehavior::kMisrouter);
    ForwardOptions opts;
    opts.record_path = true;
    std::vector<std::vector<ids::RingIndex>> paths;
    for (ids::RingIndex to = 10; to < 128; to += 7) paths.push_back(ov.forward(5, to, opts).path);
    return paths;
  };
  EXPECT_EQ(routes(), routes());
}

TEST(Forward, LazyStorageMatchesEager) {
  OverlayParams params = enhanced(5, 3);
  Overlay eager{512, params, TableStorage::kEager};
  Overlay lazy{512, params, TableStorage::kLazy};
  for (ids::RingIndex from = 0; from < 512; from += 61) {
    for (ids::RingIndex to = 2; to < 512; to += 97) {
      const auto a = eager.forward(from, to);
      const auto b = lazy.forward(from, to);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.hops, b.hops);
      EXPECT_EQ(a.last_node, b.last_node);
    }
  }
}

TEST(Forward, HopBudgetBoundsPathologicalQueries) {
  Overlay ov{32, enhanced(2, 2)};
  // Kill everything except two nodes on opposite sides; no exit can exist
  // for a dead OD whose every potential exit is dead.
  for (ids::RingIndex i = 0; i < 32; ++i) {
    if (i != 0 && i != 1) ov.kill(i);
  }
  const auto res = ov.forward(0, 16);
  EXPECT_EQ(res.kind, ExitKind::kUnreachable);
}

TEST(Reseed, RedrawsPointersKeepsLiveness) {
  Overlay ov{128, enhanced()};
  ov.kill(7);
  std::vector<ids::RingIndex> before;
  for (const auto& e : ov.table(0).entries()) before.push_back(e.sibling);

  ov.reseed(0xDEADBEEF);
  std::vector<ids::RingIndex> after;
  for (const auto& e : ov.table(0).entries()) after.push_back(e.sibling);

  EXPECT_NE(before, after);       // fresh random structure
  EXPECT_FALSE(ov.alive(7));      // liveness preserved
  EXPECT_EQ(ov.forward(3, 40).kind, ExitKind::kArrivedAtOd);  // still routes
}

TEST(Reseed, RetryWithRefreshClosesResidualFailures) {
  // Section 7 "Overlay Maintenance" closing the Figure-10 residual: under
  // an extreme neighbor attack a given table state may leave no exit, but
  // each periodic regeneration is an independent draw, so retrying across a
  // few refreshes converges to delivery (or proves the OD truly isolated).
  const std::uint32_t n = 200;
  const ids::RingIndex od = 50;
  int failed_then_recovered = 0;
  int never_failed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    OverlayParams params = enhanced(3, 3);
    params.seed = 0x9E5EED + static_cast<std::uint64_t>(trial);
    Overlay ov{n, params, TableStorage::kEager, uniform_children(8)};
    ov.kill(od);
    for (std::uint32_t s = 1; s <= 120; ++s) {
      ov.kill(ids::counter_clockwise_step(od, s, n));
    }
    const auto entrance = *ov.nearest_alive_cw(od);
    if (ov.forward(entrance, od).kind == ExitKind::kNephewExit) {
      ++never_failed;
      continue;
    }
    // Refresh up to 5 times; each redraw is an independent chance.
    for (int refresh = 0; refresh < 5; ++refresh) {
      ov.reseed(params.seed + 1000 + static_cast<std::uint64_t>(refresh));
      if (ov.forward(entrance, od).kind == ExitKind::kNephewExit) {
        ++failed_then_recovered;
        break;
      }
    }
  }
  // Some trials fail on the first draw at this severity (k=3, 60% block)...
  EXPECT_GT(40 - never_failed, 0);
  // ...and refreshes recover essentially all of them.
  EXPECT_GE(never_failed + failed_then_recovered, 39);
}

TEST(Liveness, KillReviveCounts) {
  Overlay ov{16, enhanced()};
  EXPECT_EQ(ov.alive_count(), 16U);
  ov.kill(3);
  ov.kill(3);
  EXPECT_EQ(ov.alive_count(), 15U);
  ov.revive(3);
  EXPECT_EQ(ov.alive_count(), 16U);
  ov.kill(1);
  ov.kill(2);
  ov.revive_all();
  EXPECT_EQ(ov.alive_count(), 16U);
}

TEST(Liveness, NearestAliveScans) {
  Overlay ov{16, enhanced()};
  ov.kill(4);
  ov.kill(5);
  EXPECT_EQ(ov.nearest_alive_ccw(6).value(), 3U);
  EXPECT_EQ(ov.nearest_alive_cw(3).value(), 6U);
  for (ids::RingIndex i = 0; i < 16; ++i) {
    if (i != 6) ov.kill(i);
  }
  EXPECT_FALSE(ov.nearest_alive_ccw(6).has_value());
}

// ---- parameterized sweep: delivery without attack, across designs/sizes -----------

// gtest names each case after the raw bytes of its parameter, so the struct
// spells its padding out as zeroed bytes: implicit padding is indeterminate and
// put different bytes into the test name in every process.
struct DeliveryCase {
  std::uint32_t n;
  Design design;
  std::array<std::uint8_t, 3> zero_padding{};
  std::uint32_t k;
};
static_assert(std::has_unique_object_representations_v<DeliveryCase>);

class DeliverySweep : public ::testing::TestWithParam<DeliveryCase> {};

TEST_P(DeliverySweep, AlwaysDeliversWithNoFailures) {
  const auto& [n, design, zero_padding, k] = GetParam();
  OverlayParams params;
  params.design = design;
  params.k = k;
  Overlay ov{n, params};
  for (std::uint32_t trial = 0; trial < 200; ++trial) {
    const auto from = static_cast<ids::RingIndex>((trial * 2654435761ULL) % n);
    const auto to = static_cast<ids::RingIndex>((trial * 40503ULL + 17) % n);
    const auto res = ov.forward(from, to);
    ASSERT_EQ(res.kind, ExitKind::kArrivedAtOd) << "n=" << n << " " << from << "->" << to;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeliverySweep,
    ::testing::Values(DeliveryCase{.n = 8, .design = Design::kBase, .k = 1},
                      DeliveryCase{.n = 100, .design = Design::kBase, .k = 1},
                      DeliveryCase{.n = 1000, .design = Design::kBase, .k = 1},
                      DeliveryCase{.n = 8, .design = Design::kEnhanced, .k = 5},
                      DeliveryCase{.n = 100, .design = Design::kEnhanced, .k = 5},
                      DeliveryCase{.n = 1000, .design = Design::kEnhanced, .k = 5},
                      DeliveryCase{.n = 1000, .design = Design::kEnhanced, .k = 1},
                      DeliveryCase{.n = 257, .design = Design::kEnhanced, .k = 10}));

}  // namespace
}  // namespace hours::overlay
