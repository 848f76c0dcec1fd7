// Routing-table construction (Algorithm 1) — structure, determinism,
// base-vs-enhanced differences, and Theorem 1's O(log N) size, swept over
// (N, k) with parameterized property tests.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <type_traits>

#include "analysis/resilience.hpp"
#include "ids/ring.hpp"
#include "overlay/table_builder.hpp"

namespace hours::overlay {
namespace {

OverlayParams base_params(std::uint32_t q = 3) {
  OverlayParams p;
  p.design = Design::kBase;
  p.q = q;
  return p;
}

OverlayParams enhanced_params(std::uint32_t k = 5, std::uint32_t q = 3) {
  OverlayParams p;
  p.design = Design::kEnhanced;
  p.k = k;
  p.q = q;
  return p;
}

TEST(RoutingTableType, FindAndOrdering) {
  RoutingTable t{2, 10};
  t.add_entry(TableEntry{3, {}});
  t.add_entry(TableEntry{5, {}});
  t.add_entry(TableEntry{0, {}});  // distance 8 from owner 2

  EXPECT_NE(t.find(3), nullptr);
  EXPECT_NE(t.find(0), nullptr);
  EXPECT_EQ(t.find(4), nullptr);
  EXPECT_EQ(t.size(), 3U);
}

TEST(RoutingTableType, LastBeforeDistance) {
  RoutingTable t{0, 100};
  t.add_entry(TableEntry{1, {}});
  t.add_entry(TableEntry{5, {}});
  t.add_entry(TableEntry{20, {}});

  // Entries at distances {1, 5, 20}.
  EXPECT_EQ(t.last_before_distance(1), t.entries().size());  // none strictly below 1
  EXPECT_EQ(t.entries()[t.last_before_distance(2)].sibling, 1U);
  EXPECT_EQ(t.entries()[t.last_before_distance(6)].sibling, 5U);
  EXPECT_EQ(t.entries()[t.last_before_distance(20)].sibling, 5U);
  EXPECT_EQ(t.entries()[t.last_before_distance(99)].sibling, 20U);
}

TEST(RoutingTableType, InsertEntrySortsAndReplaces) {
  RoutingTable t{0, 100};
  t.add_entry(TableEntry{5, {}});
  t.insert_entry(TableEntry{2, {}});
  t.insert_entry(TableEntry{50, {}});
  t.insert_entry(TableEntry{5, {7, 8}});  // replace

  ASSERT_EQ(t.size(), 3U);
  EXPECT_EQ(t.entries()[0].sibling, 2U);
  EXPECT_EQ(t.entries()[1].sibling, 5U);
  EXPECT_EQ(t.entries()[1].nephews.size(), 2U);
  EXPECT_EQ(t.entries()[2].sibling, 50U);
}

TEST(TableBuilder, Deterministic) {
  const auto params = enhanced_params();
  const RoutingTable a = build_routing_table(500, 42, params);
  const RoutingTable b = build_routing_table(500, 42, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i].sibling, b.entries()[i].sibling);
    EXPECT_EQ(a.entries()[i].nephews, b.entries()[i].nephews);
  }
}

TEST(TableBuilder, DifferentNodesDifferentTables) {
  const auto params = enhanced_params();
  const RoutingTable a = build_routing_table(500, 1, params);
  const RoutingTable b = build_routing_table(500, 2, params);
  // Identical tables for distinct owners would betray broken seed derivation.
  bool different = a.size() != b.size();
  if (!different) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      const auto da = ids::clockwise_distance(1, a.entries()[i].sibling, 500);
      const auto db = ids::clockwise_distance(2, b.entries()[i].sibling, 500);
      if (da != db) {
        different = true;
        break;
      }
    }
  }
  EXPECT_TRUE(different);
}

TEST(TableBuilder, BaseKeepsClockwiseNeighborAndNoCcwPointer) {
  const RoutingTable t = build_routing_table(200, 10, base_params());
  ASSERT_GE(t.size(), 1U);
  EXPECT_EQ(t.entries().front().sibling, 11U);  // distance-1 pointer is certain
  EXPECT_FALSE(t.ccw_neighbor().has_value());   // base design: no backward pointer
}

TEST(TableBuilder, EnhancedKeepsKClockwiseNeighborsAndCcwPointer) {
  const std::uint32_t k = 5;
  const RoutingTable t = build_routing_table(200, 10, enhanced_params(k));
  ASSERT_GE(t.size(), k);
  for (std::uint32_t d = 1; d <= k; ++d) {
    EXPECT_EQ(ids::clockwise_distance(10, t.entries()[d - 1].sibling, 200), d);
  }
  ASSERT_TRUE(t.ccw_neighbor().has_value());
  EXPECT_EQ(*t.ccw_neighbor(), 9U);
}

TEST(TableBuilder, BaseNephewsOnlyOnClockwiseNeighbor) {
  auto child_count = [](ids::RingIndex) { return 20U; };
  const RoutingTable t = build_routing_table(200, 0, base_params(/*q=*/3), child_count);
  ASSERT_GE(t.size(), 1U);
  EXPECT_EQ(t.entries().front().nephews.size(), 3U);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_TRUE(t.entries()[i].nephews.empty());
  }
}

TEST(TableBuilder, EnhancedNephewsOnEveryEntry) {
  auto child_count = [](ids::RingIndex) { return 20U; };
  const RoutingTable t =
      build_routing_table(200, 0, enhanced_params(5, /*q=*/4), child_count);
  for (const auto& entry : t.entries()) {
    EXPECT_EQ(entry.nephews.size(), 4U);
    for (const auto n : entry.nephews) EXPECT_LT(n, 20U);
  }
}

TEST(TableBuilder, NephewCountCappedByChildren) {
  auto child_count = [](ids::RingIndex j) { return j % 2 == 0 ? 2U : 0U; };
  const RoutingTable t =
      build_routing_table(50, 0, enhanced_params(3, /*q=*/10), child_count);
  for (const auto& entry : t.entries()) {
    if (entry.sibling % 2 == 0) {
      EXPECT_EQ(entry.nephews.size(), 2U);  // only two children exist
    } else {
      EXPECT_TRUE(entry.nephews.empty());
    }
  }
}

TEST(TableBuilder, SingletonAndPairRings) {
  EXPECT_EQ(build_routing_table(1, 0, enhanced_params()).size(), 0U);
  const RoutingTable pair = build_routing_table(2, 0, enhanced_params());
  ASSERT_EQ(pair.size(), 1U);
  EXPECT_EQ(pair.entries()[0].sibling, 1U);
}

// ---- parameterized property sweep ------------------------------------------------

// gtest names each case after the raw bytes of its parameter, so the struct
// spells its padding out as zeroed bytes: implicit padding is indeterminate and
// put different bytes into the test name in every process.
struct SweepCase {
  std::uint32_t n;
  std::uint32_t k;
  Design design;
  std::array<std::uint8_t, 3> zero_padding{};
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

class TableSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(TableSweep, SizeTracksTheoremOne) {
  const auto& [n, k, design, zero_padding] = GetParam();
  OverlayParams params;
  params.design = design;
  params.k = k;

  double total = 0;
  const std::uint32_t samples = std::min(200U, n);
  for (std::uint32_t i = 0; i < samples; ++i) {
    const auto owner = static_cast<ids::RingIndex>((i * 7919ULL) % n);
    const RoutingTable t = build_routing_table(n, owner, params);

    // Entries sorted, unique, in-range — structural invariants.
    for (std::size_t e = 1; e < t.size(); ++e) {
      EXPECT_LT(ids::clockwise_distance(owner, t.entries()[e - 1].sibling, n),
                ids::clockwise_distance(owner, t.entries()[e].sibling, n));
    }
    total += static_cast<double>(t.size());
  }

  const double mean = total / samples;
  const double expected = analysis::expected_table_size(n, params.effective_k());
  // Sample mean over >=100 nodes: allow 15% plus a small absolute slack.
  EXPECT_NEAR(mean, expected, 0.15 * expected + 1.0)
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, TableSweep,
    ::testing::Values(SweepCase{100, 1, Design::kBase}, SweepCase{1000, 1, Design::kBase},
                      SweepCase{10'000, 1, Design::kBase}, SweepCase{100, 5, Design::kEnhanced},
                      SweepCase{1000, 5, Design::kEnhanced},
                      SweepCase{10'000, 5, Design::kEnhanced},
                      SweepCase{1000, 10, Design::kEnhanced},
                      SweepCase{1000, 2, Design::kEnhanced}));

}  // namespace
}  // namespace hours::overlay
