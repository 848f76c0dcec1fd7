// Edge cases and contract enforcement across modules: degenerate sizes,
// budget exhaustion, precondition violations (death tests), and extremes
// the main suites do not reach.
#include <gtest/gtest.h>

#include "analysis/resilience.hpp"
#include "metrics/histogram.hpp"
#include "hierarchy/router.hpp"
#include "hierarchy/synthetic.hpp"
#include "overlay/overlay.hpp"
#include "rng/pointer_sampler.hpp"
#include "sim/simulator.hpp"

namespace hours {
namespace {

overlay::OverlayParams enhanced(std::uint32_t k = 3, std::uint32_t q = 2) {
  overlay::OverlayParams p;
  p.k = k;
  p.q = q;
  return p;
}

// ---- contracts abort on misuse ----------------------------------------------------

using ContractDeath = ::testing::Test;

TEST(ContractDeath, OverlayIndexOutOfRange) {
  overlay::Overlay ov{8, enhanced()};
  EXPECT_DEATH(ov.kill(100), "precondition");
  EXPECT_DEATH(ov.revive(8), "precondition");
  EXPECT_DEATH((void)ov.forward(0, 9), "precondition");
}

TEST(ContractDeath, SimulatorKindBlockHasOneOwner) {
  sim::Simulator simulator;
  const auto noop = [](std::uint32_t, const std::uint64_t*, std::size_t) {};
  simulator.set_runner(0x200, noop);
  EXPECT_DEATH(simulator.set_runner(0x2FF, noop), "precondition");
  EXPECT_DEATH(simulator.set_runner(0x0FF, noop), "precondition");  // block 0 holds kOpaque
}

TEST(ContractDeath, ForwardFromDeadEntrance) {
  overlay::Overlay ov{8, enhanced()};
  ov.kill(3);
  EXPECT_DEATH((void)ov.forward(3, 5), "precondition");
}

TEST(ContractDeath, InvalidOverlayParams) {
  overlay::OverlayParams p;
  p.k = 0;
  EXPECT_DEATH(p.validate(), "precondition");
}

TEST(ContractDeath, SamplerRequiresPositiveK) {
  rng::Xoshiro256 g{1};
  EXPECT_DEATH((void)rng::sample_pointer_distances(10, 0, g), "precondition");
}

TEST(ContractDeath, HistogramQuantileRange) {
  metrics::Histogram h;
  h.add(1);
  EXPECT_DEATH((void)h.quantile(1.5), "precondition");
}

// ---- degenerate sizes ------------------------------------------------------------

TEST(EdgeCases, TwoNodeOverlayForwardsBothWays) {
  overlay::Overlay ov{2, enhanced()};
  EXPECT_EQ(ov.forward(0, 1).kind, overlay::ExitKind::kArrivedAtOd);
  EXPECT_EQ(ov.forward(1, 0).kind, overlay::ExitKind::kArrivedAtOd);
}

TEST(EdgeCases, SingleChildHierarchy) {
  hierarchy::SyntheticSpec spec;
  spec.fanout = {1, 1, 1};
  hierarchy::SyntheticHierarchy h{spec, enhanced()};
  hierarchy::Router router{h};
  const auto out = router.route({0, 0, 0});
  ASSERT_TRUE(out.delivered);
  EXPECT_EQ(out.hops, 3U);
  // The only child dead: no detour can exist.
  h.kill({0});
  EXPECT_FALSE(router.route({0, 0, 0}).delivered);
}

TEST(EdgeCases, MaxHopsOptionCapsForwarding) {
  overlay::Overlay ov{64, enhanced(2, 2)};
  const ids::RingIndex od = 32;
  ov.kill(od);
  // No children: no nephew exits can exist, so the walk would wander far.
  overlay::ForwardOptions opts;
  opts.max_hops = 3;
  const auto res = ov.forward(0, od, opts);
  EXPECT_EQ(res.kind, overlay::ExitKind::kUnreachable);
  EXPECT_LE(res.hops, 3U);
}

TEST(EdgeCases, KLargerThanRingIsFullMesh) {
  overlay::Overlay ov{6, enhanced(/*k=*/10, /*q=*/1)};
  for (ids::RingIndex i = 0; i < 6; ++i) {
    EXPECT_EQ(ov.table(i).size(), 5U);  // pointer to every sibling
    for (ids::RingIndex j = 0; j < 6; ++j) {
      if (i != j) {
        EXPECT_NE(ov.table(i).find(j), nullptr);
      }
    }
  }
  // Fully meshed: everything is one hop.
  EXPECT_EQ(ov.forward(0, 5).hops, 1U);
}

TEST(EdgeCases, BackwardStepsFormulaDegenerates) {
  // attacked = n-2 leaves exactly one alive candidate.
  const double steps = analysis::expected_backward_steps(10, 2, 8);
  EXPECT_GE(steps, 0.0);
  EXPECT_LE(steps, 1.0);
}

TEST(EdgeCases, SamplerAtMillionsIsFastAndSane) {
  rng::Xoshiro256 g{9};
  const auto distances = rng::sample_pointer_distances(2'000'000, 5, g);
  // E[count] = 5 + 5(H_{N-1} - H_5) ~ 66.
  EXPECT_GT(distances.size(), 35U);
  EXPECT_LT(distances.size(), 120U);
  for (std::size_t i = 1; i < distances.size(); ++i) {
    EXPECT_LT(distances[i - 1], distances[i]);
  }
  EXPECT_LT(distances.back(), 2'000'000U);
}

TEST(EdgeCases, SimulatorRunTwiceAndNestedCancel) {
  sim::Simulator s;
  int fired = 0;
  std::uint64_t victim = 0;
  s.schedule(10, [&] {
    ++fired;
    s.cancel(victim);  // cancel a later event from within an earlier one
  });
  victim = s.schedule(20, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  s.schedule(5, [&] { ++fired; });  // engine reusable after drain
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(EdgeCases, RouterToDeepestLeafOfHugeFanout) {
  hierarchy::SyntheticSpec spec;
  spec.fanout = {3, 40'000};  // level-2 overlay beyond the eager limit
  spec.eager_table_limit = 1'000;
  hierarchy::SyntheticHierarchy h{spec, enhanced(5, 4)};
  hierarchy::Router router{h};
  h.kill({1});
  const auto out = router.route({1, 39'999});
  ASSERT_TRUE(out.delivered);  // lazy tables route through the dead zone
}

}  // namespace
}  // namespace hours
