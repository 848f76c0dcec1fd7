// Event-driven ring maintenance: probing, conventional neighborhood
// recovery, and Section 4.3 active recovery (Figure 3's scenario).
#include <gtest/gtest.h>

#include "sim/ring_protocol.hpp"

namespace hours::sim {
namespace {

RingSimConfig make_config(std::uint32_t size, std::uint32_t k) {
  RingSimConfig cfg;
  cfg.size = size;
  cfg.params.design = overlay::Design::kEnhanced;
  cfg.params.k = k;
  cfg.params.q = 2;
  cfg.params.seed = 0xFEEDULL;
  return cfg;
}

TEST(RingProtocol, StableRingStaysConnected) {
  RingSimulation ring{make_config(16, 3)};
  ring.start();
  ring.simulator().run(10 * ring.config().probe_period);
  EXPECT_TRUE(ring.ring_connected());
  EXPECT_GT(ring.probes_sent(), 0U);
  EXPECT_EQ(ring.repairs_sent(), 0U);  // nothing to repair
}

TEST(RingProtocol, ConventionalRecoveryHandlesSmallGap) {
  // Gap shorter than k: the node behind the gap walks its certain clockwise
  // pointers; no Repair message needed.
  const std::uint32_t k = 4;
  RingSimulation ring{make_config(24, k)};
  ring.start();
  ring.simulator().run(2 * ring.config().probe_period);

  ring.kill(10);
  ring.kill(11);  // gap of 2 < k
  ring.simulator().run(6 * ring.config().probe_period);

  EXPECT_TRUE(ring.ring_connected());
  EXPECT_EQ(ring.cw_successor(9), 12U);
  EXPECT_EQ(ring.ccw_neighbor(12), 9U);
}

TEST(RingProtocol, ActiveRecoveryBridgesLargeGap) {
  // Gap wider than k: all certain pointers across it are dead, so the node
  // clockwise of the gap must emit a Repair that lands behind the gap.
  const std::uint32_t k = 2;
  RingSimulation ring{make_config(24, k)};
  ring.start();
  ring.simulator().run(2 * ring.config().probe_period);

  for (ids::RingIndex i = 8; i <= 13; ++i) ring.kill(i);  // gap of 6 >> k
  ring.simulator().run(20 * ring.config().probe_period);

  EXPECT_TRUE(ring.ring_connected());
  EXPECT_EQ(ring.cw_successor(7), 14U);
  EXPECT_EQ(ring.ccw_neighbor(14), 7U);
  EXPECT_GE(ring.repairs_sent(), 1U);
}

TEST(RingProtocol, StaleRecoveryWalkKeepsTheRepairedSuccessor) {
  // A 200-node gap starts both recoveries. Node 1999 walks its table one
  // 250-tick probe timeout at a time, starting a fresh walk every silent
  // period, while node 200's §4.3 Repair travels the ring and attaches 1999
  // to 200 about 7.1 periods after the kill. A stale walk's probe of an
  // alive node past 200 is acknowledged after that; it must not overwrite
  // the closer successor and skip the alive nodes in between, or the ring
  // reopens and creeps shut one node per period.
  RingSimConfig cfg;  // enhanced, k = 5, library-default seeds, probe-only
  cfg.size = 2'000;
  RingSimulation ring{cfg};
  ring.start();
  ring.simulator().run(3 * cfg.probe_period);
  for (ids::RingIndex i = 0; i < 200; ++i) ring.kill(i);
  ring.simulator().run(7 * cfg.probe_period);
  for (int periods = 8; periods <= 12; ++periods) {
    ring.simulator().run(cfg.probe_period);
    EXPECT_TRUE(ring.ring_connected()) << periods << " probe periods after the kill";
    EXPECT_EQ(ring.cw_successor(1999), 200U) << periods << " probe periods after the kill";
  }
}

TEST(RingProtocol, FigureThreeScenario) {
  // The paper's example: 10 nodes, k = 2, nodes 8 and 9 fail together.
  // Node 0 must eventually reconnect to node 7.
  RingSimConfig cfg = make_config(10, 2);
  RingSimulation ring{cfg};
  ring.start();
  ring.simulator().run(2 * cfg.probe_period);

  ring.kill(8);
  ring.kill(9);
  ring.simulator().run(20 * cfg.probe_period);

  EXPECT_TRUE(ring.ring_connected());
  EXPECT_EQ(ring.cw_successor(7), 0U);
  EXPECT_EQ(ring.ccw_neighbor(0), 7U);
}

TEST(RingProtocol, MultipleSimultaneousGaps) {
  RingSimulation ring{make_config(32, 2)};
  ring.start();
  ring.simulator().run(2 * ring.config().probe_period);

  for (ids::RingIndex i = 4; i <= 8; ++i) ring.kill(i);
  for (ids::RingIndex i = 18; i <= 23; ++i) ring.kill(i);
  ring.simulator().run(30 * ring.config().probe_period);

  EXPECT_TRUE(ring.ring_connected());
}

TEST(RingProtocol, QueriesDeliverOnHealthyRing) {
  RingSimulation ring{make_config(32, 3)};
  ring.start();
  ring.simulator().run(2 * ring.config().probe_period);

  const auto q1 = ring.inject_query(0, 20);
  const auto q2 = ring.inject_query(5, 6);
  const auto q3 = ring.inject_query(31, 31);
  ring.simulator().run(10 * ring.config().probe_period);

  EXPECT_TRUE(ring.query(q1).done);
  EXPECT_TRUE(ring.query(q1).delivered);
  EXPECT_TRUE(ring.query(q2).delivered);
  EXPECT_TRUE(ring.query(q3).delivered);
  EXPECT_EQ(ring.query(q3).hops, 0U);
}

TEST(RingProtocol, QueriesSurviveAfterRecovery) {
  const std::uint32_t k = 2;
  RingSimulation ring{make_config(32, k)};
  ring.start();
  ring.simulator().run(2 * ring.config().probe_period);

  // Neighbor-style attack around node 16 (kill it and 5 CCW neighbors).
  for (ids::RingIndex i = 11; i <= 16; ++i) ring.kill(i);
  ring.simulator().run(30 * ring.config().probe_period);
  ASSERT_TRUE(ring.ring_connected());

  // Queries toward the dead OD's neighborhood still terminate, and queries
  // between live nodes deliver.
  const auto q = ring.inject_query(20, 10);
  ring.simulator().run(20 * ring.config().probe_period);
  EXPECT_TRUE(ring.query(q).done);
  EXPECT_TRUE(ring.query(q).delivered);
}

TEST(RingProtocol, RecoveryConvergesUnderMessageLoss) {
  // 5% loss: probes and Repairs are retried every period, so the ring still
  // heals — it just may take more periods.
  RingSimConfig cfg = make_config(24, 2);
  cfg.loss_probability = 0.05;
  cfg.probe_failure_threshold = 3;  // lossy links need hysteresis
  RingSimulation ring{cfg};
  ring.start();
  ring.simulator().run(2 * cfg.probe_period);

  for (ids::RingIndex i = 8; i <= 13; ++i) ring.kill(i);
  ring.simulator().run(60 * cfg.probe_period);

  EXPECT_TRUE(ring.ring_connected());
  const auto q = ring.inject_query(20, 5);
  ring.simulator().run(30 * cfg.probe_period);
  EXPECT_TRUE(ring.query(q).delivered);
}

TEST(RingProtocol, RevivedNodeRejoins) {
  RingSimulation ring{make_config(16, 3)};
  ring.start();
  ring.simulator().run(2 * ring.config().probe_period);

  ring.kill(5);
  ring.simulator().run(8 * ring.config().probe_period);
  EXPECT_TRUE(ring.ring_connected());

  ring.revive(5);
  ring.simulator().run(8 * ring.config().probe_period);
  // The revived node probes its original neighbors and re-claims its slot.
  EXPECT_TRUE(ring.alive(5));
  EXPECT_EQ(ring.cw_successor(5), 6U);
}

}  // namespace
}  // namespace hours::sim
