// Churn & fault-injection engine: scripted and stochastic fault schedules
// expanded deterministically onto the event simulators.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/fault_injector.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/ring_protocol.hpp"

namespace hours::sim {
namespace {

RingSimConfig small_ring() {
  RingSimConfig cfg;
  cfg.size = 16;
  return cfg;
}

TEST(FaultInjector, CrashAndTimedRecovery) {
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring), FaultPlan{}.crash(3, 100, 500)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(99);
  EXPECT_TRUE(ring.alive(3));
  sim.run(1);  // t=100: fail-stop
  EXPECT_FALSE(ring.alive(3));
  EXPECT_TRUE(injector.held_down(3));
  sim.run(399);  // t=499: still down
  EXPECT_FALSE(ring.alive(3));
  sim.run(1);  // t=500: recovery
  EXPECT_TRUE(ring.alive(3));
  EXPECT_FALSE(injector.held_down(3));
  EXPECT_EQ(injector.stats().kills, 1U);
  EXPECT_EQ(injector.stats().revivals, 1U);
}

TEST(FaultInjector, AddedPlanSharesRefcountsAndBlocksSave) {
  // A plan added at t=50 overlaps the armed one: [100, 500) and
  // [250, 850) hold node 3 down as their union, and the injector, whose
  // section echoes one plan, refuses to save from then on.
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring), FaultPlan{}.crash(3, 100, 500)};
  injector.arm();
  std::string error;
  (void)injector.save_state(error);
  EXPECT_EQ(error, "");

  auto& sim = ring.simulator();
  sim.run(50);
  injector.add(FaultPlan{}.crash(3, 200, 800));
  (void)injector.save_state(error);
  EXPECT_NE(error, "");
  sim.run(750);  // t=800: past the first window, inside the second
  EXPECT_FALSE(ring.alive(3));
  sim.run(100);  // t=900
  EXPECT_TRUE(ring.alive(3));
  EXPECT_EQ(injector.stats().kills, 1U);
  EXPECT_EQ(injector.stats().revivals, 1U);
}

TEST(FaultInjector, PermanentCrashNeverRecovers) {
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring), FaultPlan{}.crash(7, 10)};
  injector.arm();
  ring.simulator().run(100'000);
  EXPECT_FALSE(ring.alive(7));
  EXPECT_EQ(injector.stats().revivals, 0U);
}

TEST(FaultInjector, FlappingNodeOscillatesAndEndsAlive) {
  RingSimulation ring{small_ring()};
  // Down at 10, 60, 110; up at 30, 80, 130.
  FaultInjector injector{make_fault_target(ring),
                         FaultPlan{}.flap(5, 10, /*down=*/20, /*up=*/30, /*cycles=*/3)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(15);
  EXPECT_FALSE(ring.alive(5));
  sim.run(20);  // t=35
  EXPECT_TRUE(ring.alive(5));
  sim.run(30);  // t=65
  EXPECT_FALSE(ring.alive(5));
  sim.run(1000);
  EXPECT_TRUE(ring.alive(5));
  EXPECT_EQ(injector.stats().kills, 3U);
  EXPECT_EQ(injector.stats().revivals, 3U);
}

TEST(FaultInjector, CorrelatedOutageRestrikesAfterRepair) {
  RingSimulation ring{small_ring()};
  // Strike {1,2,3} at 50 for 100 ticks, calm for 50, strike again at 200.
  FaultInjector injector{
      make_fault_target(ring),
      FaultPlan{}.correlated_outage({1, 2, 3}, 50, /*duration=*/100, /*strikes=*/2,
                                    /*strike_gap=*/50)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(60);
  for (ids::RingIndex i : {1U, 2U, 3U}) EXPECT_FALSE(ring.alive(i));
  sim.run(115);  // t=175: between strikes
  for (ids::RingIndex i : {1U, 2U, 3U}) EXPECT_TRUE(ring.alive(i));
  sim.run(75);  // t=250: second strike in force
  for (ids::RingIndex i : {1U, 2U, 3U}) EXPECT_FALSE(ring.alive(i));
  sim.run(10'000);
  for (ids::RingIndex i : {1U, 2U, 3U}) EXPECT_TRUE(ring.alive(i));
  EXPECT_EQ(injector.stats().kills, 6U);
  EXPECT_EQ(injector.stats().revivals, 6U);
}

TEST(FaultInjector, OverlappingWindowsAreRefcounted) {
  // A node covered by two windows stays down until the *last* one lifts and
  // only counts one kill/revive transition pair.
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring),
                         FaultPlan{}.crash(7, 10, 100).crash(7, 50, 60)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(55);
  EXPECT_FALSE(ring.alive(7));
  sim.run(20);  // t=75: the inner window lifted at 60 — still down
  EXPECT_FALSE(ring.alive(7));
  EXPECT_TRUE(injector.held_down(7));
  sim.run(50);  // t=125: outer window lifted at 100
  EXPECT_TRUE(ring.alive(7));
  EXPECT_EQ(injector.stats().kills, 1U);
  EXPECT_EQ(injector.stats().revivals, 1U);
}

TEST(FaultInjector, LossEpisodeSetsAndRestoresRate) {
  RingSimConfig cfg = small_ring();
  cfg.loss_probability = 0.05;
  RingSimulation ring{cfg};
  FaultInjector injector{make_fault_target(ring),
                         FaultPlan{}.loss_episode(0.4, 100, 200)};
  injector.arm();

  auto& sim = ring.simulator();
  EXPECT_DOUBLE_EQ(ring.loss_probability(), 0.05);
  sim.run(150);
  EXPECT_DOUBLE_EQ(ring.loss_probability(), 0.4);
  sim.run(100);
  EXPECT_DOUBLE_EQ(ring.loss_probability(), 0.05);  // restored to the prior rate
  EXPECT_EQ(injector.stats().loss_changes, 2U);
}

TEST(FaultInjector, StackedLossEpisodesUnwindInOrder) {
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring), FaultPlan{}
                                                      .loss_episode(0.2, 100, 500)
                                                      .loss_episode(0.6, 200, 300)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(250);
  EXPECT_DOUBLE_EQ(ring.loss_probability(), 0.6);
  sim.run(100);  // t=350: inner episode restored the 0.2 in force at its start
  EXPECT_DOUBLE_EQ(ring.loss_probability(), 0.2);
  sim.run(200);  // t=550: outer episode restored the base 0.0
  EXPECT_DOUBLE_EQ(ring.loss_probability(), 0.0);
}

TEST(FaultInjector, RandomChurnIsSeededAndSparesProtectedNodes) {
  const auto run_one = [](std::vector<bool>& liveness_trace) {
    RingSimulation ring{small_ring()};
    FaultInjector injector{
        make_fault_target(ring),
        FaultPlan{}.random_churn(/*events=*/25, /*from=*/0, /*until=*/10'000,
                                 /*mean_downtime=*/800, /*seed=*/42, /*spare=*/{0, 1})};
    injector.arm();
    auto& sim = ring.simulator();
    for (int step = 0; step < 10; ++step) {
      sim.run(1'200);
      EXPECT_TRUE(ring.alive(0));  // spared
      EXPECT_TRUE(ring.alive(1));
      for (ids::RingIndex i = 0; i < 16; ++i) liveness_trace.push_back(ring.alive(i));
    }
    return injector.stats().kills;
  };

  std::vector<bool> first_trace;
  std::vector<bool> second_trace;
  const auto first_kills = run_one(first_trace);
  const auto second_kills = run_one(second_trace);
  EXPECT_EQ(first_trace, second_trace);  // bit-reproducible schedule
  EXPECT_EQ(first_kills, second_kills);
  EXPECT_GT(first_kills, 0U);
}

// -- link-level faults (partitions, cuts) -------------------------------------------

TEST(FaultInjector, PartitionSeversCrossGroupLinksOnly) {
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring),
                         FaultPlan{}.partition({{0, 1, 2}, {3, 4}}, 100, 500)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(99);
  EXPECT_FALSE(injector.link_severed(0, 3));
  sim.run(1);  // t=100: cut in force
  EXPECT_TRUE(injector.link_severed(0, 3));
  EXPECT_TRUE(injector.link_severed(3, 0));  // both directions
  EXPECT_TRUE(injector.link_severed(2, 4));
  EXPECT_FALSE(injector.link_severed(0, 1));   // same group
  EXPECT_FALSE(injector.link_severed(3, 4));   // same group
  EXPECT_FALSE(injector.link_severed(0, 15));  // unlisted node: full connectivity
  for (ids::RingIndex i = 0; i < 5; ++i) EXPECT_TRUE(ring.alive(i));  // nobody died
  sim.run(400);  // t=500: healed
  EXPECT_FALSE(injector.link_severed(0, 3));
  // 3 * 2 cross pairs, both directions.
  EXPECT_EQ(injector.stats().link_cuts, 12U);
  EXPECT_EQ(injector.stats().link_heals, 12U);
  EXPECT_EQ(injector.stats().kills, 0U);
}

TEST(FaultInjector, CutLinkSeversExactlyOnePair) {
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring), FaultPlan{}.cut_link(2, 9, 50, 200)};
  injector.arm();

  ring.simulator().run(60);
  EXPECT_TRUE(injector.link_severed(2, 9));
  EXPECT_TRUE(injector.link_severed(9, 2));
  EXPECT_FALSE(injector.link_severed(2, 8));
  ring.simulator().run(200);
  EXPECT_FALSE(injector.link_severed(2, 9));
}

TEST(FaultInjector, OverlappingPartitionWindowsSharingANodeAreRefcounted) {
  // Node 2 sits on the cut side of two windows: [100, 400) severing {2}|{5}
  // and [200, 600) severing {2}|{5, 6}. The 2<->5 link is covered by both
  // and must stay severed until the *last* window lifts at 600, while
  // 2<->6 heals with its only window. One transition pair per link.
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring), FaultPlan{}
                                                      .partition({{2}, {5}}, 100, 400)
                                                      .partition({{2}, {5, 6}}, 200, 600)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(250);
  EXPECT_TRUE(injector.link_severed(2, 5));
  EXPECT_TRUE(injector.link_severed(2, 6));
  sim.run(200);  // t=450: first window lifted at 400 — 2<->5 still covered
  EXPECT_TRUE(injector.link_severed(2, 5));
  EXPECT_FALSE(injector.link_severed(5, 2) != injector.link_severed(2, 5));
  sim.run(200);  // t=650: second window lifted at 600
  EXPECT_FALSE(injector.link_severed(2, 5));
  EXPECT_FALSE(injector.link_severed(2, 6));
  // 2<->5 flipped once (despite double coverage); 2<->6 once.
  EXPECT_EQ(injector.stats().link_cuts, 4U);   // {2-5, 5-2} + {2-6, 6-2}
  EXPECT_EQ(injector.stats().link_heals, 4U);
}

TEST(FaultInjector, PermanentPartitionNeverHeals) {
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring),
                         FaultPlan{}.partition({{0, 1}, {2, 3}}, 10)};  // heal_at == 0
  injector.arm();
  ring.simulator().run(1'000'000);
  EXPECT_TRUE(injector.link_severed(0, 2));
  EXPECT_TRUE(injector.link_severed(1, 3));
  EXPECT_EQ(injector.stats().link_heals, 0U);
}

TEST(FaultInjector, PartitionOfAnAlreadyCrashedNodeComposesWithRecovery) {
  // Node 4 crashes at 50 and recovers at 300, inside a partition window
  // [100, 800) that cuts it off from node 10. While crashed it is dead AND
  // severed; after the crash lifts it is alive but still unreachable; only
  // the heal restores contact. Node and link state never bleed into each
  // other.
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring), FaultPlan{}
                                                      .crash(4, 50, 300)
                                                      .partition({{4}, {10}}, 100, 800)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(150);  // crashed and partitioned
  EXPECT_FALSE(ring.alive(4));
  EXPECT_TRUE(injector.held_down(4));
  EXPECT_TRUE(injector.link_severed(4, 10));
  sim.run(200);  // t=350: crash lifted, partition still up
  EXPECT_TRUE(ring.alive(4));
  EXPECT_FALSE(injector.held_down(4));
  EXPECT_TRUE(injector.link_severed(4, 10));  // alive yet unreachable
  sim.run(500);  // t=850: partition healed
  EXPECT_TRUE(ring.alive(4));
  EXPECT_FALSE(injector.link_severed(4, 10));
  EXPECT_EQ(injector.stats().kills, 1U);
  EXPECT_EQ(injector.stats().revivals, 1U);
  EXPECT_EQ(injector.stats().link_cuts, 2U);
  EXPECT_EQ(injector.stats().link_heals, 2U);
}

TEST(FaultInjector, CrashAndPartitionRefcountsAreIndependent) {
  // The node refcount (crash windows) and the link refcount (partition
  // windows) must not share state: lifting the only crash while two
  // partition windows still cover the node leaves every link severed, and
  // vice versa a late crash re-kills a node whose partitions all healed.
  RingSimulation ring{small_ring()};
  FaultInjector injector{make_fault_target(ring), FaultPlan{}
                                                      .crash(6, 100, 200)
                                                      .partition({{6}, {12}}, 50, 400)
                                                      .partition({{6}, {12}}, 60, 500)
                                                      .crash(6, 450, 550)};
  injector.arm();

  auto& sim = ring.simulator();
  sim.run(250);  // crash lifted; both partition windows in force
  EXPECT_TRUE(ring.alive(6));
  EXPECT_TRUE(injector.link_severed(6, 12));
  sim.run(200);  // t=450: one partition window left, second crash began
  EXPECT_FALSE(ring.alive(6));
  EXPECT_TRUE(injector.link_severed(6, 12));
  sim.run(150);  // t=600: everything lifted
  EXPECT_TRUE(ring.alive(6));
  EXPECT_FALSE(injector.link_severed(6, 12));
  EXPECT_EQ(injector.stats().kills, 2U);
  EXPECT_EQ(injector.stats().link_cuts, 2U);   // refcounted: one severed episode
  EXPECT_EQ(injector.stats().link_heals, 2U);
}

TEST(FaultInjector, DescribeSerializesEverySpecKind) {
  const auto plan = FaultPlan{}
                        .crash(3, 100, 500)
                        .flap(5, 10, 20, 30, 3)
                        .correlated_outage({1, 2}, 50, 100, 2, 50)
                        .partition({{0, 1}, {2, 3}}, 10, 900)
                        .cut_link(4, 9, 20, 800)
                        .loss_episode(0.25, 100, 200)
                        .random_churn(5, 0, 1'000, 100, 42, {0});
  const std::string text = plan.describe();
  EXPECT_NE(text.find("crash(3, 100, 500)"), std::string::npos);
  EXPECT_NE(text.find("flap(5, 10, 20, 30, 3)"), std::string::npos);
  EXPECT_NE(text.find("correlated_outage({1, 2}, 50, 100, 2, 50)"), std::string::npos);
  EXPECT_NE(text.find("partition({{0, 1}, {2, 3}}, 10, 900)"), std::string::npos);
  EXPECT_NE(text.find("cut_link(4, 9, 20, 800)"), std::string::npos);
  EXPECT_NE(text.find("loss_episode(0.25, 100, 200)"), std::string::npos);
  EXPECT_NE(text.find("random_churn(5, 0, 1000, 100, 42, {0})"), std::string::npos);
}

TEST(FaultInjector, DrivesHierarchySimulationByNodeId) {
  HierarchySimConfig cfg;
  cfg.fanout = {6, 3};
  HierarchySimulation sim{cfg};
  const auto victim = sim.id_of({2});
  FaultInjector injector{make_fault_target(sim), FaultPlan{}.crash(victim, 10, 400)};
  injector.arm();

  sim.simulator().run(50);
  EXPECT_FALSE(sim.alive({2}));
  sim.simulator().run(500);
  EXPECT_TRUE(sim.alive({2}));
}

TEST(FaultInjector, ByzantineSwitchTurnsNodeIntoDropper) {
  HierarchySimConfig cfg;
  cfg.fanout = {6, 3};
  HierarchySimulation sim{cfg};
  const auto insider = sim.id_of({2});
  FaultInjector injector{
      make_fault_target(sim),
      FaultPlan{}.byzantine(insider, overlay::NodeBehavior::kDropper, 10'000)};
  injector.arm();

  // Before the switch: queries through {2} deliver. (run_query drains the
  // queue, so the t=10'000 switch also fires during this call — well after
  // the query settled.)
  const auto before = sim.run_query({2, 1});
  EXPECT_TRUE(before.delivered);
  EXPECT_LT(before.completed_at, 10'000U);
  EXPECT_EQ(injector.stats().behavior_changes, 1U);

  // After: the insider acks (stealthy) and swallows the query — it never
  // settles, exactly the Section 5.3 silent-drop signature.
  const auto after = sim.run_query({2, 1});
  EXPECT_FALSE(after.done);
  EXPECT_FALSE(after.delivered);
}

}  // namespace
}  // namespace hours::sim
