// Event-driven, message-level hierarchy forwarding: queries decided purely
// from local state (routing tables + ack-timeout suspicion), across
// multiple overlay levels, with message loss injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>

#include "rng/xoshiro256.hpp"
#include "sim/hierarchy_protocol.hpp"

namespace hours::sim {
namespace {

HierarchySimConfig make_config(std::vector<std::uint32_t> fanout, std::uint32_t k = 3) {
  HierarchySimConfig cfg;
  cfg.fanout = std::move(fanout);
  cfg.params.design = overlay::Design::kEnhanced;
  cfg.params.k = k;
  cfg.params.q = 3;
  return cfg;
}

TEST(HierarchyProtocol, TopologyLayout) {
  HierarchySimulation sim{make_config({4, 3})};
  EXPECT_EQ(sim.node_count(), 1U + 4U + 12U);
  EXPECT_EQ(sim.id_of({}), 0U);
  // Path <-> id round trip for every node.
  for (std::uint32_t id = 0; id < sim.node_count(); ++id) {
    EXPECT_EQ(sim.id_of(sim.path_of(id)), id);
  }
}

TEST(HierarchyProtocol, HealthyDeliveryExactHops) {
  HierarchySimulation sim{make_config({6, 4})};
  const auto outcome = sim.run_query({3, 2});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_EQ(outcome.hops, 2U);  // pure tree path
  EXPECT_EQ(outcome.timeouts, 0U);
}

TEST(HierarchyProtocol, SelfAndLevelOneDelivery) {
  HierarchySimulation sim{make_config({5})};
  EXPECT_TRUE(sim.run_query({}).delivered);
  const auto one = sim.run_query({4});
  EXPECT_TRUE(one.delivered);
  EXPECT_EQ(one.hops, 1U);
}

TEST(HierarchyProtocol, DetourAroundDeadAncestor) {
  HierarchySimulation sim{make_config({8, 6})};
  sim.kill({5});
  const auto outcome = sim.run_query({5, 3});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_GE(outcome.hops, 2U);      // detour can exit via a nephew straight to the leaf
  EXPECT_GE(outcome.timeouts, 1U);  // learned the death by silence
}

TEST(HierarchyProtocol, WholePathDeadStillDelivers) {
  HierarchySimulation sim{make_config({8, 8, 3})};
  sim.kill({5});
  sim.kill({5, 2});
  const auto outcome = sim.run_query({5, 2, 1});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
}

TEST(HierarchyProtocol, DeadDestinationFails) {
  HierarchySimulation sim{make_config({4, 4})};
  sim.kill({1, 2});
  const auto outcome = sim.run_query({1, 2});
  ASSERT_TRUE(outcome.done);
  EXPECT_FALSE(outcome.delivered);
}

TEST(HierarchyProtocol, SuspicionIsLearnedAndReset) {
  HierarchySimulation sim{make_config({6, 4})};
  sim.kill({2});
  const auto first = sim.run_query({2, 1});
  ASSERT_TRUE(first.delivered);
  EXPECT_GE(first.timeouts, 1U);

  // Second query: the root already suspects the dead child; no new timeout
  // needed at that hop.
  const auto second = sim.run_query({2, 1});
  ASSERT_TRUE(second.delivered);
  EXPECT_LT(second.timeouts, first.timeouts + 1);

  // Revive: suspicion cleared, tree path works again.
  sim.revive({2});
  const auto third = sim.run_query({2, 1});
  ASSERT_TRUE(third.delivered);
  EXPECT_EQ(third.hops, 2U);
}

TEST(HierarchyProtocol, BootstrapFromSibling) {
  HierarchySimulation sim{make_config({8, 4})};
  sim.kill({});  // dead root
  const auto outcome = sim.run_query({5, 1}, /*start=*/{3});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
}

TEST(HierarchyProtocol, ClimbFromUnrelatedStart) {
  HierarchySimulation sim{make_config({4, 4})};
  const auto outcome = sim.run_query({2, 2}, /*start=*/{1, 1});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
  EXPECT_GE(outcome.hops, 3U);  // climb + descend
}

TEST(HierarchyProtocol, NeighborAttackCrossedByBackwardWalk) {
  // k = 3 keeps the no-surviving-exit probability ~1% (the event engine
  // uses one fixed seed per test).
  HierarchySimConfig cfg = make_config({24, 4}, /*k=*/3);
  HierarchySimulation sim{cfg};
  const ids::RingIndex target = 10;
  sim.kill({target});
  for (std::uint32_t s = 1; s <= 4; ++s) {
    sim.kill({ids::counter_clockwise_step(target, s, 24)});
  }
  const auto outcome = sim.run_query({target, 2});
  ASSERT_TRUE(outcome.done);
  EXPECT_TRUE(outcome.delivered);
}

TEST(HierarchyProtocol, UnrepairedRingLimitsBackwardReach) {
  HierarchySimConfig cfg = make_config({24, 4}, /*k=*/3);
  cfg.assume_ring_repaired = false;
  HierarchySimulation repaired_off{cfg};
  cfg.assume_ring_repaired = true;
  HierarchySimulation repaired_on{cfg};

  for (auto* sim : {&repaired_off, &repaired_on}) {
    const ids::RingIndex target = 10;
    sim->kill({target});
    for (std::uint32_t s = 1; s <= 6; ++s) {
      sim->kill({ids::counter_clockwise_step(target, s, 24)});
    }
  }
  const auto off = repaired_off.run_query({10, 2});
  const auto on = repaired_on.run_query({10, 2});
  EXPECT_TRUE(on.delivered);
  // Without repair the walk may dead-end; it must never beat the repaired
  // ring, and both must terminate.
  EXPECT_TRUE(off.done);
  EXPECT_LE(off.delivered, on.delivered);
}

TEST(HierarchyProtocol, SurvivesMessageLoss) {
  HierarchySimConfig cfg = make_config({8, 4});
  cfg.transport.loss_probability = 0.10;
  HierarchySimulation sim{cfg};
  sim.kill({3});
  int delivered = 0;
  for (int i = 0; i < 20; ++i) {
    const auto outcome = sim.run_query({3, static_cast<ids::RingIndex>(i % 4)});
    if (outcome.delivered) ++delivered;
  }
  // Lossy links cost timeouts, not correctness, in the vast majority of
  // runs (a lost ack can strand a candidate list, so allow a small miss).
  EXPECT_GE(delivered, 19);
}

TEST(HierarchyProtocol, MessagesAreCountedAndBounded) {
  HierarchySimulation sim{make_config({6, 4})};
  const auto before = sim.messages_sent();
  (void)sim.run_query({3, 2});
  const auto after = sim.messages_sent();
  EXPECT_GT(after, before);
  EXPECT_LT(after - before, 16U);  // 2 hops = 2 messages + 2 acks + injection overheads
}

TEST(HierarchyProtocol, StealthyDropperSwallowsQueries) {
  // Section 5.3: an insider acks (so no timeout betrays it) and drops the
  // query; the client never gets an answer, and — unlike a DoS — upstream
  // nodes learn nothing.
  HierarchySimulation sim{make_config({6, 4})};
  sim.set_behavior({3}, overlay::NodeBehavior::kDropper);
  const auto outcome = sim.run_query({3, 2});
  EXPECT_FALSE(outcome.done);       // the query simply vanished
  EXPECT_FALSE(outcome.delivered);

  // Other subtrees are untouched.
  EXPECT_TRUE(sim.run_query({4, 1}).delivered);
}

TEST(HierarchyProtocol, DropperOnlyHurtsRoutesThroughIt) {
  HierarchySimulation sim{make_config({8, 4, 2})};
  sim.set_behavior({2, 1}, overlay::NodeBehavior::kDropper);
  // Routed *through* the insider: swallowed.
  EXPECT_FALSE(sim.run_query({2, 1, 0}).done);
  // Addressed *to* the insider: it still answers (a compromised data holder
  // is outside HOURS' scope, Section 5.3).
  EXPECT_TRUE(sim.run_query({2, 1}).delivered);
  // Everything not behind it is unaffected.
  EXPECT_TRUE(sim.run_query({2, 0, 1}).delivered);
  EXPECT_TRUE(sim.run_query({5, 3, 0}).delivered);
}

TEST(HierarchyProtocol, MisrouterDelaysButHonestNodesRecover) {
  HierarchySimulation sim{make_config({16, 4}, /*k=*/5)};
  sim.kill({9});  // force overlay detours that may traverse the misrouter
  sim.set_behavior({8}, overlay::NodeBehavior::kMisrouter);
  int delivered = 0;
  for (int i = 0; i < 8; ++i) {
    const auto outcome = sim.run_query({9, static_cast<ids::RingIndex>(i % 4)});
    if (outcome.delivered) ++delivered;
  }
  // Mis-routing wastes hops; honest downstream nodes resume the algorithm.
  EXPECT_GE(delivered, 6);
}

// The try-list order is part of the determinism contract: every
// client-driven query walks route_candidates' list front to back. This pins
// every list and the returned backward flag over seeded (at, dest, backward)
// triples, for both designs with and without ring repair, on a suspicion
// state left behind by in-network queries under loss around a struck
// sibling block. The expected hashes were recorded with the earlier planner,
// which deduplicated by searching the list built so far; they show the
// linear planner returns the same lists.
TEST(HierarchyProtocol, RouteCandidatesPinned) {
  struct Pin {
    overlay::Design design;
    bool repaired;
    std::uint64_t hash;
  };
  const std::vector<std::uint32_t> fanout{12, 12, 6};
  for (const auto& [design, repaired, expected] : {
           Pin{overlay::Design::kBase, false, 0xaceaba063658e388ULL},
           Pin{overlay::Design::kBase, true, 0xaceaba063658e388ULL},
           Pin{overlay::Design::kEnhanced, false, 0x9a9d08d8a29c706dULL},
           Pin{overlay::Design::kEnhanced, true, 0x1294a9fa143b7392ULL},
       }) {
    SCOPED_TRACE(testing::Message() << "design " << static_cast<int>(design) << " repaired "
                                    << repaired);
    HierarchySimConfig cfg = make_config(fanout, /*k=*/3);
    cfg.params.design = design;
    cfg.assume_ring_repaired = repaired;
    cfg.transport.loss_probability = 0.1;
    HierarchySimulation sim{cfg};
    for (std::uint32_t s = 0; s < 4; ++s) {
      sim.kill({ids::counter_clockwise_step(5, s, 12)});
      sim.kill({2, ids::counter_clockwise_step(7, s, 12)});
    }

    rng::Xoshiro256 rng{0x9E11ULL};
    const auto random_id = [&] {
      return static_cast<std::uint32_t>(rng.below(sim.node_count()));
    };
    // Extends `path` by up to `extra` random child indices.
    const auto descend = [&](hierarchy::NodePath path, std::uint64_t extra) {
      for (; extra > 0 && path.size() < fanout.size(); --extra) {
        path.push_back(static_cast<ids::RingIndex>(rng.below(fanout[path.size()])));
      }
      return path;
    };
    for (int i = 0; i < 120; ++i) {
      std::uint32_t start = random_id();
      while (!sim.alive_id(start)) start = random_id();
      (void)sim.run_query(sim.path_of(random_id()), sim.path_of(start));
    }
    ASSERT_GT(sim.liveness().size(), 0U);

    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](std::uint64_t v) { hash = (hash ^ v) * 0x100000001b3ULL; };
    std::size_t ancestor = 0, filtered = 0, climb = 0, nephew = 0, greedy = 0, flip = 0,
                backward_walk = 0;
    for (int i = 0; i < 3000; ++i) {
      std::uint32_t at = random_id();
      hierarchy::NodePath dest;
      switch (i % 3) {
        case 0:  // anywhere
          dest = sim.path_of(random_id());
          break;
        case 1:  // below `at`
          while (sim.path_of(at).size() == fanout.size()) at = random_id();
          dest = descend(sim.path_of(at), 1 + rng.below(fanout.size()));
          break;
        default: {  // in `at`'s sibling subtree
          while (at == 0) at = random_id();
          auto parent = sim.path_of(at);
          parent.pop_back();
          dest = descend(std::move(parent), 1 + rng.below(fanout.size()));
        }
      }
      const bool backward_in = rng.below(4) == 0;
      bool backward = backward_in;
      const auto list = sim.route_candidates(at, dest, backward);

      mix(list.size());
      for (const auto id : list) mix(id);
      mix(backward ? 1 : 0);
      auto sorted = list;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
          << "a list planned at node " << at << " holds a duplicate id";

      const auto at_path = sim.path_of(at);
      const bool below = at_path.size() < dest.size() &&
                         std::equal(at_path.begin(), at_path.end(), dest.begin());
      const bool sibling_subtree = !at_path.empty() && at_path.size() <= dest.size() &&
                                   std::equal(at_path.begin(), at_path.end() - 1, dest.begin());
      if (below) {
        ++ancestor;
        if (list.size() < fanout[at_path.size()]) ++filtered;  // suspected children dropped
      } else if (!sibling_subtree) {
        if (!at_path.empty()) ++climb;
      } else {
        for (const auto id : list) {
          if (sim.path_of(id).size() == at_path.size() + 1) ++nephew;
        }
        if (!backward_in && !backward && !list.empty()) ++greedy;
        if (!backward_in && backward) ++flip;
        if (backward_in && !list.empty()) ++backward_walk;
      }
    }
    EXPECT_GT(ancestor, 0U);
    EXPECT_GT(filtered, 0U);
    EXPECT_GT(climb, 0U);
    EXPECT_GT(nephew, 0U);
    EXPECT_GT(greedy, 0U);
    EXPECT_GT(flip, 0U);
    EXPECT_GT(backward_walk, 0U);
    EXPECT_EQ(hash, expected) << std::hex << "0x" << hash;
  }
}

// Property sweep: event engine delivery matches the oracle-based graph
// engine's guarantee (alive destinations under single-ancestor attacks are
// always reached) across shapes and k.
struct ProtoCase {
  std::uint32_t l1;
  std::uint32_t l2;
  std::uint32_t k;
};

class ProtocolSweep : public ::testing::TestWithParam<ProtoCase> {};

TEST_P(ProtocolSweep, DeliversThroughDeadAncestor) {
  const auto [l1, l2, k] = GetParam();
  HierarchySimulation sim{make_config({l1, l2}, k)};
  sim.kill({l1 / 2});
  for (ids::RingIndex leaf = 0; leaf < l2; ++leaf) {
    const auto outcome = sim.run_query({l1 / 2, leaf});
    ASSERT_TRUE(outcome.done);
    EXPECT_TRUE(outcome.delivered) << "l1=" << l1 << " l2=" << l2 << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ProtocolSweep,
                         ::testing::Values(ProtoCase{8, 4, 3}, ProtoCase{16, 8, 5},
                                           ProtoCase{32, 4, 2}, ProtoCase{5, 3, 1},
                                           ProtoCase{48, 6, 5}));

}  // namespace
}  // namespace hours::sim
