// End-to-end query client: per-hop retry with capped exponential backoff,
// alternate-pointer failover, client-side suspicion, and deadline budgets —
// liveness inferred purely from silence.
#include <gtest/gtest.h>

#include <vector>

#include "rng/xoshiro256.hpp"
#include "sim/fault_injector.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/query_client.hpp"
#include "sim/ring_protocol.hpp"

namespace hours::sim {
namespace {

RingSimConfig client_ring(double loss = 0.0) {
  RingSimConfig cfg;
  cfg.size = 16;
  cfg.loss_probability = loss;
  return cfg;
}

TEST(QueryClient, DeliversOnHealthyRing) {
  RingSimulation ring{client_ring()};
  QueryClient client{make_query_network(ring), QueryClientConfig{}};
  const auto qid = client.submit(0, 8);
  ring.simulator().run();

  const auto& out = client.outcome(qid);
  EXPECT_EQ(out.status, QueryStatus::kDelivered);
  EXPECT_GE(out.hops, 1U);
  EXPECT_EQ(out.retransmissions, 0U);
  EXPECT_EQ(out.failovers, 0U);
  EXPECT_GT(out.latency(), 0U);
  EXPECT_EQ(client.stats().delivered, 1U);
}

TEST(QueryClient, ImmediateDeliveryWhenStartIsDestination) {
  RingSimulation ring{client_ring()};
  QueryClient client{make_query_network(ring), QueryClientConfig{}};
  const auto qid = client.submit(5, 5);
  ring.simulator().run();
  EXPECT_EQ(client.outcome(qid).status, QueryStatus::kDelivered);
  EXPECT_EQ(client.outcome(qid).hops, 0U);
}

TEST(QueryClient, RetriesAbsorbLoss) {
  // Loss probabilities {0.1, 0.3}: retransmissions mask lost messages and
  // lost acks; nearly everything still delivers, and under loss the client
  // observably retransmits.
  for (const double loss : {0.1, 0.3}) {
    RingSimulation ring{client_ring(loss)};
    QueryClientConfig cfg;
    cfg.max_retries_per_hop = 3;
    QueryClient client{make_query_network(ring), cfg};

    std::vector<std::uint64_t> qids;
    for (std::uint32_t i = 0; i < 40; ++i) {
      qids.push_back(client.submit(i % 16, (i * 5 + 8) % 16));
    }
    ring.simulator().run();

    std::uint64_t delivered = 0;
    for (const auto qid : qids) {
      if (client.outcome(qid).status == QueryStatus::kDelivered) ++delivered;
    }
    EXPECT_GE(delivered, 36U) << "loss=" << loss;  // >= 90% even at 30% loss
    EXPECT_GT(client.stats().retransmissions, 0U) << "loss=" << loss;
  }
}

TEST(QueryClient, LossFreeNeedsNoRetransmissions) {
  RingSimulation ring{client_ring(0.0)};
  QueryClient client{make_query_network(ring), QueryClientConfig{}};
  for (std::uint32_t i = 0; i < 20; ++i) client.submit(i % 16, (i + 7) % 16);
  ring.simulator().run();
  EXPECT_EQ(client.stats().delivered, 20U);
  EXPECT_EQ(client.stats().retransmissions, 0U);
}

TEST(QueryClient, DeadlineBoundsAnUnreachableQuery) {
  // Everything but the start node is dead and the deadline (300) expires
  // before the first backoff retry can even fire: deterministic
  // deadline-exceeded, completed exactly at the budget.
  RingSimulation ring{client_ring()};
  for (ids::RingIndex i = 1; i < 16; ++i) ring.kill(i);
  QueryClientConfig cfg;
  cfg.deadline = 300;  // ack_timeout is 250
  QueryClient client{make_query_network(ring), cfg};
  const auto qid = client.submit(0, 8);
  ring.simulator().run();

  const auto& out = client.outcome(qid);
  EXPECT_EQ(out.status, QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(out.latency(), 300U);
  EXPECT_EQ(client.stats().deadline_exceeded, 1U);
}

TEST(QueryClient, RetriesStraddlingAHealedPartitionDeliverWithinDeadline) {
  // The destination is cut off (not dead) when the query is issued; every
  // attempt on the last hop times out until the partition heals at 6'000.
  // The client's backoff/retry/failover loop must keep the query alive
  // across the heal boundary and deliver well inside its 20'000 deadline.
  RingSimulation ring{client_ring()};
  std::vector<std::uint32_t> rest;
  for (std::uint32_t i = 0; i < 16; ++i) {
    if (i != 12) rest.push_back(i);
  }
  FaultInjector injector{make_fault_target(ring),
                         FaultPlan{}.partition({{12}, rest}, 100, 6'000)};
  injector.arm();
  ring.simulator().run(200);  // partition in force before submission
  ASSERT_TRUE(injector.link_severed(1, 12));

  // Patient client: the per-hop retry schedule (backoff 200, 400, 800,
  // 1'600, 3'000, 3'000 ...) stretches past the heal at 6'000, so the later
  // retransmissions of the stuck final hop land on a restored link.
  QueryClientConfig cfg;
  cfg.max_retries_per_hop = 6;
  cfg.backoff_cap = 3'000;
  cfg.deadline = 20'000;
  QueryClient client{make_query_network(ring), cfg};
  const auto qid = client.submit(1, 12);
  ring.simulator().run();

  const auto& out = client.outcome(qid);
  EXPECT_EQ(out.status, QueryStatus::kDelivered);
  EXPECT_GE(out.completed_at, 6'000U);         // impossible while severed
  EXPECT_LE(out.completed_at, 200U + 20'000U);  // and within the budget
  EXPECT_GE(out.retransmissions, 1U);           // the cut forced retries
  EXPECT_EQ(injector.stats().kills, 0U);        // connectivity fault only
}

TEST(QueryClient, NoRouteWhenEveryPointerIsSuspect) {
  RingSimulation ring{client_ring()};
  for (ids::RingIndex i = 1; i < 16; ++i) ring.kill(i);
  QueryClientConfig cfg;
  cfg.max_retries_per_hop = 0;  // fail over immediately, no retransmits
  QueryClient client{make_query_network(ring), cfg};
  const auto qid = client.submit(0, 8);
  ring.simulator().run();

  const auto& out = client.outcome(qid);
  EXPECT_EQ(out.status, QueryStatus::kNoRoute);
  EXPECT_GT(out.failovers, 0U);  // every candidate was tried and suspected
  EXPECT_EQ(out.hops, 0U);
  EXPECT_EQ(client.stats().no_route, 1U);
}

TEST(QueryClient, FailsOverToAlternatePointerAfterRetryExhaustion) {
  RingSimulation ring{client_ring()};
  // Find a destination whose best first-hop candidate is an intermediary
  // (not the destination itself), then kill exactly that intermediary.
  ids::RingIndex dest = 0;
  ids::RingIndex first_choice = 0;
  for (ids::RingIndex d = 2; d < 16; ++d) {
    bool backward = false;
    const auto cands = ring.route_candidates(0, d, backward);
    if (cands.size() >= 2 && cands.front() != d) {
      dest = d;
      first_choice = cands.front();
      break;
    }
  }
  ASSERT_NE(dest, 0U) << "no suitable destination under this seed";
  ring.kill(first_choice);

  QueryClientConfig cfg;
  cfg.max_retries_per_hop = 1;
  QueryClient client{make_query_network(ring), cfg};
  const auto qid = client.submit(0, dest);
  ring.simulator().run();

  const auto& out = client.outcome(qid);
  EXPECT_EQ(out.status, QueryStatus::kDelivered);
  EXPECT_GE(out.retransmissions, 1U);  // the dead first choice was retried...
  EXPECT_GE(out.failovers, 1U);        // ...then abandoned for an alternate
  EXPECT_TRUE(client.suspected(first_choice));
}

TEST(QueryClient, SuspicionExpiresAfterTtl) {
  RingSimulation ring{client_ring()};
  bool backward = false;
  const auto cands = ring.route_candidates(0, 8, backward);
  ASSERT_FALSE(cands.empty());
  const auto victim = cands.front();
  ring.kill(victim);

  QueryClientConfig cfg;
  cfg.max_retries_per_hop = 0;
  cfg.suspicion_ttl = 2'000;
  QueryClient client{make_query_network(ring), cfg};
  client.submit(0, 8);
  ring.simulator().run();
  EXPECT_TRUE(client.suspected(victim));

  ring.revive(victim);
  ring.simulator().run(cfg.suspicion_ttl + 1);
  EXPECT_FALSE(client.suspected(victim));
}

TEST(QueryClient, BackoffGrowsExponentiallyAndCaps) {
  RingSimulation ring{client_ring()};
  QueryClientConfig cfg;
  cfg.backoff_base = 100;
  cfg.backoff_cap = 450;
  QueryClient client{make_query_network(ring), cfg};
  EXPECT_EQ(client.base_backoff(1), 100U);
  EXPECT_EQ(client.base_backoff(2), 200U);
  EXPECT_EQ(client.base_backoff(3), 400U);
  EXPECT_EQ(client.base_backoff(4), 450U);  // clamped
  EXPECT_EQ(client.base_backoff(10), 450U);
}

TEST(QueryClient, RunsAreBitReproducible) {
  const auto run_once = [](std::vector<std::uint64_t>& trace) {
    RingSimulation ring{client_ring(0.2)};
    QueryClientConfig cfg;
    cfg.deadline = 30'000;
    QueryClient client{make_query_network(ring), cfg};
    std::vector<std::uint64_t> qids;
    for (std::uint32_t i = 0; i < 30; ++i) qids.push_back(client.submit(i % 16, (i * 3) % 16));
    ring.simulator().run();
    for (const auto qid : qids) {
      const auto& out = client.outcome(qid);
      trace.push_back(static_cast<std::uint64_t>(out.status));
      trace.push_back(out.hops);
      trace.push_back(out.retransmissions);
      trace.push_back(out.completed_at);
    }
  };
  std::vector<std::uint64_t> first;
  std::vector<std::uint64_t> second;
  run_once(first);
  run_once(second);
  EXPECT_EQ(first, second);
}

TEST(QueryClient, DrivesHierarchySimulationAroundDeadOnPathNode) {
  HierarchySimConfig cfg;
  cfg.fanout = {8, 4};
  HierarchySimulation sim{cfg};
  const auto dest = sim.id_of({3, 2});
  sim.kill({3});  // the on-path child of the root

  QueryClientConfig ccfg;
  ccfg.max_retries_per_hop = 1;
  QueryClient client{make_query_network(sim), ccfg};
  const auto qid = client.submit(sim.id_of({}), dest);
  sim.simulator().run();

  const auto& out = client.outcome(qid);
  EXPECT_EQ(out.status, QueryStatus::kDelivered);
  EXPECT_GE(out.failovers, 1U);  // went around the dead entrance
}

TEST(QueryClient, HierarchyHealthyPathDelivers) {
  HierarchySimConfig cfg;
  cfg.fanout = {8, 4};
  HierarchySimulation sim{cfg};
  QueryClient client{make_query_network(sim), QueryClientConfig{}};
  const auto qid = client.submit(sim.id_of({}), sim.id_of({5, 1}));
  sim.simulator().run();
  EXPECT_EQ(client.outcome(qid).status, QueryStatus::kDelivered);
  EXPECT_EQ(client.outcome(qid).hops, 2U);
  EXPECT_EQ(client.outcome(qid).retransmissions, 0U);
}

// Pins client-driven outcomes over the hierarchy engine: loss, a killed
// zone, a deadline and a short suspicion TTL, which leaves expired rows
// inside candidate id spans and active rows outside them. Queries run one
// at a time, as EventBackend runs them, so late callbacks of an expired
// query interleave with the next. The expected hash was recorded with the
// earlier client, which tested each candidate's suspicion separately.
TEST(QueryClient, HierarchyOutcomesPinned) {
  HierarchySimConfig cfg;
  cfg.fanout = {12, 12, 6};
  cfg.transport.loss_probability = 0.05;
  HierarchySimulation sim{cfg};
  for (std::uint32_t s = 0; s < 3; ++s) sim.kill({ids::counter_clockwise_step(4, s, 12)});
  sim.kill({7, 3});

  QueryClientConfig ccfg;
  ccfg.max_retries_per_hop = 1;
  ccfg.deadline = 2'500;
  ccfg.suspicion_ttl = 600;
  QueryClient client{make_query_network(sim), ccfg};

  rng::Xoshiro256 rng{0x0C11E7ULL};
  const auto random_id = [&] {
    return static_cast<std::uint32_t>(rng.below(sim.node_count()));
  };
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t v) { hash = (hash ^ v) * 0x100000001b3ULL; };
  std::uint64_t delivered = 0;
  for (int i = 0; i < 2'000; ++i) {
    std::uint32_t start = random_id();
    while (!sim.alive_id(start)) start = random_id();
    const auto qid = client.submit(start, random_id());
    while (client.outcome(qid).status == QueryStatus::kPending) {
      ASSERT_EQ(sim.simulator().run(/*limit=*/0, /*max_events=*/1), 1U);
    }
    const auto& out = client.outcome(qid);
    mix(static_cast<std::uint64_t>(out.status));
    mix(out.hops);
    mix(out.retransmissions);
    mix(out.failovers);
    mix(out.latency());
    if (out.status == QueryStatus::kDelivered) ++delivered;
  }
  const auto stats = client.stats();
  EXPECT_GT(delivered, 1'000U);
  EXPECT_GT(stats.deadline_exceeded, 0U);
  EXPECT_GT(stats.failovers, 0U);
  EXPECT_EQ(hash, 0xaa5759f25c6d6529ULL) << std::hex << "0x" << hash;
}

TEST(QueryClient, ReleasedQueryIgnoresLateCallbacks) {
  // The first query's on-path entrance is dead, so its first attempt times
  // out at 250 and a retransmission follows 150-250 ticks later. A deadline
  // of 100 expires while that attempt is outstanding; one of 300 expires
  // while the retransmission is queued. Either way a callback for the
  // settled query is still queued when it is released, must find nothing
  // and return, and must leave the next query exactly as it finds it
  // without the release.
  for (const Ticks deadline : {Ticks{100}, Ticks{300}}) {
    SCOPED_TRACE(testing::Message() << "deadline " << deadline);
    const auto run = [deadline](bool release) {
      HierarchySimConfig cfg;
      cfg.fanout = {8, 4};
      HierarchySimulation sim{cfg};
      sim.kill({3});
      QueryClientConfig ccfg;
      ccfg.deadline = deadline;
      QueryClient client{make_query_network(sim), ccfg};

      const auto first = client.submit(sim.id_of({}), sim.id_of({3, 1}));
      while (client.outcome(first).status == QueryStatus::kPending &&
             sim.simulator().run(/*limit=*/0, /*max_events=*/1) == 1) {
      }
      EXPECT_EQ(client.outcome(first).status, QueryStatus::kDeadlineExceeded);
      EXPECT_GT(sim.simulator().pending(), 0U);  // the late callback
      if (release) client.release(first);
      EXPECT_NO_THROW(sim.simulator().run());

      const auto second = client.submit(sim.id_of({}), sim.id_of({5, 2}));
      sim.simulator().run();
      return client.outcome(second);
    };
    const auto kept = run(false);
    const auto released = run(true);
    EXPECT_EQ(released.status, kept.status);
    EXPECT_EQ(released.hops, kept.hops);
    EXPECT_EQ(released.retransmissions, kept.retransmissions);
    EXPECT_EQ(released.failovers, kept.failovers);
    EXPECT_EQ(released.issued_at, kept.issued_at);
    EXPECT_EQ(released.completed_at, kept.completed_at);
  }
}

}  // namespace
}  // namespace hours::sim
