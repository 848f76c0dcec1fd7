// Heap-allocation budgets of the event engine's and the answer cache's hot paths.
//
// This binary replaces the global operator new and operator delete with
// counting versions (only this binary: each test is its own executable).
// A check reads the counter before and after a bracketed region and
// compares outside it: gtest itself allocates, so no gtest macro runs
// inside a region.
//
// Once the simulator's slab, id index and event heap, and the transport's
// pending table, have grown to a run's peak, scheduling, cancelling,
// dispatching and acked sends must allocate nothing; a client-driven query
// on the hierarchy engine, a graph-engine lookup, a facade admission and an
// evicting answer-cache insert stay under per-call budgets.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hours/concurrent_resolver.hpp"
#include "hours/hours.hpp"
#include "ids/ring.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/query_client.hpp"
#include "sim/simulator.hpp"
#include "sim/transport.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// All three are kept out of line: once g++ 12 inlines the malloc() or the
// free() into a caller, it reports the pair as mismatched with the
// operator delete or operator new on the other side. The library's array
// forms forward to these.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace hours::sim {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

constexpr std::uint32_t kKind = 7;  // any nonzero kind; the runner ignores it

TEST(AllocBudget, SimulatorScheduleRunAndCancelAllocateNothing) {
  Simulator sim;
  std::uint64_t ran = 0;
  sim.set_runner([&ran](std::uint32_t, const std::uint64_t*, std::size_t) { ++ran; });
  const std::uint64_t args[3] = {1, 2, 3};
  const auto cycles = [&](int runs, int cancels) {
    for (int i = 0; i < runs; ++i) {
      sim.schedule(1 + static_cast<Ticks>(i % 7), kKind, args, 3);
      sim.run();
    }
    for (int i = 0; i < cancels; ++i) {
      sim.cancel(sim.schedule(1 + static_cast<Ticks>(i % 100), kKind, args, 3));
    }
  };
  cycles(64, 64);  // warm-up: the slab slot, its argument buffer, the index

  const std::uint64_t before = allocations();
  cycles(10'000, 1'000);
  const std::uint64_t during = allocations() - before;

  EXPECT_EQ(during, 0U);
  EXPECT_EQ(ran, 64U + 10'000U);
  EXPECT_EQ(sim.pending(), 0U);
}

TEST(AllocBudget, SimulatorDeepQueueBurstAllocatesNothing) {
  // 1,000 queued three-word events with delays 1-1,000; a shuffled 600 are
  // cancelled and the other 400 run. The second, identical burst must
  // reuse the queue's storage, not regrow it: neither a cancelled event
  // left behind nor a queue that shrank as it drained would pass.
  Simulator sim;
  std::uint64_t ran = 0;
  sim.set_runner([&ran](std::uint32_t, const std::uint64_t*, std::size_t) { ++ran; });
  const std::uint64_t args[3] = {1, 2, 3};
  std::vector<std::uint64_t> ids(1'000);
  const auto burst = [&] {
    rng::Xoshiro256 rng{25};
    for (std::uint64_t& id : ids) id = sim.schedule(1 + rng.below(1'000), kKind, args, 3);
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[static_cast<std::size_t>(rng.below(i))]);
    }
    for (std::size_t i = 0; i < 600; ++i) sim.cancel(ids[i]);
    sim.run();
  };
  burst();  // warm-up: the slab, the argument buffers, the index, the queue

  const std::uint64_t before = allocations();
  burst();
  const std::uint64_t during = allocations() - before;

  EXPECT_EQ(during, 0U);
  EXPECT_EQ(ran, 2U * 400U);
  EXPECT_EQ(sim.pending(), 0U);
}

/// A payload that owns no heap memory.
struct Word {
  std::uint64_t value = 0;
};

TEST(AllocBudget, TransportContinuationSendsAllocateNothing) {
  Simulator sim;
  Transport<Word> transport{
      sim, TransportConfig{}, 3, /*seed=*/11,
      [](const Word& w, std::vector<std::uint64_t>& out) { out.push_back(w.value); },
      [](const std::uint64_t* words, std::size_t) { return Word{words[0]}; }};
  transport.set_handler([](std::uint32_t, const Transport<Word>::Envelope&) {});
  transport.set_alive(2, false);  // every send to node 2 times out

  struct Outcomes {
    std::uint64_t acks = 0;
    std::uint64_t timeouts = 0;
  } outcomes;
  constexpr std::uint32_t kAcked = 0xE01;  // an unclaimed block: the fallback runs it
  constexpr std::uint32_t kTimedOut = 0xE02;
  sim.set_runner([&outcomes](std::uint32_t kind, const std::uint64_t*, std::size_t) {
    ++(kind == kAcked ? outcomes.acks : outcomes.timeouts);
  });
  // Half the sends are acked, half time out. Each send's continuations are
  // views of words on the caller's stack, one word and three, their widths
  // swapped every two sends, so acked and timed-out sends both reuse each
  // width's retained storage. Each send runs to completion before the next,
  // as EventBackend runs its queries.
  const auto sends = [&](std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t words[3] = {i, 2ULL * i, 3ULL * i};
      const std::span<const std::uint64_t> one{words, 1};
      const std::span<const std::uint64_t> three{words};
      transport.send_expect_ack(0, 1 + i % 2, Word{i}, {kAcked, i % 4 < 2 ? one : three},
                                {kTimedOut, i % 4 < 2 ? three : one});
      sim.run();
    }
  };
  sends(16);  // warm-up: slab slots, their argument buffers, both indices

  const std::uint64_t before = allocations();
  sends(1'000);
  const std::uint64_t during = allocations() - before;

  EXPECT_EQ(during, 0U);
  EXPECT_EQ(outcomes.acks, 508U);
  EXPECT_EQ(outcomes.timeouts, 508U);
  EXPECT_EQ(sim.pending(), 0U);
}

TEST(AllocBudget, ClientDrivenQueriesStayUnderBudget) {
  // Three levels of 16 (4,369 nodes), a struck block of five level-1 zones
  // and one of three level-2 nodes, 2% loss; queries from the root to
  // random nodes, settled one at a time and released, as EventBackend
  // drives them.
  HierarchySimConfig cfg;
  cfg.fanout = {16, 16, 16};
  cfg.transport.loss_probability = 0.02;
  HierarchySimulation sim{cfg};
  for (std::uint32_t s = 0; s < 5; ++s) sim.kill({ids::counter_clockwise_step(9, s, 16)});
  for (std::uint32_t s = 0; s < 3; ++s) sim.kill({2, ids::counter_clockwise_step(5, s, 16)});
  QueryClientConfig ccfg;
  ccfg.deadline = 8'000;
  QueryClient client{make_query_network(sim), ccfg};

  rng::Xoshiro256 rng{0xA110CULL};
  std::uint64_t delivered = 0;
  std::uint64_t unsettled = 0;
  const auto queries = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto dest = static_cast<std::uint32_t>(rng.below(sim.node_count()));
      const std::uint64_t qid = client.submit(0, dest);
      while (client.outcome(qid).status == QueryStatus::kPending) {
        if (sim.simulator().run(/*limit=*/0, /*max_events=*/1) == 0) break;
      }
      const QueryStatus status = client.outcome(qid).status;
      if (status == QueryStatus::kPending) {
        ++unsettled;
        continue;
      }
      if (status == QueryStatus::kDelivered) ++delivered;
      client.release(qid);
    }
  };
  queries(2'000);  // warm-up: routing tables, slabs and indices

  constexpr int kMeasured = 2'000;
  const std::uint64_t before = allocations();
  queries(kMeasured);
  const double per_query =
      static_cast<double>(allocations() - before) / static_cast<double>(kMeasured);

  EXPECT_EQ(unsettled, 0U);
  EXPECT_GT(delivered, 3'000U);
  EXPECT_GT(client.stats().retransmissions, 0U);
  EXPECT_GT(client.stats().failovers, 0U);
  // Recorded in a RelWithDebInfo build with g++ 12: 3.51 allocations per
  // query; 12.8 when every replan rebuilt the destination's path and a
  // fresh candidate list, and the client filtered a copy of it through a
  // fresh suspect vector; 42.3 when each scheduled event, pending ack and
  // hop-attempt callback allocated.
  EXPECT_LT(per_query, 3.9) << per_query << " allocations per query";
}

TEST(AllocBudget, GraphLookupStaysUnderBudget) {
  // A resolver miss's facade call: HoursSystem::lookup on the graph engine
  // over 10 zones x 100 hosts, one A record each. A first pass over every
  // host builds the overlays; the second pass is counted.
  HoursSystem sys;
  std::vector<std::string> hosts;
  for (int z = 0; z < 10; ++z) {
    std::string zone = "z";
    zone += std::to_string(z);
    ASSERT_TRUE(sys.admit(zone).ok());
    for (int h = 0; h < 100; ++h) {
      std::string host = "h";
      host += std::to_string(h);
      host += '.';
      host += zone;
      ASSERT_TRUE(sys.admit(host).ok());
      ASSERT_TRUE(sys.add_record(host, {"A", "10.0.0.1", 300}).ok());
      hosts.push_back(std::move(host));
    }
  }
  std::uint64_t answered = 0;
  const auto lookups = [&] {
    for (const auto& host : hosts) {
      const auto result = sys.lookup(host);
      if (result.query.delivered && result.records.size() == 1) ++answered;
    }
  };
  lookups();  // warm-up: overlays and routing tables

  const std::uint64_t before = allocations();
  lookups();
  const double per_lookup =
      static_cast<double>(allocations() - before) / static_cast<double>(hosts.size());

  EXPECT_EQ(answered, 2'000U);
  // Recorded in a RelWithDebInfo build with g++ 12: 9.1 allocations per
  // lookup; 14.1 when the record store was an ordered map keyed by Name,
  // lookup parsed the name a second time for the records and the path walk
  // allocated a std::function and a parent list at every level.
  EXPECT_LT(per_lookup, 10.0) << per_lookup << " allocations per lookup";
}

TEST(AllocBudget, AdmissionStaysUnderBudget) {
  // The facade admissions that build a hierarchy: levels 1 and 2 of a
  // 16 x 16 x 16 tree first, then the 4,096 depth-3 names, counted. The
  // names are spelled before the count starts.
  HoursSystem sys;
  std::vector<std::string> leaves;
  for (int a = 0; a < 16; ++a) {
    std::string zone = "a";
    zone += std::to_string(a);
    ASSERT_TRUE(sys.admit(zone).ok());
    for (int b = 0; b < 16; ++b) {
      std::string site = "b";
      site += std::to_string(b);
      site += '.';
      site += zone;
      ASSERT_TRUE(sys.admit(site).ok());
      for (int c = 0; c < 16; ++c) {
        std::string leaf = "c";
        leaf += std::to_string(c);
        leaf += '.';
        leaf += site;
        leaves.push_back(std::move(leaf));
      }
    }
  }
  std::uint64_t admitted = 0;
  const std::uint64_t before = allocations();
  for (const auto& leaf : leaves) admitted += sys.admit(leaf).ok() ? 1 : 0;
  const double per_admission =
      static_cast<double>(allocations() - before) / static_cast<double>(leaves.size());

  EXPECT_EQ(admitted, 4'096U);
  EXPECT_EQ(sys.hierarchy().node_count(), 16U + 256U + 4'096U);
  // Recorded in a RelWithDebInfo build with g++ 12: 2.94 allocations per
  // admission; 5.94 when every tree node held a copy of its full name,
  // admission built the parent's name to find it, and the admitted name
  // was copied into the result.
  EXPECT_LT(per_admission, 3.5) << per_admission << " allocations per admission";
}

TEST(AllocBudget, EvictingInsertAllocatesOnlyItsNode) {
  // A one-shard ConcurrentResolver of capacity 256, one insert per second
  // with a 300 s TTL: once full, every insert of a fresh name evicts the
  // entry closest to expiry. 2,000 inserts grow the shard, its eviction
  // heap and the RCU retire list to their peak; then 4,000 more, with the
  // records moved in and the names short enough for std::string's inline
  // buffer, are counted.
  HoursSystem sys;
  ConcurrentResolver cache{sys, /*capacity=*/256, /*shard_count=*/1};
  constexpr std::size_t kWarm = 2'000;
  constexpr std::size_t kMeasured = 4'000;
  std::vector<std::string> names;
  std::vector<std::vector<store::Record>> answers;
  for (std::size_t i = 0; i < kWarm + kMeasured; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    names.push_back(std::move(name));
    answers.push_back({store::Record{"A", "10.0.0.1", 300}});
  }
  const auto inserts = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) cache.insert(names[i], i, std::move(answers[i]));
  };
  inserts(0, kWarm);

  const std::uint64_t before = allocations();
  inserts(kWarm, kWarm + kMeasured);
  const double per_insert =
      static_cast<double>(allocations() - before) / static_cast<double>(kMeasured);

  EXPECT_EQ(cache.cached_names(), 256U);
  EXPECT_EQ(cache.stats().evictions, kWarm + kMeasured - 256U);
  // Recorded in a RelWithDebInfo build with g++ 12: 1.000 allocations per
  // insert, the node; an index that allocates a node of its own per entry
  // (a std::set) reads 2.
  EXPECT_LE(per_insert, 1.0) << per_insert << " allocations per insert";
}

}  // namespace
}  // namespace hours::sim
