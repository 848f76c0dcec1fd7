#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace hours::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30U);
}

TEST(Simulator, FifoAmongSameInstant) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(5, [&] { order.push_back(1); });
  sim.schedule(5, [&] { order.push_back(2); });
  sim.schedule(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<Ticks> times;
  sim.schedule(10, [&] {
    times.push_back(sim.now());
    sim.schedule(5, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<Ticks>{10, 15}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const auto id = sim.schedule(10, [&] { ran = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending(), 0U);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterRun) {
  Simulator sim;
  const auto id = sim.schedule(1, [] {});
  sim.run();
  sim.cancel(id);  // already executed; must not break later events
  bool ran = false;
  sim.schedule(1, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, CancelOfExecutedIdDoesNotCorruptPending) {
  // Regression: cancelling an already-executed id used to sit in the
  // cancelled list forever and permanently deflate pending().
  Simulator sim;
  const auto id = sim.schedule(1, [] {});
  sim.run();
  sim.cancel(id);
  sim.cancel(id);  // twice, for good measure
  EXPECT_EQ(sim.pending(), 0U);
  sim.schedule(1, [] {});
  EXPECT_EQ(sim.pending(), 1U);
  sim.run();
  EXPECT_EQ(sim.pending(), 0U);
}

TEST(Simulator, CancelOfUnknownIdIsNoOp) {
  Simulator sim;
  sim.cancel(12345);  // never issued
  sim.schedule(1, [] {});
  EXPECT_EQ(sim.pending(), 1U);
  EXPECT_EQ(sim.run(), 1U);
}

TEST(Simulator, CancelDoesNotRecycleOntoLaterEvents) {
  // A cancelled-but-executed id must never suppress a later event that
  // happens to pop after the cancel call.
  Simulator sim;
  int ran = 0;
  const auto early = sim.schedule(1, [&] { ++ran; });
  sim.run();
  sim.cancel(early);
  const auto late = sim.schedule(1, [&] { ++ran; });
  (void)late;
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, ManyCancellationsStayConsistent) {
  // Mixed live/stale cancels at scale: pending() must track exactly the
  // events that will still execute.
  Simulator sim;
  int executed = 0;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule(static_cast<Ticks>(i + 1), [&] { ++executed; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);   // evens
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);   // repeats
  EXPECT_EQ(sim.pending(), 500U);
  sim.run();
  EXPECT_EQ(executed, 500);
  EXPECT_EQ(sim.pending(), 0U);
  for (const auto id : ids) sim.cancel(id);  // all stale now
  EXPECT_EQ(sim.pending(), 0U);
}

TEST(Simulator, RunWithTimeLimit) {
  Simulator sim;
  int count = 0;
  sim.schedule(10, [&] { ++count; });
  sim.schedule(20, [&] { ++count; });
  sim.schedule(100, [&] { ++count; });

  const auto executed = sim.run(50);
  EXPECT_EQ(executed, 2U);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 50U);  // clock advances to the limit
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, PeriodicSelfRescheduling) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> beat = [&] {
    ++ticks;
    if (ticks < 5) sim.schedule(10, beat);
  };
  sim.schedule(10, beat);
  sim.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), 50U);
}

TEST(Simulator, MaxEventsGuardsAgainstRunaway) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.schedule(1, forever); };
  sim.schedule(1, forever);
  const auto executed = sim.run(0, 1000);
  EXPECT_EQ(executed, 1000U);
}

TEST(Simulator, DescribedEventsAreInspectable) {
  Simulator sim;
  sim.schedule(10, snapshot::Described{snapshot::kFaultAction, {7}});
  sim.schedule(5, [] {});  // opaque
  const auto pending = sim.pending_events();
  ASSERT_EQ(pending.size(), 2U);
  EXPECT_EQ(pending[0].at, 5U);
  EXPECT_EQ(pending[0].id, 2U);  // the opaque event keeps its id
  EXPECT_EQ(pending[0].desc.kind, snapshot::kOpaque);
  EXPECT_EQ(pending[1].at, 10U);
  EXPECT_EQ(pending[1].desc.kind, snapshot::kFaultAction);
  EXPECT_EQ(pending[1].desc.args, (std::vector<std::uint64_t>{7}));
}

TEST(Simulator, RestoreUnderOriginalIdsKeepsFifoOrder) {
  // Three same-instant events: the FIFO tie-break follows the schedule-time
  // ids, so a restore that re-instates them under their ORIGINAL ids — in
  // any insertion order — must replay them in the original order.
  Simulator original;
  std::vector<int> order;
  for (std::uint64_t i = 0; i < 3; ++i) {
    original.schedule(50, snapshot::Described{snapshot::kFaultAction, {i}});
  }
  const auto saved = original.pending_events();
  const auto saved_next_id = original.next_id();
  const auto saved_now = original.now();
  ASSERT_EQ(saved.size(), 3U);

  Simulator restored;
  restored.set_runner(snapshot::kFaultAction,
                      [&order](std::uint32_t, const std::uint64_t* args, std::size_t) {
                        order.push_back(static_cast<int>(args[0]));
                      });
  restored.reset(saved_now, saved_next_id);
  for (auto it = saved.rbegin(); it != saved.rend(); ++it) {  // reversed on purpose
    restored.restore_event(it->at, it->id, it->desc);
  }
  restored.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(restored.now(), 50U);
  // The id sequence continues where the original left off.
  EXPECT_EQ(restored.next_id(), saved_next_id);
}

TEST(Simulator, CancelSurvivesRestore) {
  Simulator original;
  const auto keep = original.schedule(10, snapshot::Described{snapshot::kFaultAction, {0}});
  const auto drop = original.schedule(20, snapshot::Described{snapshot::kFaultAction, {1}});
  const auto saved = original.pending_events();

  Simulator restored;
  std::vector<std::uint64_t> ran;
  restored.set_runner(snapshot::kFaultAction,
                      [&ran](std::uint32_t, const std::uint64_t* args, std::size_t) {
                        ran.push_back(args[0]);
                      });
  restored.reset(original.now(), original.next_id());
  for (const auto& event : saved) restored.restore_event(event.at, event.id, event.desc);
  restored.cancel(drop);  // cancellation works on restored ids too
  restored.run();
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{0}));
  (void)keep;
}

TEST(Simulator, EachKindBlockRunsThroughItsOwnerOrTheFallback) {
  Simulator sim;
  std::vector<std::uint32_t> owner;
  std::vector<std::uint32_t> fallback;
  sim.set_runner(0x300, [&owner](std::uint32_t kind, const std::uint64_t*, std::size_t) {
    owner.push_back(kind);
  });
  sim.set_runner([&fallback](std::uint32_t kind, const std::uint64_t*, std::size_t) {
    fallback.push_back(kind);
  });
  const std::uint64_t word = 0;
  sim.schedule(1, 0x301, &word, 1);   // the claimed block
  sim.schedule(2, 0x200, &word, 1);   // an unclaimed block
  sim.schedule(3, 0x1234, &word, 1);  // past the runner table
  sim.dispatch(0x3FF, &word, 1);      // a synchronous continuation
  sim.run();
  EXPECT_EQ(owner, (std::vector<std::uint32_t>{0x3FF, 0x301}));
  EXPECT_EQ(fallback, (std::vector<std::uint32_t>{0x200, 0x1234}));
}

TEST(Simulator, ResetDropsQueueAndRewindsClock) {
  Simulator sim;
  sim.schedule(10, [] { FAIL() << "dropped by reset"; });
  sim.run(5);
  EXPECT_EQ(sim.now(), 5U);
  sim.reset(1000, 42);
  EXPECT_EQ(sim.pending(), 0U);
  EXPECT_EQ(sim.now(), 1000U);
  EXPECT_EQ(sim.next_id(), 42U);
  // Fresh scheduling continues from the restored counter.
  EXPECT_EQ(sim.schedule(1, [] {}), 42U);
}

TEST(Simulator, PauseAndContinueMatchesUninterruptedRun) {
  // run(limit) pins now() to the deadline, so run(a) + run(b) lands exactly
  // at a + b — the property that lets a restored run rejoin the continuous
  // timeline tick-for-tick.
  Simulator sim;
  sim.run(30);
  sim.run(12);
  EXPECT_EQ(sim.now(), 42U);
}

}  // namespace
}  // namespace hours::sim
