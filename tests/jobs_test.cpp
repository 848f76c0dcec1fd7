// The job layer: jobs::sweep's index-ordered fan-out and the RcuDomain
// behind ConcurrentResolver's lock-free reads. Every `unit`-labelled test
// also runs under the TSan CI job, so these cases run their threads for
// real: sweeps at several widths, a failing sweep that must still run
// every task, a reader whose slot was claimed after a reclaim, and RCU
// readers racing a writer that retires what they read.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jobs/rcu.hpp"
#include "jobs/sweep.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace hours::jobs {
namespace {

TEST(Sweep, ResultsAreThreadCountInvariant) {
  const auto draw = [](std::size_t index) {
    rng::Xoshiro256 rng{rng::mix64(99, index)};
    return std::to_string(index) + ":" + std::to_string(rng());
  };
  const auto serial = sweep<std::string>(1, 64, draw);
  const auto parallel = sweep<std::string>(4, 64, draw);
  EXPECT_EQ(serial, parallel);
}

TEST(Sweep, LowestFailingIndexIsRethrownAfterEveryTaskRan) {
  // Index 11 throws first and index 5 only after it, so the rethrown
  // exception is chosen by index, not by which task failed first. Both of
  // the two threads hit a failure and must still run all 16 tasks.
  std::atomic<int> ran{0};
  std::atomic<bool> high_failed{false};
  const auto task = [&](std::size_t index) -> int {
    ran.fetch_add(1);
    if (index == 5) {
      while (!high_failed.load()) std::this_thread::yield();
      throw std::runtime_error{"index 5"};
    }
    if (index == 11) {
      high_failed.store(true);
      throw std::runtime_error{"index 11"};
    }
    return static_cast<int>(index);
  };
  EXPECT_THROW(
      {
        try {
          (void)sweep<int>(2, 16, task);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "index 5");
          throw;
        }
      },
      std::runtime_error);
  EXPECT_EQ(ran.load(), 16);
}

TEST(Sweep, MoreThreadsThanTasksAndNoTasks) {
  EXPECT_GE(worker_count(0), 1U);
  EXPECT_EQ(worker_count(3), 3U);
  const auto square = [](std::size_t index) { return index * index; };
  EXPECT_EQ(sweep<std::size_t>(64, 3, square), (std::vector<std::size_t>{0, 1, 4}));
  EXPECT_TRUE(sweep<std::size_t>(4, 0, square).empty());
}

TEST(Rcu, ReadersPinRetiredObjectsUntilExit) {
  RcuDomain domain;
  bool freed = false;
  {
    RcuDomain::ReadGuard guard{domain};
    domain.retire([&freed] { freed = true; });
    domain.advance_and_reclaim();
    EXPECT_FALSE(freed);  // we are the announced reader holding the epoch
    EXPECT_EQ(domain.pending_reclaims(), 1U);
  }
  domain.retire([] {});
  domain.advance_and_reclaim();  // reader gone: both entries reclaimable
  EXPECT_TRUE(freed);
  EXPECT_EQ(domain.pending_reclaims(), 0U);
}

TEST(Rcu, ReaderOnALateClaimedSlotPinsRetiredObjects) {
  // A reclaim reads only the claimed slots. Thread A claims slot 0 and
  // leaves; a reclaim runs; only then does thread B claim slot 1, past
  // every claim that reclaim saw, and hold a guard. A scan bounded by the
  // claims of an earlier reclaim would skip B and free X under it.
  RcuDomain domain;
  std::thread([&domain] { RcuDomain::ReadGuard guard{domain}; }).join();
  domain.retire([] {});
  domain.advance_and_reclaim();
  EXPECT_EQ(domain.pending_reclaims(), 0U);

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread late([&] {
    RcuDomain::ReadGuard guard{domain};
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) std::this_thread::yield();
  });
  while (!entered.load(std::memory_order_acquire)) std::this_thread::yield();
  bool freed = false;
  domain.retire([&freed] { freed = true; });
  domain.advance_and_reclaim();
  EXPECT_FALSE(freed);
  EXPECT_EQ(domain.pending_reclaims(), 1U);
  domain.advance_and_reclaim();  // still pinned while B's guard lives
  EXPECT_FALSE(freed);
  EXPECT_EQ(domain.pending_reclaims(), 1U);
  release.store(true, std::memory_order_release);
  late.join();
  domain.advance_and_reclaim();
  EXPECT_TRUE(freed);
  EXPECT_EQ(domain.pending_reclaims(), 0U);
}

TEST(Rcu, ConcurrentReadersNeverSeeFreedMemory) {
  // Writer keeps swapping a published value and retiring the old one;
  // readers must always observe a live, internally consistent object.
  struct Boxed {
    explicit Boxed(std::uint64_t v) : a(v), b(~v) {}
    std::uint64_t a;
    std::uint64_t b;
  };
  RcuDomain domain;
  std::atomic<const Boxed*> live{new Boxed{0}};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        RcuDomain::ReadGuard guard{domain};
        const Boxed* boxed = live.load(std::memory_order_seq_cst);
        // The invariant b == ~a only holds for fully constructed, unfreed
        // objects; TSan/ASan catch lifetime violations, this catches tearing.
        ASSERT_EQ(boxed->b, ~boxed->a);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Keep swapping until the readers have demonstrably raced at least a few
  // hundred reads against the churn (on a loaded single-core box the first
  // 2000 swaps can finish before a reader is even scheduled).
  for (std::uint64_t i = 1; i <= 2'000 || reads.load(std::memory_order_relaxed) < 500; ++i) {
    const Boxed* old = live.load(std::memory_order_relaxed);
    live.store(new Boxed{i}, std::memory_order_seq_cst);
    domain.retire([old] { delete old; });
    domain.advance_and_reclaim();
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  delete live.load(std::memory_order_relaxed);
  EXPECT_GT(reads.load(), 0U);
}

}  // namespace
}  // namespace hours::jobs
