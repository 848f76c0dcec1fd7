// Deterministic fan-out of independent tasks across threads.
//
// sweep() starts min(worker_count(threads), count) threads; each claims the
// next index from one shared counter, so tasks start in index order. The
// tasks this repository fans out (one fuzz seed or one scenario document
// each) are independent, coarse and never spawn subtasks, which is why one
// shared counter is the whole scheduler.
//
// The determinism contract that makes the fuzz/bench fleet thread-count
// invariant:
//   1. a task's output is a pure function of its index (every fuzz seed and
//      scenario document carries its own seed), never of the thread that ran
//      it or of wall-clock time;
//   2. tasks share no mutable state (each writes only its own result slot);
//   3. results merge in index order.
// Under those three rules the merged output of sweep() is byte-identical
// at 1, 2, or N threads — proven by tests/sweep_determinism_test.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

namespace hours::jobs {

/// The number of threads a `threads` request means: 0 is
/// std::thread::hardware_concurrency() (at least 1).
[[nodiscard]] inline unsigned worker_count(unsigned threads) noexcept {
  if (threads != 0) return threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

/// Runs fn(index) for every index in [0, count) on up to
/// worker_count(threads) threads and returns the results in index order.
/// `fn` must be invocable concurrently and return R (default-constructible).
/// Every task runs even if some throw; once all threads have joined, the
/// exception of the lowest failing index is rethrown.
template <typename R, typename Fn>
std::vector<R> sweep(unsigned threads, std::size_t count, Fn&& fn) {
  static_assert(!std::is_same_v<R, bool>, "std::vector<bool> slots share words");
  std::vector<R> results(count);
  std::vector<std::exception_ptr> errors(count);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        results[i] = fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // Declared after everything `work` touches: the jthreads join when the
    // block ends, also if a later thread fails to start.
    std::vector<std::jthread> pool;
    const std::size_t width = std::min<std::size_t>(worker_count(threads), count);
    pool.reserve(width);
    for (std::size_t t = 0; t < width; ++t) pool.emplace_back(work);
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace hours::jobs
