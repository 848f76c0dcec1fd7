// Property-based equivalence fuzz for the simulator's event queue.
//
// The binary heap (sim/simulator.hpp) must be observationally identical to
// the std::map<(at, id)> queue the engine started with. Each seed drives
// the Simulator and an in-test reference model with the same randomized
// operation stream — schedules with delays from the same instant up to
// 2^40 ticks out (same-instant ties decide FIFO order; far delays put
// events deep in the heap and keep them there across runs), near inserts
// after a deadline-bounded run stopped ahead of the queue's front, cancels
// of live and stale ids (each removing an entry from the middle of the
// heap), deadline- and max_events-bounded runs, events that schedule
// children mid-dispatch, bursts of 1,000-5,000 schedules at once and
// cancel storms that take most of a burst back in random order (so the
// id index and the heap grow several times and drain again; util_test's
// FlatIndex case covers long probe runs) — and asserts identical execution
// order, clocks, pending counts, and truncation flags.
//
// Events come in three forms, all described: two widths through a claimed
// block's runner and one through the fallback runner, so slab slots are
// reused across argument widths. On a sampled subset of seeds the snapshot
// oracle interposes at every pause point: pending events are captured, the
// queue is reset, and every event is re-instated under its original id in
// SHUFFLED order; the re-read queue must match the capture exactly and the
// continued run must stay in lockstep with the reference (same-instant FIFO
// order must survive a restore).
//
// Seed control (same conventions as fault_schedule_fuzz_test):
//   HOURS_FUZZ_SEEDS=N      sweep seeds 1..N       (default 25; nightly 200)
//   HOURS_FUZZ_SEED=S       run exactly seed S      (local reproduction)
//   HOURS_FUZZ_SNAPSHOT=K   oracle every Kth seed   (default 4; 0 disables,
//                           1 = every seed; pinned seeds always run it)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "rng/xoshiro256.hpp"
#include "sim/simulator.hpp"

namespace hours::sim {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

/// Event kinds private to this test (any nonzero kind is restorable).
constexpr std::uint32_t kKindClaimed = 0xE00;  ///< a claimed block's runner
constexpr std::uint32_t kKindRunnerOnly = 9;   ///< an unclaimed block: the fallback

/// Argument words of the wide form: [own id, chain flag, child delay, pad...].
constexpr std::size_t kWideArgs = 7;

/// Execution log entry: (execution instant, event id). Described events
/// carry their id as args[0] so every path logs identically.
using Log = std::vector<std::pair<Ticks, std::uint64_t>>;

/// Reference model: the std::map<(at, id)> queue the engine started with,
/// with the original run() semantics (deadline break, max_events truncation
/// flag, clamp-to-deadline on drain).
class RefModel {
 public:
  struct Entry {
    bool chain = false;
    Ticks child_delay = 0;
  };

  void schedule(Ticks delay, bool chain, Ticks child_delay) {
    at_of_.emplace(next_id_, now_ + delay);
    q_.emplace(std::make_pair(now_ + delay, next_id_++), Entry{chain, child_delay});
  }

  void cancel(std::uint64_t id) {
    const auto it = at_of_.find(id);
    if (it == at_of_.end()) return;
    q_.erase(std::make_pair(it->second, id));
    at_of_.erase(it);
  }

  std::size_t run(Ticks limit, std::size_t max_events, Log& log) {
    const Ticks deadline = limit == 0 ? 0 : now_ + limit;
    std::size_t executed = 0;
    truncated_ = false;
    while (executed < max_events) {
      const auto it = q_.begin();
      if (it == q_.end()) break;
      if (deadline != 0 && it->first.first > deadline) break;
      const auto [at, id] = it->first;
      const Entry entry = it->second;
      q_.erase(it);
      at_of_.erase(id);
      now_ = at;
      log.emplace_back(now_, id);
      if (entry.chain) schedule(entry.child_delay, false, 0);
      ++executed;
    }
    if (executed == max_events) {
      const auto it = q_.begin();
      truncated_ =
          it != q_.end() && (deadline == 0 || it->first.first <= deadline);
    }
    if (deadline != 0 && now_ < deadline) now_ = deadline;
    return executed;
  }

  [[nodiscard]] Ticks now() const { return now_; }
  [[nodiscard]] bool truncated() const { return truncated_; }
  [[nodiscard]] std::size_t pending() const { return q_.size(); }

 private:
  std::map<std::pair<Ticks, std::uint64_t>, Entry> q_;
  std::map<std::uint64_t, Ticks> at_of_;  ///< queued id -> instant, for cancel
  Ticks now_ = 0;
  std::uint64_t next_id_ = 1;
  bool truncated_ = false;
};

/// Harness pairing a Simulator with the reference model; every operation is
/// applied to both and the observable state compared.
class Lockstep {
 public:
  Lockstep() {
    sim_.set_runner(kKindClaimed,
                    [this](std::uint32_t kind, const std::uint64_t* args, std::size_t count) {
                      ASSERT_EQ(kind, kKindClaimed);
                      run_described(args, count);
                    });
    sim_.set_runner([this](std::uint32_t kind, const std::uint64_t* args, std::size_t count) {
      ASSERT_EQ(kind, kKindRunnerOnly);
      run_described(args, count);
    });
  }

  /// Described args layout: [own id, chain flag, child delay], padded to
  /// kWideArgs words in the wide form.
  void schedule(Ticks delay, int form, bool chain, Ticks child_delay) {
    const std::uint64_t id = sim_.next_id();
    const std::uint64_t args[kWideArgs] = {id, chain ? 1ULL : 0ULL, child_delay, ~id, 1, 2, 3};
    switch (form) {
      case 0:  // wide, dispatched through its claimed block's runner
        sim_.schedule(delay, kKindClaimed, args, kWideArgs);
        break;
      case 1:  // dispatched through its claimed block's runner
        sim_.schedule(delay, kKindClaimed, args, 3);
        break;
      default:  // dispatched through the fallback runner
        sim_.schedule(delay, kKindRunnerOnly, args, 3);
        break;
    }
    ref_.schedule(delay, chain, child_delay);
    known_ids_.push_back(id);
  }

  void cancel(std::uint64_t id) {
    sim_.cancel(id);
    ref_.cancel(id);
  }

  void run(Ticks limit, std::size_t max_events) {
    const std::size_t wheel_n = sim_.run(limit, max_events);
    const std::size_t ref_n = ref_.run(limit, max_events, ref_log_);
    ASSERT_EQ(wheel_n, ref_n);
    ASSERT_EQ(sim_.now(), ref_.now());
    ASSERT_EQ(sim_.truncated(), ref_.truncated());
    check_state();
  }

  /// Snapshot oracle: capture, reset, restore shuffled under original ids,
  /// verify the queue reads back identically.
  void snapshot_roundtrip(rng::Xoshiro256& g) {
    const auto before = sim_.pending_events();
    const Ticks now = sim_.now();
    // A deadline-clamped, max_events-truncated run can leave now() past
    // still-pending events (matching the replaced queue exactly); the real
    // snapshotter never saves in that state, so neither does the oracle.
    if (!before.empty() && before.front().at < now) return;
    const std::uint64_t next_id = sim_.next_id();

    auto shuffled = before;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[static_cast<std::size_t>(g.below(i))]);
    }

    sim_.reset(now, next_id);
    ASSERT_EQ(sim_.pending(), 0U);
    for (const auto& event : shuffled) {
      ASSERT_GE(event.desc.args.size(), 3U);
      sim_.restore_event(event.at, event.id, event.desc);
    }

    const auto after = sim_.pending_events();
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      ASSERT_EQ(after[i].at, before[i].at);
      ASSERT_EQ(after[i].id, before[i].id);
      ASSERT_EQ(after[i].desc.kind, before[i].desc.kind);
      ASSERT_EQ(after[i].desc.args, before[i].desc.args);
    }
    ASSERT_EQ(sim_.now(), ref_.now());
  }

  void check_state() {
    ASSERT_EQ(sim_.pending(), ref_.pending());
    ASSERT_EQ(wheel_log_.size(), ref_log_.size());
    // Compare only the tail since the last check to keep failures local.
    for (std::size_t i = checked_; i < ref_log_.size(); ++i) {
      ASSERT_EQ(wheel_log_[i], ref_log_[i]) << "divergence at log index " << i;
    }
    checked_ = ref_log_.size();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& known_ids() const { return known_ids_; }
  [[nodiscard]] Simulator& sim() { return sim_; }

 private:
  void run_described(const std::uint64_t* args, std::size_t count) {
    ASSERT_GE(count, 3U);
    wheel_log_.emplace_back(sim_.now(), args[0]);
    if (args[1] != 0) schedule_child(args[2]);
  }

  /// Children go through the described-only hot path; the reference model
  /// mirrors the insertion inside its own dispatch loop, so the id
  /// counters advance in lockstep.
  void schedule_child(Ticks delay) {
    const std::uint64_t id = sim_.next_id();
    const std::uint64_t args[3] = {id, 0, 0};
    sim_.schedule(delay, kKindRunnerOnly, args, 3);
    known_ids_.push_back(id);
  }

  Simulator sim_;
  RefModel ref_;
  Log wheel_log_;
  Log ref_log_;
  std::size_t checked_ = 0;
  std::vector<std::uint64_t> known_ids_;
};

/// Delay classes from same-instant collisions (FIFO ties) up to ~2^40
/// ticks, so the heap holds near and far events at once.
Ticks random_delay(rng::Xoshiro256& g) {
  switch (g.below(8)) {
    case 0: return g.below(4);                                // same-instant FIFO
    case 1: return g.below(64);                               // < 2^6
    case 2: return g.below(4096);                             // < 2^12
    case 3: return g.below(262'144);                          // < 2^18
    case 4: return g.below(1ULL << 24);                       // < 2^24
    case 5: return g.below(1ULL << 32);                       // < 2^32
    case 6: return (1ULL << 36) + g.below(1ULL << 40);        // >= 2^36
    default: return g.below(1024);
  }
}

void run_seed(std::uint64_t seed, bool oracle) {
  rng::Xoshiro256 g(seed * 0x9E3779B97F4A7C15ULL + 1);
  Lockstep pair;

  const int phases = 24 + static_cast<int>(g.below(24));
  std::vector<std::uint64_t> burst;  // ids of the latest burst
  for (int phase = 0; phase < phases; ++phase) {
    const std::uint64_t op = g.below(10);
    if (op == 8) {
      // Burst: thousands of schedules with nothing run in between.
      const auto size = 1'000 + static_cast<std::size_t>(g.below(4'001));
      burst.clear();
      for (std::size_t i = 0; i < size; ++i) {
        burst.push_back(pair.sim().next_id());
        pair.schedule(random_delay(g), static_cast<int>(g.below(3)), g.below(8) == 0,
                      random_delay(g));
      }
      pair.check_state();
    } else if (op == 9) {
      // Cancel storm: most of the latest burst (some already ran), in
      // random order.
      for (std::size_t i = burst.size(); i > 1; --i) {
        std::swap(burst[i - 1], burst[static_cast<std::size_t>(g.below(i))]);
      }
      const std::size_t storm = burst.size() * (60 + g.below(36)) / 100;
      for (std::size_t i = 0; i < storm; ++i) pair.cancel(burst[i]);
      burst.clear();
      pair.check_state();
    } else if (op < 3) {
      const int batch = 1 + static_cast<int>(g.below(16));
      for (int i = 0; i < batch; ++i) {
        const int form = static_cast<int>(g.below(3));
        const bool chain = g.below(4) == 0;
        pair.schedule(random_delay(g), form, chain, random_delay(g));
      }
      pair.check_state();
    } else if (op == 3 && !pair.known_ids().empty()) {
      const int cancels = 1 + static_cast<int>(g.below(4));
      for (int i = 0; i < cancels; ++i) {
        const auto& ids = pair.known_ids();
        pair.cancel(ids[static_cast<std::size_t>(g.below(ids.size()))]);
      }
      pair.check_state();
    } else if (op < 7) {
      // Mixed run shapes: unbounded, deadline-bounded (often breaking mid
      // queue, so later near inserts land ahead of events already queued),
      // and tiny max_events caps that must raise truncated() identically
      // on both sides.
      const std::uint64_t shape = g.below(4);
      if (shape == 0) {
        pair.run(0, 1 + g.below(8));
      } else if (shape == 1) {
        pair.run(1 + random_delay(g), 10'000'000);
      } else if (shape == 2) {
        pair.run(1 + g.below(65'536), 1 + g.below(16));
      } else {
        pair.run(0, 10'000'000);
      }
    } else if (op == 7 && oracle) {
      pair.snapshot_roundtrip(g);
    }
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "reproduce with: HOURS_FUZZ_SEED=" << seed
             << " ./sim_queue_property_test";
    }
  }

  // Drain: both queues must finish empty, in lockstep, at the same instant.
  pair.run(0, 10'000'000);
  ASSERT_FALSE(pair.sim().truncated());
  ASSERT_EQ(pair.sim().pending(), 0U);
}

TEST(SimQueueProperty, WheelMatchesMapReference) {
  const std::uint64_t pinned = env_u64("HOURS_FUZZ_SEED", 0);
  const std::uint64_t count = pinned != 0 ? 1 : env_u64("HOURS_FUZZ_SEEDS", 25);
  ASSERT_GT(count, 0U) << "HOURS_FUZZ_SEEDS must be >= 1";
  const std::uint64_t snapshot_stride = env_u64("HOURS_FUZZ_SNAPSHOT", 4);

  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seed = pinned != 0 ? pinned : i + 1;
    const bool oracle =
        pinned != 0 || (snapshot_stride != 0 && seed % snapshot_stride == 0);
    run_seed(seed, oracle);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hours::sim
