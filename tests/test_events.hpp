// Test-owned events with ad-hoc bodies, on the described-only simulator.
//
// The simulator runs nothing but described events, each through the runner
// of its kind's block. Tests that want an arbitrary body at some instant
// (flip a flag at t=15, record an execution order, reschedule themselves)
// register it here: TestEvents claims the test block (0xF00) on the test's
// simulator, and each event or continuation carries the index of its body
// in a table the helper owns. Bodies are kept for the helper's lifetime, so
// a body may run any number of times.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "snapshot/described.hpp"
#include "util/contracts.hpp"

namespace hours::sim {

class TestEvents {
 public:
  /// The block no library subsystem uses: kind 0xF00 carries [body index].
  static constexpr std::uint32_t kKind = 0xF00;

  explicit TestEvents(Simulator& sim) : sim_(sim) {
    sim_.set_runner(kKind, [this](std::uint32_t, const std::uint64_t* args, std::size_t count) {
      HOURS_EXPECTS(count == 1 && args[0] < bodies_.size());
      bodies_[args[0]]();
    });
  }
  TestEvents(const TestEvents&) = delete;
  TestEvents& operator=(const TestEvents&) = delete;

  /// Schedules `body` at now() + delay; returns the event id.
  std::uint64_t schedule(Ticks delay, std::function<void()> body) {
    const std::uint64_t index = add(std::move(body));
    return sim_.schedule(delay, kKind, &index, 1);
  }

  /// A continuation that runs `body` (for Transport::send_expect_ack).
  snapshot::Described then(std::function<void()> body) {
    return snapshot::Described{kKind, {add(std::move(body))}};
  }

 private:
  std::uint64_t add(std::function<void()> body) {
    bodies_.push_back(std::move(body));
    return bodies_.size() - 1;
  }

  Simulator& sim_;
  std::vector<std::function<void()>> bodies_;
};

}  // namespace hours::sim
