// In-memory ring-buffer sink with per-type subscriber callbacks.
//
// Keeps the most recent `capacity` events for post-run inspection (tests,
// failure artifacts) and fans each event out to subscribers as it happens —
// a hook for reacting to the trace stream without writing a sink. (The
// adaptive attacker, sim/adaptive_attacker.hpp, reacts the other way: it
// is a TraceSink of its own.)
//
// Subscribers run synchronously at the emission site, so they may schedule
// simulator events but must not re-enter the protocol directly.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "trace/sink.hpp"

namespace hours::trace {

class RingBufferSink final : public TraceSink {
 public:
  using Callback = std::function<void(const Event&)>;

  explicit RingBufferSink(std::size_t capacity = 4096);

  void on_event(const Event& event) override;

  /// Invoked for every event of `type`, in subscription order.
  void subscribe(EventType type, Callback callback);
  /// Invoked for every event regardless of type, after typed subscribers.
  void subscribe_all(Callback callback);

  /// Buffered events, oldest first (at most `capacity`).
  [[nodiscard]] std::vector<Event> events() const;
  /// Buffered events of one type, oldest first.
  [[nodiscard]] std::vector<Event> events_of(EventType type) const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t total_events() const noexcept { return total_; }
  /// Events that fell off the buffer's tail (total - buffered).
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return total_ - (total_ < capacity_ ? total_ : capacity_);
  }

  void clear();

 private:
  std::size_t capacity_;
  std::vector<Event> buffer_;  ///< circular once full
  std::size_t next_ = 0;       ///< write cursor
  std::uint64_t total_ = 0;
  std::array<std::vector<Callback>, kEventTypeCount> typed_;
  std::vector<Callback> untyped_;
};

}  // namespace hours::trace
