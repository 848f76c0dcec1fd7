// TraceSink interface and the Tracer dispatch point.
//
// Instrumented code holds a `Tracer*` (null by default) and emits through
// HOURS_TRACE_EMIT. The disabled path costs one null-pointer test per
// potential event (bench/micro_overlay_ops measures it). Sinks are not
// owned by the tracer and must outlive it; everything is single-threaded,
// like the simulator it instruments.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace hours::trace {

/// Receives every emitted event. Implementations: RingBufferSink (in-memory
/// + subscriber callbacks), JsonLinesSink, ChromeTraceSink, and protocol
/// consumers such as sim::AdaptiveAttacker.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Event& event) = 0;
  /// Called when a run wants buffered output persisted (file sinks).
  virtual void flush() {}
};

class Tracer {
 public:
  void add_sink(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  void remove_sink(TraceSink* sink) {
    std::erase(sinks_, sink);
  }

  /// False while no sink is attached — emission sites skip event
  /// construction entirely.
  [[nodiscard]] bool enabled() const noexcept { return !sinks_.empty(); }

  [[nodiscard]] std::uint64_t events_emitted() const noexcept { return events_emitted_; }

  void emit(const Event& event) {
    ++events_emitted_;
    for (TraceSink* sink : sinks_) sink->on_event(event);
  }

  void flush() {
    for (TraceSink* sink : sinks_) sink->flush();
  }

 private:
  std::vector<TraceSink*> sinks_;
  std::uint64_t events_emitted_ = 0;
};

/// True when `tracer` (a possibly-null Tracer*) will deliver an emission.
[[nodiscard]] inline bool emitting(const Tracer* tracer) noexcept {
  return tracer != nullptr && tracer->enabled();
}

}  // namespace hours::trace

// The emission macro: `tracer` is a Tracer*, the remaining arguments are
// Event designated initializers. Example:
//   HOURS_TRACE_EMIT(trace_, {.at = sim_.now(),
//                             .type = trace::EventType::kProbeSent,
//                             .node = i, .peer = succ});
#define HOURS_TRACE_EMIT(tracer, ...)                                \
  do {                                                               \
    if (::hours::trace::emitting(tracer)) {                          \
      (tracer)->emit(::hours::trace::Event __VA_ARGS__);             \
    }                                                                \
  } while (false)
