// Described events: the data form of a scheduled continuation.
//
// The discrete-event engine historically queued opaque std::function
// closures, which made the event queue unserializable. Every protocol event
// is now *described*: a (kind, args) pair from the closed registry in
// event_kinds.hpp and nothing else. The simulator runs it through the
// runner that claimed its kind's block — one dispatcher for the live
// path, the restored path and transport ack/timeout continuations — so
// restoring a snapshot cannot behave differently from never having
// stopped.
//
// kind 0 (kOpaque) marks a closure with no data form — e.g. a query
// client's timers or a test harness callback. Opaque events execute
// normally but make the simulation unsnapshottable while queued;
// Snapshotter::save() fails loudly listing them rather than writing a
// snapshot that silently loses work.
#pragma once

#include <cstdint>
#include <vector>

namespace hours::snapshot {

struct Described {
  std::uint32_t kind = 0;
  std::vector<std::uint64_t> args;

  bool operator==(const Described& other) const = default;
};

}  // namespace hours::snapshot
