// Snapshot visitor interface: every stateful subsystem registers one.
//
// A Participant owns one named section of the snapshot document plus the
// 0x100 blocks of described-event kinds (event_kinds.hpp) whose runners it
// claimed on the simulator. Snapshotter (sim layer) drives the protocol:
// save() collects each participant's section and the simulator's event
// queue; restore() hands each section back, then re-queues every saved
// event once some participant owns its kind — the event then runs through
// the same runner as it would have live.
//
// Error handling is by string: "" means success, anything else is a
// human-readable reason (surfaced verbatim by save()/restore() callers).
// Snapshots are a robustness tool — a failed save/restore must explain
// itself, never crash or half-apply.
#pragma once

#include <cstdint>
#include <string>

#include "snapshot/json.hpp"

namespace hours::snapshot {

class Participant {
 public:
  virtual ~Participant() = default;

  /// Unique section key in the snapshot document ("ring", "faults", ...).
  [[nodiscard]] virtual std::string section() const = 0;

  /// Serializes this subsystem's complete state. `error` is filled (and the
  /// result discarded) when the state is not snapshottable right now.
  [[nodiscard]] virtual Json save_state(std::string& error) const = 0;

  /// Applies a previously saved section. Returns "" on success.
  [[nodiscard]] virtual std::string restore_state(const Json& state) = 0;

  /// True when `kind` belongs to a block whose runner this participant
  /// claimed (a restored event of that kind has somewhere to run).
  [[nodiscard]] virtual bool owns(std::uint32_t kind) const = 0;
};

}  // namespace hours::snapshot
