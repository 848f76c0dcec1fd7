// Orchestrates snapshot save/restore for one Simulator plus its registered
// Participants (sim/ring_protocol, sim/fault_injector, ...).
//
// save() produces the versioned document described in snapshot/snapshot.hpp:
// the simulator clock, id counter, and full event queue in described form,
// plus one section per participant. One rule decides what can be saved: an
// event whose block no registered participant owns would have nowhere to
// run after a restore, so save() refuses, naming each such event (a query
// client's timer, a strike, a ring scenario's sample). A transport holds
// its pending continuations to the same rule, naming the token.
//
// restore() is the exact inverse, into a *freshly constructed* simulation of
// identical configuration: validate, apply the same ownership check, reset
// the simulator, hand each section back to its participant, then
// re-instate every queued event under its original id, to run through the
// runner its kind's block owner claimed — the one dispatcher the live run
// used.
// A restored run replays byte-for-byte identically to the uninterrupted one
// — tests/snapshot_replay_test.cpp holds that bar, and the fault-schedule
// fuzz harness uses it as a divergence oracle.
#pragma once

#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "snapshot/json.hpp"
#include "snapshot/participant.hpp"

namespace hours::sim {

class Snapshotter {
 public:
  explicit Snapshotter(Simulator& sim) : sim_(sim) {}

  /// Registers a participant. Registration ORDER is part of the restore
  /// contract (sections restore in order), so save-side and restore-side
  /// Snapshotters must register identically.
  /// The participant must outlive the Snapshotter's use.
  void add(snapshot::Participant& participant);

  /// Builds the snapshot document. Returns "" and fills `doc` on success.
  [[nodiscard]] std::string save(snapshot::Json& doc) const;

  /// save() + deterministic dump. The string is the snapshot's canonical
  /// byte form: equality of two save_string() results is the equivalence
  /// oracle's definition of "same state".
  [[nodiscard]] std::string save_string(std::string& out) const;

  /// save() + write to `path`.
  [[nodiscard]] std::string save_file(const std::string& path) const;

  /// Restores a validated document into the simulator and participants.
  /// On error the simulation may be partially restored — discard it.
  [[nodiscard]] std::string restore(const snapshot::Json& doc);

  /// read_file() + restore().
  [[nodiscard]] std::string restore_file(const std::string& path);

 private:
  /// "" when some registered participant owns every event in `events`;
  /// otherwise the refusal, naming each event none owns. save() and
  /// restore() both apply it.
  [[nodiscard]] std::string refuse_unowned(
      const std::vector<Simulator::PendingEvent>& events) const;

  Simulator& sim_;
  std::vector<snapshot::Participant*> participants_;
};

}  // namespace hours::sim
