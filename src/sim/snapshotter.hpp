// Orchestrates snapshot save/restore for one Simulator plus its registered
// Participants (sim/ring_protocol, sim/fault_injector, ...).
//
// save() produces the versioned document described in snapshot/snapshot.hpp:
// the simulator clock, id counter, and full event queue in described form,
// plus one section per participant. It fails loudly — with the offending
// event ids — while any opaque (closure-only) event is queued, because an
// opaque event has no wire form; a participant refuses in turn while its
// own state holds a closure (a transport's closure-form pending ack).
//
// restore() is the exact inverse, into a *freshly constructed* simulation of
// identical configuration: validate, reset the simulator, hand each section
// back to its participant, then re-instate every queued event under its
// original id. Each event runs through the runner its kind's block owner
// claimed at construction — the one dispatcher the live run used — and an
// event whose kind no registered participant owns is refused with its id.
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
  Simulator& sim_;
  std::vector<snapshot::Participant*> participants_;
};

}  // namespace hours::sim
