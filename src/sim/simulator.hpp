// Discrete-event simulation engine.
//
// Single-threaded by design: events execute in (time, insertion) order, so
// protocol state needs no locking and every run is bit-reproducible for a
// given seed. The engine knows nothing about networks or nodes; it executes
// events at simulated instants.
//
// The event store is a binary min-heap of (at, id, slot) entries over a
// slab arena (util/arena.hpp). Each slab slot records its entry's heap
// position, so cancel() removes an event outright, with no tombstone left
// behind, and the next event is always the heap's front. Event payloads
// live in reused slab slots, and ids map to slots through a flat
// open-addressing index (util/flat_index.hpp), so once the slab, the heap
// and the index have grown to a run's peak, schedule, cancel and dispatch
// allocate nothing. Ordering by (at, id) is exact FIFO among events due at
// the same instant.
//
// Every event is *described* — (kind, args), no closure — and runs through
// the runner that owns its kind's 0x100 block (event_kinds.hpp). Each
// owner (transport, ring, hierarchy, fault injector, query client, adaptive
// attacker, ring scenario runner) claims its block once, at construction, and
// every event of that block reaches the same runner whether it was
// scheduled live, restored from a snapshot, or dispatched synchronously as
// a transport ack/timeout continuation. restore_event() re-instates a saved
// event under its ORIGINAL id, so same-instant FIFO tie-breaking after a
// restore is byte-identical to the uninterrupted run.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "snapshot/described.hpp"
#include "snapshot/event_kinds.hpp"
#include "util/arena.hpp"
#include "util/contracts.hpp"
#include "util/flat_index.hpp"

namespace hours::sim {

/// Simulated time in abstract ticks (protocol periods are configured in the
/// same unit; nothing depends on a real-time interpretation).
using Ticks = std::uint64_t;

class Simulator {
 public:
  /// Dispatcher for described events: receives the event's kind and
  /// argument words. The words are valid only for the duration of the call
  /// (a queued event's point into its slab slot).
  using Runner =
      std::function<void(std::uint32_t kind, const std::uint64_t* args, std::size_t count)>;

  /// One queued event's inspectable form (snapshot save path).
  struct PendingEvent {
    Ticks at = 0;
    std::uint64_t id = 0;
    snapshot::Described desc;
  };

  [[nodiscard]] Ticks now() const noexcept { return now_; }

  /// Claims `kind`'s 0x100 block: every described event of the block runs
  /// through `runner`. A block has one owner; claiming it twice is a
  /// contract violation. The owner must outlive the simulator's use.
  void set_runner(std::uint32_t kind, Runner runner);

  /// Installs the runner for described events of unclaimed blocks (tests
  /// and benches with private kinds). Must be installed before the first
  /// such event executes.
  void set_runner(Runner runner) { fallback_ = std::move(runner); }

  /// Runs one described event or continuation through its block's runner
  /// (or the fallback), synchronously.
  void dispatch(std::uint32_t kind, const std::uint64_t* args, std::size_t count) const;

  /// Schedules an event of `kind` (never kNoContinuation) at now() + delay;
  /// it runs through its block's runner. Returns an id usable with
  /// cancel(). `args` is copied into a reused slab slot: no allocation in
  /// steady state.
  std::uint64_t schedule(Ticks delay, std::uint32_t kind, const std::uint64_t* args,
                         std::size_t count);
  std::uint64_t schedule(Ticks delay, snapshot::DescribedView event) {
    return schedule(delay, event.kind, event.args.data(), event.args.size());
  }

  /// Cancels a scheduled event; no-op if it already ran, was cancelled, or
  /// never existed.
  void cancel(std::uint64_t id);

  /// Runs events until the queue drains or `limit` ticks pass (0 = no time
  /// limit). Returns the number of events executed; when the return value
  /// equals `max_events`, check truncated() — a silently capped run would
  /// corrupt delivery statistics.
  std::size_t run(Ticks limit = 0, std::size_t max_events = 10'000'000);

  /// True when the most recent run() stopped at `max_events` with events
  /// still due (within its time limit) left unexecuted.
  [[nodiscard]] bool truncated() const noexcept { return truncated_; }

  /// Cumulative events executed over this simulator's lifetime (monotone;
  /// unaffected by reset()). Scale benches derive events/sec from deltas.
  [[nodiscard]] std::uint64_t executed_total() const noexcept { return executed_total_; }

  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  // -- snapshot support ---------------------------------------------------------
  /// The id the next scheduled event will receive (saved, so a restore can
  /// continue the same id sequence — the FIFO tie-break depends on it).
  [[nodiscard]] std::uint64_t next_id() const noexcept { return next_id_; }

  /// Every queued event in execution order. Cold path: heap walk + sort.
  [[nodiscard]] std::vector<PendingEvent> pending_events() const;

  /// Drops every queued event and rewinds/forwards the clock and the id
  /// counter to a saved instant. First step of a restore.
  void reset(Ticks now, std::uint64_t next_id);

  /// Re-instates a saved described event under its original id (must be <
  /// next_id and unused; `at` must not be in the past). It runs through
  /// its block's runner, exactly as the live event would have.
  void restore_event(Ticks at, std::uint64_t id, const snapshot::Described& desc);

 private:
  struct EventSlot {
    std::uint32_t kind = snapshot::kNoContinuation;
    std::uint32_t heap_pos = 0;       ///< index of this event's entry in heap_
    std::vector<std::uint64_t> args;  ///< capacity survives slot reuse
  };

  /// One queued event in heap order: its sort key and its slab slot.
  struct HeapEntry {
    Ticks at = 0;
    std::uint64_t id = 0;
    std::uint32_t slot = 0;
  };

  [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return a.at < b.at || (a.at == b.at && a.id < b.id);
  }

  std::uint64_t insert(Ticks at, std::uint64_t id, std::uint32_t kind,
                       const std::uint64_t* args, std::size_t count);
  void dispatch_and_free(std::uint32_t index);

  /// Writes `entry` at heap position `pos` and records the position in its
  /// slot.
  void seat(std::uint32_t pos, const HeapEntry& entry);
  /// Moves the hole at `pos` toward the root until `entry` fits there.
  void sift_up(std::uint32_t pos, HeapEntry entry);
  /// Moves the hole at `pos` toward the leaves until `entry` fits there.
  void sift_down(std::uint32_t pos, HeapEntry entry);
  /// Removes the entry at heap position `pos`.
  void remove_at(std::uint32_t pos);

  Ticks now_ = 0;
  std::uint64_t next_id_ = 1;
  bool truncated_ = false;
  std::uint64_t executed_total_ = 0;

  util::Slab<EventSlot> slab_;
  util::FlatIndex index_of_;     ///< id -> slab index (ids start at 1)
  std::vector<HeapEntry> heap_;  ///< min-heap on (at, id); front() runs next

  /// Runners by 0x100 kind block; kinds past the table fall back.
  std::array<Runner, 16> runners_;
  Runner fallback_;
};

}  // namespace hours::sim
