// Discrete-event simulation engine.
//
// Single-threaded by design: events execute in (time, insertion) order, so
// protocol state needs no locking and every run is bit-reproducible for a
// given seed. The engine knows nothing about networks or nodes; it executes
// events at simulated instants.
//
// The event store is a hierarchical timer wheel over a slab arena
// (util/arena.hpp): six levels of 64 slots whose granularity grows by 64x
// per level, with per-level occupancy bitmaps, intrusive doubly-linked
// per-slot lists, and an overflow list beyond the ~2^36-tick horizon.
// Scheduling and cancellation are O(1); finding the next event cascades a
// slot down one level at a time (amortized O(levels) per event). Event
// payloads live in reused slab slots, and ids map to slots through a flat
// open-addressing index (util/flat_index.hpp), so once the slab and the
// index have grown to a run's peak, schedule, cancel and dispatch allocate
// nothing. Exact (at, id) FIFO order is preserved: a level-0 slot holds a
// single tick and is drained in id order.
//
// Events come in two dispatch forms. A *described* event carries just
// (kind, args) and runs through the runner that owns its kind's 0x100
// block (event_kinds.hpp): each owner — transport, ring, hierarchy, fault
// injector — claims its block once, at construction, and every described
// event of that block reaches the same runner whether it was scheduled
// live, restored from a snapshot, or dispatched synchronously as a
// transport ack/timeout continuation. That is the hot path: no per-event
// allocation at all. A *closure* event carries a std::function and has
// kind 0 (kOpaque): it executes normally but makes the queue
// unserializable while present (QueryClient timers, test harnesses).
// restore_event() re-instates a saved described event under its ORIGINAL
// id, so same-instant FIFO tie-breaking after a restore is byte-identical
// to the uninterrupted run.
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
  using Action = std::function<void()>;
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

  Simulator();

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

  /// Schedules an opaque `action` to run at now() + delay. Returns an id
  /// usable with cancel(). Opaque events execute normally but block
  /// snapshot save while queued; prefer the described overloads.
  std::uint64_t schedule(Ticks delay, Action action);

  /// Described scheduling: the event is dispatched through its block's
  /// runner. The hot path — `args` is copied into a reused slab slot, no
  /// allocation in steady state.
  std::uint64_t schedule(Ticks delay, std::uint32_t kind, const std::uint64_t* args,
                         std::size_t count);
  std::uint64_t schedule(Ticks delay, const snapshot::Described& desc) {
    return schedule(delay, desc.kind, desc.args.data(), desc.args.size());
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

  [[nodiscard]] std::size_t pending() const noexcept { return slab_.live(); }

  // -- snapshot support ---------------------------------------------------------
  /// The id the next scheduled event will receive (saved, so a restore can
  /// continue the same id sequence — the FIFO tie-break depends on it).
  [[nodiscard]] std::uint64_t next_id() const noexcept { return next_id_; }

  /// Every queued event in execution order. Opaque events appear with
  /// desc.kind == snapshot::kOpaque. Cold path: flat slab scan + sort.
  [[nodiscard]] std::vector<PendingEvent> pending_events() const;

  /// Drops every queued event and rewinds/forwards the clock and the id
  /// counter to a saved instant. First step of a restore.
  void reset(Ticks now, std::uint64_t next_id);

  /// Re-instates a saved described event under its original id (must be <
  /// next_id and unused; `at` must not be in the past). It runs through
  /// its block's runner, exactly as the live event would have.
  void restore_event(Ticks at, std::uint64_t id, const snapshot::Described& desc);

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFU;
  static constexpr int kLevelBits = 6;
  static constexpr std::uint32_t kSlots = 1U << kLevelBits;  // 64
  static constexpr int kLevels = 6;
  /// Sentinels for EventSlot::home beyond the wheel levels.
  static constexpr std::uint8_t kHomeAnte = 0xFE;      ///< antechamber list
  static constexpr std::uint8_t kHomeOverflow = 0xFF;  ///< beyond the horizon

  struct EventSlot {
    Ticks at = 0;
    std::uint64_t id = 0;
    std::uint32_t kind = snapshot::kOpaque;
    std::uint32_t prev = kNil;  ///< intrusive links within the home list
    std::uint32_t next = kNil;
    std::uint8_t home = 0;   ///< wheel level, kHomeAnte, or kHomeOverflow
    std::uint8_t bucket = 0; ///< slot index within the level (levels only)
    bool live = false;
    std::vector<std::uint64_t> args;  ///< capacity survives slot reuse
    Action action;                    ///< closure events (kind 0) only
  };

  struct Level {
    std::uint64_t occupied = 0;                 ///< bit b set = heads[b] non-empty
    std::array<std::uint32_t, kSlots> heads{};  ///< slot list heads
    /// Window start in units of this level's granularity: events here have
    /// (at >> shift) in [base, base + 64). Windows are NESTED across levels
    /// (window L is contained in one slot span of window L+1), which is
    /// what makes "lowest occupied level holds the global minimum" true.
    std::uint64_t base = 0;
  };

  [[nodiscard]] static int level_shift(int level) noexcept { return kLevelBits * level; }

  std::uint64_t insert(Ticks at, std::uint64_t id, std::uint32_t kind,
                       const std::uint64_t* args, std::size_t count, Action action);
  void place(std::uint32_t index);       ///< link a filled slot into its home
  void unlink(std::uint32_t index);      ///< remove from its home list
  void dispatch_and_free(std::uint32_t index);

  /// Re-anchors every window to contain `at` (queue must be empty).
  void rebase(Ticks at);

  /// Index of the next event in (at, id) order, cascading wheel slots as
  /// needed; kNil when the queue is empty. Does not unlink.
  [[nodiscard]] std::uint32_t find_next();

  /// Min-(at,id) scan of one linked list; kNil for an empty list.
  [[nodiscard]] std::uint32_t list_min(std::uint32_t head) const;

  Ticks now_ = 0;
  std::uint64_t next_id_ = 1;
  bool truncated_ = false;
  std::uint64_t executed_total_ = 0;

  util::Slab<EventSlot> slab_;
  util::FlatIndex index_of_;  ///< id -> slab index (ids start at 1)

  std::array<Level, kLevels> levels_;
  /// Events earlier than window 0's start (scheduled after a deadline-
  /// bounded run left the windows anchored ahead of now). Always drained
  /// before the wheel; normally empty.
  std::uint32_t ante_head_ = kNil;
  /// Events beyond the top window (~2^36 ticks out). Refilled into the
  /// wheel when the levels drain.
  std::uint32_t overflow_head_ = kNil;

  /// Runners by 0x100 kind block; kinds past the table fall back.
  std::array<Runner, 16> runners_;
  Runner fallback_;
};

}  // namespace hours::sim
