#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

namespace hours::sim {

// The wheel keeps one invariant per level: every event at level L satisfies
// (at >> shift_L) - base_L in [0, 64), and windows are nested — window L's
// start is never after window L-1's start, and window L-1 fits inside one
// slot span of window L. Together these give the ordering property the
// run loop relies on: the antechamber (events before window 0) precedes
// every leveled event, level 0 holds the earliest leveled events, and any
// occupied higher level only holds events at or beyond the end of every
// lower window. Cascading pops the lowest occupied level's earliest slot
// and re-anchors the lower windows to exactly that slot's span, so events
// only ever move downward.

Simulator::Simulator() {
  for (auto& level : levels_) level.heads.fill(kNil);
}

void Simulator::rebase(Ticks at) {
  for (int level = 0; level < kLevels; ++level) {
    levels_[level].base = at >> level_shift(level);
  }
}

std::uint64_t Simulator::insert(Ticks at, std::uint64_t id, std::uint32_t kind,
                                const std::uint64_t* args, std::size_t count, Action action) {
  // Empty queue: re-anchor all windows at the current instant. Anchoring at
  // `at` instead would shunt every later-inserted-but-earlier event into the
  // antechamber, degrading find_next to an O(pending) scan (events can only
  // be inserted at >= now_, so now_ is a lower bound for every future at).
  if (slab_.live() == 0) rebase(now_);
  const std::uint32_t index = slab_.allocate();
  EventSlot& slot = slab_[index];
  slot.at = at;
  slot.id = id;
  slot.kind = kind;
  slot.live = true;
  slot.action = std::move(action);
  if (count > 0) {
    slot.args.assign(args, args + count);
  } else {
    slot.args.clear();
  }
  index_of_.insert(id, index);
  place(index);
  return id;
}

void Simulator::place(std::uint32_t index) {
  EventSlot& slot = slab_[index];
  const Ticks at = slot.at;
  slot.prev = kNil;

  if (at < levels_[0].base) {  // before window 0: the antechamber
    slot.home = kHomeAnte;
    slot.next = ante_head_;
    if (ante_head_ != kNil) slab_[ante_head_].prev = index;
    ante_head_ = index;
    return;
  }
  for (int level = 0; level < kLevels; ++level) {
    Level& wheel = levels_[level];
    const std::uint64_t q = at >> level_shift(level);
    if (q - wheel.base < kSlots) {  // q >= base by window nesting
      const auto bucket = static_cast<std::uint8_t>(q & (kSlots - 1));
      slot.home = static_cast<std::uint8_t>(level);
      slot.bucket = bucket;
      slot.next = wheel.heads[bucket];
      if (wheel.heads[bucket] != kNil) slab_[wheel.heads[bucket]].prev = index;
      wheel.heads[bucket] = index;
      wheel.occupied |= 1ULL << bucket;
      return;
    }
  }
  slot.home = kHomeOverflow;  // beyond the top window's horizon
  slot.next = overflow_head_;
  if (overflow_head_ != kNil) slab_[overflow_head_].prev = index;
  overflow_head_ = index;
}

void Simulator::unlink(std::uint32_t index) {
  EventSlot& slot = slab_[index];
  if (slot.prev != kNil) {
    slab_[slot.prev].next = slot.next;
  } else if (slot.home == kHomeAnte) {
    ante_head_ = slot.next;
  } else if (slot.home == kHomeOverflow) {
    overflow_head_ = slot.next;
  } else {
    Level& wheel = levels_[slot.home];
    wheel.heads[slot.bucket] = slot.next;
    if (slot.next == kNil) wheel.occupied &= ~(1ULL << slot.bucket);
  }
  if (slot.next != kNil) slab_[slot.next].prev = slot.prev;
  slot.prev = kNil;
  slot.next = kNil;
}

std::uint32_t Simulator::list_min(std::uint32_t head) const {
  std::uint32_t best = kNil;
  for (std::uint32_t walk = head; walk != kNil; walk = slab_[walk].next) {
    if (best == kNil || slab_[walk].at < slab_[best].at ||
        (slab_[walk].at == slab_[best].at && slab_[walk].id < slab_[best].id)) {
      best = walk;
    }
  }
  return best;
}

std::uint32_t Simulator::find_next() {
  while (true) {
    if (ante_head_ != kNil) {
      // While any level is occupied the antechamber holds the global
      // minimum (every leveled event is at or past window 0's start), so
      // serve it directly. Once the levels drain, fold the antechamber back
      // into the wheel anchored at now_ — a one-time O(len) reflow instead
      // of an O(len) scan per pop.
      bool levels_occupied = false;
      for (const Level& level : levels_) {
        if (level.occupied != 0) {
          levels_occupied = true;
          break;
        }
      }
      if (levels_occupied) return list_min(ante_head_);
      // Deadline-clamped runs can leave pending events before now_, so the
      // new anchor must cover the antechamber's own minimum too.
      rebase(std::min(now_, slab_[list_min(ante_head_)].at));
      std::uint32_t walk = ante_head_;
      ante_head_ = kNil;
      while (walk != kNil) {
        const std::uint32_t next = slab_[walk].next;
        slab_[walk].prev = kNil;
        slab_[walk].next = kNil;
        place(walk);
        walk = next;
      }
      continue;
    }

    if (levels_[0].occupied != 0) {
      // Earliest occupied slot = first set bit clockwise from the window
      // start; a level-0 slot is a single tick, drained in id order.
      const auto finger = static_cast<unsigned>(levels_[0].base & (kSlots - 1));
      const std::uint64_t rotated = std::rotr(levels_[0].occupied, static_cast<int>(finger));
      const auto offset = static_cast<unsigned>(std::countr_zero(rotated));
      const auto bucket = (finger + offset) & (kSlots - 1);
      return list_min(levels_[0].heads[bucket]);
    }

    int lowest = -1;
    for (int level = 1; level < kLevels; ++level) {
      if (levels_[level].occupied != 0) {
        lowest = level;
        break;
      }
    }

    if (lowest < 0) {
      if (overflow_head_ == kNil) return kNil;
      // Refill: anchor the wheel at the overflow's earliest event and pull
      // in everything that now fits the top window.
      const std::uint32_t earliest = list_min(overflow_head_);
      rebase(slab_[earliest].at);
      const Level& top = levels_[kLevels - 1];
      std::uint32_t walk = overflow_head_;
      while (walk != kNil) {
        const std::uint32_t next = slab_[walk].next;
        const std::uint64_t q = slab_[walk].at >> level_shift(kLevels - 1);
        if (q - top.base < kSlots) {
          unlink(walk);
          place(walk);
        }
        walk = next;
      }
      continue;
    }

    // Cascade the lowest occupied level's earliest slot down one step:
    // levels below it are empty, so their windows re-anchor to exactly the
    // popped slot's span and every event in it fits a lower level.
    Level& wheel = levels_[lowest];
    const auto finger = static_cast<unsigned>(wheel.base & (kSlots - 1));
    const std::uint64_t rotated = std::rotr(wheel.occupied, static_cast<int>(finger));
    const auto offset = static_cast<unsigned>(std::countr_zero(rotated));
    const auto bucket = (finger + offset) & (kSlots - 1);
    const std::uint64_t q = wheel.base + offset;

    std::uint32_t head = wheel.heads[bucket];
    wheel.heads[bucket] = kNil;
    wheel.occupied &= ~(1ULL << bucket);
    const Ticks span_start = q << level_shift(lowest);
    for (int level = 0; level < lowest; ++level) {
      levels_[level].base = span_start >> level_shift(level);
    }
    while (head != kNil) {
      const std::uint32_t next = slab_[head].next;
      slab_[head].prev = kNil;
      slab_[head].next = kNil;
      place(head);
      head = next;
    }
  }
}

void Simulator::set_runner(std::uint32_t kind, Runner runner) {
  const std::uint32_t block = snapshot::kind_block(kind);
  HOURS_EXPECTS(block != 0 && block < runners_.size());
  HOURS_EXPECTS(runners_[block] == nullptr);
  HOURS_EXPECTS(runner != nullptr);
  runners_[block] = std::move(runner);
}

void Simulator::dispatch(std::uint32_t kind, const std::uint64_t* args,
                         std::size_t count) const {
  const std::uint32_t block = snapshot::kind_block(kind);
  const Runner& runner =
      block < runners_.size() && runners_[block] != nullptr ? runners_[block] : fallback_;
  HOURS_EXPECTS(runner != nullptr);
  runner(kind, args, count);
}

std::uint64_t Simulator::schedule(Ticks delay, Action action) {
  HOURS_EXPECTS(action != nullptr);
  return insert(now_ + delay, next_id_++, snapshot::kOpaque, nullptr, 0, std::move(action));
}

std::uint64_t Simulator::schedule(Ticks delay, std::uint32_t kind, const std::uint64_t* args,
                                  std::size_t count) {
  HOURS_EXPECTS(kind != snapshot::kOpaque);
  return insert(now_ + delay, next_id_++, kind, args, count, nullptr);
}

void Simulator::cancel(std::uint64_t id) {
  // Stale ids (already executed, already cancelled, never issued) are
  // no-ops; live ones are erased outright — pending() stays exact.
  const std::uint32_t index = index_of_.erase(id);
  if (index == util::FlatIndex::kMissing) return;
  unlink(index);
  EventSlot& slot = slab_[index];
  slot.live = false;
  slot.action = nullptr;
  slot.args.clear();
  slab_.release(index);
}

void Simulator::dispatch_and_free(std::uint32_t index) {
  EventSlot& slot = slab_[index];
  slot.live = false;
  if (slot.kind == snapshot::kOpaque) {
    Action action = std::move(slot.action);
    slot.action = nullptr;
    slab_.release(index);
    action();
    return;
  }
  // The args words stay in the slot through the call (chunk addresses are
  // stable even if the runner schedules); the slot is recycled after.
  dispatch(slot.kind, slot.args.data(), slot.args.size());
  slot.args.clear();
  slab_.release(index);
}

std::size_t Simulator::run(Ticks limit, std::size_t max_events) {
  const Ticks deadline = limit == 0 ? 0 : now_ + limit;
  std::size_t executed = 0;
  truncated_ = false;
  while (executed < max_events) {
    const std::uint32_t index = find_next();
    if (index == kNil) break;
    EventSlot& slot = slab_[index];
    if (deadline != 0 && slot.at > deadline) break;

    now_ = slot.at;
    index_of_.erase(slot.id);
    unlink(index);
    dispatch_and_free(index);
    ++executed;
    ++executed_total_;
  }
  if (executed == max_events) {
    // The cap stopped the loop: loud, not silent — benches assert on this.
    const std::uint32_t index = find_next();
    truncated_ = index != kNil && (deadline == 0 || slab_[index].at <= deadline);
  }
  if (deadline != 0 && now_ < deadline) now_ = deadline;
  return executed;
}

std::vector<Simulator::PendingEvent> Simulator::pending_events() const {
  std::vector<PendingEvent> out;
  out.reserve(slab_.live());
  for (std::uint32_t index = 0; index < slab_.high_water(); ++index) {
    const EventSlot& slot = slab_[index];
    if (!slot.live) continue;
    PendingEvent event;
    event.at = slot.at;
    event.id = slot.id;
    event.desc.kind = slot.kind;
    event.desc.args = slot.args;
    out.push_back(std::move(event));
  }
  std::sort(out.begin(), out.end(), [](const PendingEvent& a, const PendingEvent& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.id < b.id;
  });
  return out;
}

void Simulator::reset(Ticks now, std::uint64_t next_id) {
  HOURS_EXPECTS(next_id >= 1);
  slab_.clear();
  index_of_.clear();
  for (auto& level : levels_) {
    level.occupied = 0;
    level.heads.fill(kNil);
  }
  ante_head_ = kNil;
  overflow_head_ = kNil;
  now_ = now;
  next_id_ = next_id;
  truncated_ = false;
  rebase(now);
}

void Simulator::restore_event(Ticks at, std::uint64_t id, const snapshot::Described& desc) {
  HOURS_EXPECTS(at >= now_);
  HOURS_EXPECTS(id >= 1 && id < next_id_);
  HOURS_EXPECTS(index_of_.find(id) == util::FlatIndex::kMissing);
  HOURS_EXPECTS(desc.kind != snapshot::kOpaque);
  insert(at, id, desc.kind, desc.args.data(), desc.args.size(), nullptr);
}

}  // namespace hours::sim
