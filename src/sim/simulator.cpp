#include "sim/simulator.hpp"

#include <algorithm>

namespace hours::sim {

std::uint64_t Simulator::insert(Ticks at, std::uint64_t id, std::uint32_t kind,
                                const std::uint64_t* args, std::size_t count) {
  const std::uint32_t index = slab_.allocate();
  EventSlot& slot = slab_[index];
  slot.kind = kind;
  if (count > 0) {
    slot.args.assign(args, args + count);
  } else {
    slot.args.clear();
  }
  index_of_.insert(id, index);
  heap_.emplace_back();
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1), HeapEntry{at, id, index});
  return id;
}

void Simulator::seat(std::uint32_t pos, const HeapEntry& entry) {
  heap_[pos] = entry;
  slab_[entry.slot].heap_pos = pos;
}

void Simulator::sift_up(std::uint32_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    seat(pos, heap_[parent]);
    pos = parent;
  }
  seat(pos, entry);
}

void Simulator::sift_down(std::uint32_t pos, HeapEntry entry) {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], entry)) break;
    seat(pos, heap_[child]);
    pos = child;
  }
  seat(pos, entry);
}

void Simulator::remove_at(std::uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  // The last entry refills the hole; it may belong above it (when the
  // hole was not on its own root path) or below it.
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
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

std::uint64_t Simulator::schedule(Ticks delay, std::uint32_t kind, const std::uint64_t* args,
                                  std::size_t count) {
  HOURS_EXPECTS(kind != snapshot::kNoContinuation);
  return insert(now_ + delay, next_id_++, kind, args, count);
}

void Simulator::cancel(std::uint64_t id) {
  // Stale ids (already executed, already cancelled, never issued) are
  // no-ops; live ones are erased outright — pending() stays exact.
  const std::uint32_t index = index_of_.erase(id);
  if (index == util::FlatIndex::kMissing) return;
  EventSlot& slot = slab_[index];
  remove_at(slot.heap_pos);
  slot.args.clear();
  slab_.release(index);
}

void Simulator::dispatch_and_free(std::uint32_t index) {
  EventSlot& slot = slab_[index];
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
  while (executed < max_events && !heap_.empty()) {
    const HeapEntry next = heap_.front();
    if (deadline != 0 && next.at > deadline) break;

    now_ = next.at;
    index_of_.erase(next.id);
    remove_at(0);
    dispatch_and_free(next.slot);
    ++executed;
    ++executed_total_;
  }
  if (executed == max_events) {
    // The cap stopped the loop: loud, not silent — benches assert on this.
    truncated_ = !heap_.empty() && (deadline == 0 || heap_.front().at <= deadline);
  }
  if (deadline != 0 && now_ < deadline) now_ = deadline;
  return executed;
}

std::vector<Simulator::PendingEvent> Simulator::pending_events() const {
  std::vector<PendingEvent> out;
  out.reserve(heap_.size());
  for (const HeapEntry& entry : heap_) {
    const EventSlot& slot = slab_[entry.slot];
    PendingEvent event;
    event.at = entry.at;
    event.id = entry.id;
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
  heap_.clear();
  now_ = now;
  next_id_ = next_id;
  truncated_ = false;
}

void Simulator::restore_event(Ticks at, std::uint64_t id, const snapshot::Described& desc) {
  HOURS_EXPECTS(at >= now_);
  HOURS_EXPECTS(id >= 1 && id < next_id_);
  HOURS_EXPECTS(index_of_.find(id) == util::FlatIndex::kMissing);
  HOURS_EXPECTS(desc.kind != snapshot::kNoContinuation);
  insert(at, id, desc.kind, desc.args.data(), desc.args.size());
}

}  // namespace hours::sim
