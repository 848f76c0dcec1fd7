// Minimal epoch-based reclamation (RCU-style) for read-mostly pointers —
// the memory-safety half of the resolver's lock-free read path.
//
// Readers are wait-free and lock-free: entering a critical section is one
// atomic store into the thread's own reader slot (announce the current
// epoch, double-checked against a concurrent advance), leaving is another.
// Each slot fills a cache line of its own, apart from the epoch and the
// claim counter, so a guard writes no line another reader touches. While a
// ReadGuard is alive, any pointer loaded from an rcu-published atomic stays
// valid even if a writer swaps and retires it concurrently.
//
// Writers (serialized by the caller — one writer mutex per domain) swap the
// live pointer first, then retire() the old object and call
// advance_and_reclaim(): the epoch advances and every retired object whose
// retire-epoch precedes the oldest announced reader epoch is freed.
// Readers stalled inside a guard only defer reclamation, never break it.
//
// Slots are claimed per (thread, domain) on first use and held for the
// thread's lifetime; kMaxReaders bounds the number of distinct reader
// threads per domain (plenty for a serving front-end's thread pool). A
// thread claims the lowest unclaimed slot by one seq_cst CAS on a claim
// counter and never gives it back, so the claimed slots are always the
// prefix [0, claimed_), and a reclaim reads only that prefix.
//
// Why the prefix is enough. advance_and_reclaim bumps the epoch, then loads
// the claim counter, then the claimed slots, every step seq_cst; a reader
// claims its slot before its guard first loads the epoch, also seq_cst. All
// of these lie in one total order. If the writer's load of the counter does
// not see a reader's claim, that claim, and so the reader's epoch load,
// come after the writer's bump: the reader announces the advanced epoch,
// and every pointer it then loads is read after the unlinks that preceded
// the bump, so it can never reach an object this reclaim frees. A claim the
// load does see has its slot read, and announce-then-verify covers it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace hours::jobs {

/// Bytes in a cache line on x86-64 and most AArch64 hosts. Not
/// std::hardware_destructive_interference_size: g++ 12 warns
/// (-Winterference-size) wherever a header uses it.
inline constexpr std::size_t kCacheLine = 64;

/// A 64-bit atomic alone on its cache line, for a value one thread writes on
/// a hot path while others only read it now and then: an RCU reader slot, a
/// per-reader counter.
struct alignas(kCacheLine) LineAtomic {
  std::atomic<std::uint64_t> value{0};
};
// Packed 8-byte reader slots and per-shard hit counters sat on lines every
// reader wrote, so each cache hit invalidated the other readers' copies:
// bench/serving_throughput's curve was flat at 1, 2 and 4 threads.
static_assert(sizeof(LineAtomic) == kCacheLine && alignof(LineAtomic) == kCacheLine);

class RcuDomain {
 public:
  static constexpr std::size_t kMaxReaders = 256;

  RcuDomain() : id_(next_id().fetch_add(1, std::memory_order_relaxed)) {
    for (auto& slot : slots_) slot.value.store(kIdle, std::memory_order_relaxed);
  }

  ~RcuDomain() {
    // No readers may be active; free everything still pending.
    for (auto& entry : retired_) entry.deleter();
  }

  RcuDomain(const RcuDomain&) = delete;
  RcuDomain& operator=(const RcuDomain&) = delete;

  /// RAII read-side critical section. Cheap enough for one per cache probe.
  class ReadGuard {
   public:
    explicit ReadGuard(RcuDomain& domain)
        : reader_(domain.reader_slot()), slot_(&domain.slots_[reader_].value) {
      // Announce-then-verify: if a writer advanced the epoch between our
      // load and our announcement, re-announce so the writer's slot scan
      // (which happens after its advance) cannot miss us holding an
      // already-retired epoch.
      for (;;) {
        const std::uint64_t epoch = domain.epoch_.load(std::memory_order_seq_cst);
        slot_->store(epoch, std::memory_order_seq_cst);
        if (domain.epoch_.load(std::memory_order_seq_cst) == epoch) break;
      }
    }
    ~ReadGuard() { slot_->store(kIdle, std::memory_order_release); }

    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    /// The calling thread's slot index in [0, kMaxReaders). A slot is never
    /// given back, so no other thread ever holds this index in the domain:
    /// per-reader data indexed by it has one writer.
    [[nodiscard]] std::size_t reader() const noexcept { return reader_; }

   private:
    std::size_t reader_;
    std::atomic<std::uint64_t>* slot_;
  };

  /// Writer side, caller-serialized: queue `deleter` for the object just
  /// unlinked from the live pointer.
  void retire(std::function<void()> deleter) {
    retired_.push_back({epoch_.load(std::memory_order_relaxed), std::move(deleter)});
  }

  /// Writer side, caller-serialized: advance the epoch and free every
  /// retired object no announced reader can still see. Only the slots
  /// claimed when the counter is loaded, after the advance, are read (the
  /// header says why a later claim cannot hold a retired object).
  void advance_and_reclaim() {
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    const std::size_t claimed = claimed_.load(std::memory_order_seq_cst);
    std::uint64_t min_active = kIdle;
    for (std::size_t i = 0; i < claimed; ++i) {
      const std::uint64_t announced = slots_[i].value.load(std::memory_order_seq_cst);
      if (announced < min_active) min_active = announced;
    }
    std::size_t kept = 0;
    for (auto& entry : retired_) {
      if (entry.epoch < min_active) {
        entry.deleter();
      } else {
        retired_[kept++] = std::move(entry);
      }
    }
    retired_.resize(kept);
  }

  /// Retired-but-not-yet-freed count (tests assert reclamation happens).
  [[nodiscard]] std::size_t pending_reclaims() const noexcept { return retired_.size(); }

 private:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  static std::atomic<std::uint64_t>& next_id() {
    static std::atomic<std::uint64_t> counter{1};
    return counter;
  }

  /// The index of the calling thread's slot in this domain, claimed on
  /// first use: the lowest unclaimed one. The cache key includes the
  /// domain's globally unique id, so a new domain reusing a dead one's
  /// address can never inherit stale slot claims.
  std::size_t reader_slot() {
    thread_local std::vector<std::pair<std::uint64_t, std::size_t>> cache;
    for (const auto& [id, slot] : cache) {
      if (id == id_) return slot;
    }
    std::size_t index = claimed_.load(std::memory_order_seq_cst);
    do {
      HOURS_ASSERT(index < kMaxReaders &&
                   "RcuDomain: more than kMaxReaders distinct reader threads");
    } while (!claimed_.compare_exchange_weak(index, index + 1, std::memory_order_seq_cst));
    cache.emplace_back(id_, index);
    return index;
  }

  struct Retired {
    std::uint64_t epoch;
    std::function<void()> deleter;
  };

  const std::uint64_t id_;
  std::atomic<std::uint64_t> epoch_{1};
  // Line-aligned, so the array starts and ends on a line boundary: neither
  // epoch_ before it nor claimed_ after it shares a line with a slot.
  LineAtomic slots_[kMaxReaders];
  std::atomic<std::size_t> claimed_{0};  ///< slots [0, claimed_) are claimed
  std::vector<Retired> retired_;  // writer-side only
};

}  // namespace hours::jobs
