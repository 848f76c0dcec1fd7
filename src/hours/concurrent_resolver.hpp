// Concurrent serving front-end: a sharded, RCU-published TTL answer cache
// in front of HoursSystem — the first step from "simulator" to "service
// under heavy traffic" (ROADMAP; cf. the Random Query String DoS paper's
// concern with resolver caches under high-rate query mixes). With one
// shard it is a single client's cache (caching study, `serial` scenarios).
//
// Design:
//   * The name's FNV-1a hash is computed once per call. `hash % shard_count`
//     picks the shard, the hash's upper 32 bits the bucket inside it.
//   * Each shard is a chained hash table whose bucket array is sized once
//     from the shard capacity (a power of two, at most kMaxBuckets). A
//     cached answer is one immutable Node {name, expires_at, records, next};
//     only `next` and the writers' heap position change after it is linked.
//   * The read path (cache hit) takes NO lock and writes only cache lines
//     its own thread owns: a jobs::RcuDomain read guard (one store into the
//     thread's reader slot line to enter, one to leave) pins every node, the
//     probe walks one bucket chain and copies the records out, the hit is
//     counted on the line kept for that reader slot, and the guard drops.
//     Counters on the lock-free path are per reader; misses, failures,
//     evictions and refusals, counted where a mutex is taken anyway, stay
//     per shard.
//   * Writers serialize on a per-shard mutex and change one link per node:
//     a fresh name's fully built node is linked at its bucket head, an
//     overwrite stores the new node in the old one's place (it inherits the
//     old `next`), an eviction or a drop stores the node's `next` over the
//     link that pointed at it. Unlinked nodes are retired to the RCU domain;
//     until they are reclaimed their `next` stays valid, so a reader parked
//     on one walks on into the live chain. A reclaim reads only the reader
//     slots some thread has claimed.
//   * Under the same mutex each shard keeps a binary min-heap of its linked
//     nodes ordered by (expires_at, name), and each node records its heap
//     position (a field only writers touch). A fresh publish pushes, an
//     overwrite seats the new node in the old one's heap slot and re-sifts,
//     a drop removes its node by position, and an eviction pops the front:
//     O(log n) each, with no scan of the shard. Readers never see the heap.
//   * The miss path funnels into the single-threaded HoursSystem under one
//     authority mutex — concurrency lives in front of the hierarchy, never
//     inside one query. resolve_batch() amortizes that mutex: probe all
//     names lock-free first, then forward the misses in one batched
//     HoursSystem::lookup_batch call.
//
// Policy, per shard: an answer cached at `now` expires at now +
// answer_min_ttl, saturating, and is stale from then on. An overwrite never
// evicts; a fresh name over capacity drops everything expired, else the
// entry with the smallest (expires_at, name). A lookup that fails or is
// refused drops the name's expired entry without counting an eviction, so
// one shard matches, call by call, a map cache that erases an expired entry
// when asked for it (tests/concurrent_resolver_test.cpp's reference model).
// With several shards the victim choice is shard-local; cached_names() <=
// shard_count * ceil(capacity / shard_count) holds.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hours/hours.hpp"
#include "hours/resolver.hpp"
#include "jobs/rcu.hpp"
#include "snapshot/json.hpp"
#include "store/record_store.hpp"

namespace hours {

class ConcurrentResolver {
 public:
  /// `capacity` bounds the total cached names (split evenly across shards);
  /// `shard_count` trades write contention against eviction locality. The
  /// system reference must outlive the resolver.
  explicit ConcurrentResolver(HoursSystem& system, std::size_t capacity = 1024,
                              unsigned shard_count = 8);
  ~ConcurrentResolver();

  ConcurrentResolver(const ConcurrentResolver&) = delete;
  ConcurrentResolver& operator=(const ConcurrentResolver&) = delete;

  /// Thread-safe resolve at client time `now`. Cache hits are lock-free;
  /// misses serialize on the authority mutex in front of HoursSystem.
  /// `now` is caller-supplied (not read from the backend) because the
  /// backend clock is not safe to touch concurrently with lookups.
  [[nodiscard]] ResolveResult resolve(std::string_view name, std::uint64_t now);

  /// Batched submission: lock-free probes first, then one authority-mutex
  /// acquisition forwarding all misses via HoursSystem::lookup_batch.
  /// Results are positionally aligned with `names`.
  [[nodiscard]] std::vector<ResolveResult> resolve_batch(const std::vector<std::string>& names,
                                                         std::uint64_t now);

  /// Lock-free cache-only probe; copies the records into `*out` (the node
  /// cannot be referenced after return). Does not update stats.
  [[nodiscard]] bool peek(std::string_view name, std::uint64_t now,
                          std::vector<store::Record>* out) const;

  /// Installs an answer obtained out of band. Thread-safe.
  void insert(std::string_view name, std::uint64_t now, std::vector<store::Record> records);

  /// Arms the cache-busting defense with one digest shared by every shard:
  /// a burst detected through any shard flags the zone for all of them
  /// (the gossip-shared negative-cache digest, DESIGN.md §11).
  void set_defense(NegativeCacheDefenseConfig config) {
    defense_ = config.enabled ? std::make_unique<NegativeCacheDigest>(config) : nullptr;
  }

  /// Hits summed over reader slots, the other counters over shards.
  /// Individual counters are exact; a snapshot taken while other calls run
  /// is a consistent-enough sum, not an atomic cut.
  [[nodiscard]] ResolverStats stats() const;

  [[nodiscard]] std::size_t cached_names() const;
  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }

  /// Serializes the answer cache and statistics (docs/PROTOCOL.md appendix
  /// C, "resolver" layout) while no writer runs. The HoursSystem reference
  /// is not captured: restore into a resolver over the restored system.
  [[nodiscard]] snapshot::Json to_json() const;
  /// Replaces capacity, cache and statistics with the saved state, keeping
  /// the shard count; call it with no other call running. Returns "" on
  /// success; on an error the resolver is unchanged.
  [[nodiscard]] std::string from_json(const snapshot::Json& state);

 private:
  /// One cached answer. Immutable once linked, except `next` and the
  /// writer-only `heap_pos`.
  struct Node {
    Node(std::uint64_t name_hash, std::string_view node_name, std::uint64_t expiry,
         std::vector<store::Record> answer)
        : hash(name_hash), expires_at(expiry), name(node_name), records(std::move(answer)) {}

    const std::uint64_t hash;
    const std::uint64_t expires_at;
    const std::string name;
    const std::vector<store::Record> records;
    std::atomic<Node*> next{nullptr};
    std::size_t heap_pos = 0;  ///< index of this node's entry in its shard's heap
  };

  /// A linked node in heap order. It carries the node's expiry, so only
  /// expiry ties read the names.
  struct HeapEntry {
    std::uint64_t expires_at = 0;
    Node* node = nullptr;
  };

  struct Shard {
    explicit Shard(std::size_t bucket_count)
        : buckets(std::make_unique<std::atomic<Node*>[]>(bucket_count)) {}

    // Heap upkeep; the caller holds `writer`.
    /// Adds `node`'s entry.
    void push(Node* node);
    /// Fills the hole at `pos` with `entry`, sifting it up or down.
    void refill(std::size_t pos, HeapEntry entry);
    /// Removes the entry at heap position `pos`.
    void remove_at(std::size_t pos);

    std::mutex writer;  ///< serializes link/unlink and guards `heap`
    std::unique_ptr<std::atomic<Node*>[]> buckets;  ///< readers walk under an RCU guard
    /// Min-heap of every linked node on (expires_at, name); grows on demand.
    std::vector<HeapEntry> heap;
    std::atomic<std::size_t> size{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> failures{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> refusals{0};

   private:
    /// Heap order: (expires_at, name), a strict order since names are unique.
    [[nodiscard]] static bool before(const HeapEntry& a, const HeapEntry& b);
    /// Writes `entry` at heap position `pos` and records the position in
    /// its node.
    void seat(std::size_t pos, const HeapEntry& entry);
    void sift_up(std::size_t pos, HeapEntry entry);
    void sift_down(std::size_t pos, HeapEntry entry);
  };

  /// Bucket arrays never exceed this, however large `capacity` is: chains
  /// lengthen instead of the constructor allocating O(capacity).
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 16;

  [[nodiscard]] Shard& shard_of(std::uint64_t hash) const {
    return *shards_[hash % shards_.size()];
  }
  [[nodiscard]] std::size_t bucket_of(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(hash >> 32) & bucket_mask_;
  }
  /// Copies `name`'s live answer into `*out` (when not null) under an RCU
  /// guard. With `count_hit`, a hit is counted on the calling thread's
  /// reader line.
  [[nodiscard]] bool probe(const Shard& shard, std::uint64_t hash, std::string_view name,
                           std::uint64_t now, std::vector<store::Record>* out,
                           bool count_hit) const;
  /// A counted probe that answers `result` from the cache on a hit.
  [[nodiscard]] bool hit(const Shard& shard, std::uint64_t hash, std::string_view name,
                         std::uint64_t now, ResolveResult& result);
  /// The link that points at `name`'s node, or the chain's null terminator.
  /// Caller holds `shard.writer`.
  [[nodiscard]] std::atomic<Node*>* link_of(Shard& shard, std::uint64_t hash,
                                            std::string_view name) const;
  /// Links a node for `name` (replacing the name's node, if any), evicting
  /// first when a fresh name finds the shard full.
  void publish(Shard& shard, std::uint64_t hash, std::string_view name, std::uint64_t expires_at,
               std::vector<store::Record> records, std::uint64_t now);
  /// The eviction policy on one shard: drop every expired node, else the one
  /// with the smallest (expires_at, name), popping them off the heap's
  /// front. Caller holds `shard.writer`.
  void evict(Shard& shard, std::uint64_t now);
  /// Unlinks `name`'s node if it has expired at `now`, counting no eviction.
  void drop_expired(Shard& shard, std::uint64_t hash, std::string_view name, std::uint64_t now);
  /// Books one forwarded lookup of `name`: its hops, the defense's miss
  /// record, then a failure (dropping the name's expired node) or a miss
  /// whose answer is published.
  void settle(Shard& shard, std::uint64_t hash, std::string_view name, std::uint64_t now,
              const HoursSystem::LookupResult& answer, ResolveResult& result);
  /// Stores `node`'s successor over `link` and retires `node`. Caller holds
  /// the shard's writer mutex and `rcu_writer_mutex_`.
  void unlink(std::atomic<Node*>& link, Node* node);

  /// Frees every linked node, then splits `capacity` over `shard_count`
  /// empty shards. No other call may run concurrently.
  void size_shards(std::size_t capacity, unsigned shard_count);
  /// Every node linked in any shard, read off the heaps. No writer may run
  /// concurrently.
  [[nodiscard]] std::vector<Node*> linked_nodes() const;

  HoursSystem& system_;
  std::mutex system_mutex_;  ///< the single-consumer authority path
  std::size_t capacity_ = 0;
  std::size_t shard_capacity_ = 0;
  std::size_t bucket_mask_ = 0;  ///< bucket count - 1, the same for every shard
  mutable jobs::RcuDomain rcu_;
  std::mutex rcu_writer_mutex_;  ///< serializes retire/advance across shards
  /// Cache hits, one line per RCU reader slot: only the thread holding slot
  /// i writes reader_hits_[i] (bar from_json, which runs alone).
  mutable std::array<jobs::LineAtomic, jobs::RcuDomain::kMaxReaders> reader_hits_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<NegativeCacheDigest> defense_;  ///< null = defense off
};

}  // namespace hours
