#include "hours/concurrent_resolver.hpp"

#include <tuple>
#include <utility>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace hours {

ConcurrentResolver::ConcurrentResolver(HoursSystem& system, std::size_t capacity,
                                       unsigned shard_count)
    : system_(system) {
  HOURS_EXPECTS(capacity > 0);
  HOURS_EXPECTS(shard_count > 0);
  shard_capacity_ = capacity / shard_count + (capacity % shard_count != 0 ? 1 : 0);
  std::size_t buckets = 1;
  while (buckets < shard_capacity_ && buckets < kMaxBuckets) buckets <<= 1;
  bucket_mask_ = buckets - 1;
  shards_.reserve(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) shards_.push_back(std::make_unique<Shard>(buckets));
}

ConcurrentResolver::~ConcurrentResolver() {
  // No concurrent readers may remain; the RCU domain frees retired nodes,
  // the linked ones are freed here.
  for (auto& shard : shards_) {
    for (std::size_t b = 0; b <= bucket_mask_; ++b) {
      for (Node* node = shard->buckets[b].load(std::memory_order_relaxed); node != nullptr;) {
        Node* next = node->next.load(std::memory_order_relaxed);
        delete node;
        node = next;
      }
    }
  }
}

bool ConcurrentResolver::probe(const Shard& shard, std::uint64_t hash, std::string_view name,
                               std::uint64_t now, std::vector<store::Record>* out) const {
  jobs::RcuDomain::ReadGuard guard{rcu_};
  for (const Node* node = shard.buckets[bucket_of(hash)].load(std::memory_order_seq_cst);
       node != nullptr; node = node->next.load(std::memory_order_seq_cst)) {
    if (node->hash != hash || node->name != name) continue;
    if (node->expires_at <= now) return false;
    if (out != nullptr) *out = node->records;  // copy while the guard pins the node
    return true;
  }
  return false;
}

void ConcurrentResolver::publish(Shard& shard, std::uint64_t hash, std::string_view name,
                                 std::uint64_t expires_at, std::vector<store::Record> records,
                                 std::uint64_t now) {
  auto fresh = std::make_unique<Node>(hash, name, expires_at, std::move(records));
  std::lock_guard<std::mutex> lock{shard.writer};
  std::atomic<Node*>& head = shard.buckets[bucket_of(hash)];
  std::atomic<Node*>* link = &head;
  Node* old = head.load(std::memory_order_relaxed);
  while (old != nullptr && (old->hash != hash || old->name != name)) {
    link = &old->next;
    old = old->next.load(std::memory_order_relaxed);
  }
  if (old != nullptr) {
    // An overwrite never evicts: the replacement takes the old node's place.
    fresh->next.store(old->next.load(std::memory_order_relaxed), std::memory_order_relaxed);
    link->store(fresh.release(), std::memory_order_seq_cst);
    std::lock_guard<std::mutex> rcu_lock{rcu_writer_mutex_};
    rcu_.retire([old] { delete old; });
    rcu_.advance_and_reclaim();
    return;
  }
  if (shard.size.load(std::memory_order_relaxed) >= shard_capacity_) evict(shard, now);
  fresh->next.store(head.load(std::memory_order_relaxed), std::memory_order_relaxed);
  head.store(fresh.release(), std::memory_order_seq_cst);
  shard.size.fetch_add(1, std::memory_order_relaxed);
}

void ConcurrentResolver::evict(Shard& shard, std::uint64_t now) {
  // One pass unlinks every expired node and finds the smallest
  // (expires_at, name) among the rest: Resolver's victim, the first its
  // name-ordered scan meets, dropped only when nothing had expired (so no
  // unlink moved the link that points at it).
  std::lock_guard<std::mutex> rcu_lock{rcu_writer_mutex_};
  std::size_t dropped = 0;
  std::atomic<Node*>* victim_link = nullptr;
  Node* victim = nullptr;
  for (std::size_t b = 0; b <= bucket_mask_; ++b) {
    std::atomic<Node*>* link = &shard.buckets[b];
    while (Node* node = link->load(std::memory_order_relaxed)) {
      if (node->expires_at <= now) {
        unlink(*link, node);
        ++dropped;
        continue;
      }
      if (victim == nullptr ||
          std::tie(node->expires_at, node->name) < std::tie(victim->expires_at, victim->name)) {
        victim_link = link;
        victim = node;
      }
      link = &node->next;
    }
  }
  if (dropped == 0) {
    HOURS_ASSERT(victim != nullptr);  // only a full shard evicts
    unlink(*victim_link, victim);
    dropped = 1;
  }
  shard.size.fetch_sub(dropped, std::memory_order_relaxed);
  shard.evictions.fetch_add(dropped, std::memory_order_relaxed);
  rcu_.advance_and_reclaim();
}

void ConcurrentResolver::unlink(std::atomic<Node*>& link, Node* node) {
  link.store(node->next.load(std::memory_order_relaxed), std::memory_order_seq_cst);
  rcu_.retire([node] { delete node; });
}

ResolveResult ConcurrentResolver::resolve(std::string_view name, std::uint64_t now) {
  ResolveResult result;
  const std::uint64_t hash = util::fnv1a(name);
  Shard& shard = shard_of(hash);
  if (probe(shard, hash, name, now, &result.records)) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    result.answered = true;
    result.from_cache = true;
    return result;
  }

  // Defense gate before the authority mutex: a refused query must not even
  // contend for the single-consumer hierarchy path — starving the authority
  // of attacker traffic is the point.
  if (defense_ != nullptr && defense_->config().enabled &&
      defense_->flagged(NegativeCacheDigest::zone_of(name), now)) {
    shard.refusals.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

  std::lock_guard<std::mutex> lock{system_mutex_};
  // Double-check: a concurrent miss on the same name may have answered and
  // published while we waited for the authority mutex.
  if (probe(shard, hash, name, now, &result.records)) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    result.answered = true;
    result.from_cache = true;
    return result;
  }
  const auto looked_up = system_.lookup(name);
  result.hops = looked_up.query.hops;
  if (defense_ != nullptr && defense_->config().enabled) {
    (void)defense_->record_miss(NegativeCacheDigest::zone_of(name), name, now);
  }
  if (!looked_up.query.delivered) {
    shard.failures.fetch_add(1, std::memory_order_relaxed);
    return result;
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  result.answered = true;
  result.records = looked_up.records;
  publish(shard, hash, name, now + answer_min_ttl(result.records), result.records, now);
  return result;
}

std::vector<ResolveResult> ConcurrentResolver::resolve_batch(
    const std::vector<std::string>& names, std::uint64_t now) {
  std::vector<ResolveResult> results(names.size());
  std::vector<std::uint64_t> hashes(names.size());
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < names.size(); ++i) {
    hashes[i] = util::fnv1a(names[i]);
    Shard& shard = shard_of(hashes[i]);
    if (probe(shard, hashes[i], names[i], now, &results[i].records)) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      results[i].answered = true;
      results[i].from_cache = true;
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) return results;

  std::lock_guard<std::mutex> lock{system_mutex_};
  std::vector<std::string> forwarded;
  std::vector<std::size_t> forwarded_index;
  forwarded.reserve(missing.size());
  for (const auto i : missing) {
    Shard& shard = shard_of(hashes[i]);
    // Same double-check as resolve(): the batch ahead of us may have
    // already answered some of these names.
    if (probe(shard, hashes[i], names[i], now, &results[i].records)) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      results[i].answered = true;
      results[i].from_cache = true;
      continue;
    }
    if (defense_ != nullptr && defense_->config().enabled &&
        defense_->flagged(NegativeCacheDigest::zone_of(names[i]), now)) {
      shard.refusals.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    forwarded.push_back(names[i]);
    forwarded_index.push_back(i);
  }
  const auto answers = system_.lookup_batch(forwarded);
  for (std::size_t j = 0; j < answers.size(); ++j) {
    const std::size_t i = forwarded_index[j];
    Shard& shard = shard_of(hashes[i]);
    results[i].hops = answers[j].query.hops;
    if (defense_ != nullptr && defense_->config().enabled) {
      (void)defense_->record_miss(NegativeCacheDigest::zone_of(names[i]), names[i], now);
    }
    if (!answers[j].query.delivered) {
      shard.failures.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    shard.misses.fetch_add(1, std::memory_order_relaxed);
    results[i].answered = true;
    results[i].records = answers[j].records;
    publish(shard, hashes[i], names[i], now + answer_min_ttl(results[i].records),
            results[i].records, now);
  }
  return results;
}

bool ConcurrentResolver::peek(std::string_view name, std::uint64_t now,
                              std::vector<store::Record>* out) const {
  const std::uint64_t hash = util::fnv1a(name);
  return probe(shard_of(hash), hash, name, now, out);
}

void ConcurrentResolver::insert(std::string_view name, std::uint64_t now,
                                std::vector<store::Record> records) {
  const std::uint64_t hash = util::fnv1a(name);
  const std::uint64_t ttl = answer_min_ttl(records);
  publish(shard_of(hash), hash, name, now + ttl, std::move(records), now);
}

ResolverStats ConcurrentResolver::stats() const {
  ResolverStats total;
  for (const auto& shard : shards_) {
    total.cache_hits += shard->hits.load(std::memory_order_relaxed);
    total.cache_misses += shard->misses.load(std::memory_order_relaxed);
    total.failures += shard->failures.load(std::memory_order_relaxed);
    total.evictions += shard->evictions.load(std::memory_order_relaxed);
    total.refusals += shard->refusals.load(std::memory_order_relaxed);
  }
  if (defense_ != nullptr) total.zones_flagged = defense_->zones_flagged();
  return total;
}

std::size_t ConcurrentResolver::cached_names() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->size.load(std::memory_order_relaxed);
  return total;
}

}  // namespace hours
