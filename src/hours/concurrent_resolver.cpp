#include "hours/concurrent_resolver.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace hours {

namespace {

/// When an answer cached at `now` expires: now + answer_min_ttl, saturating
/// so that a TTL near 2^64 never wraps into the past.
std::uint64_t answer_expiry(std::uint64_t now, const std::vector<store::Record>& records) {
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t ttl = answer_min_ttl(records);
  return ttl > kNever - now ? kNever : now + ttl;
}

/// Names one shard of `capacity` split over `shard_count` shards may hold.
std::size_t per_shard(std::size_t capacity, unsigned shard_count) {
  return capacity / shard_count + (capacity % shard_count != 0 ? 1 : 0);
}

}  // namespace

ConcurrentResolver::ConcurrentResolver(HoursSystem& system, std::size_t capacity,
                                       unsigned shard_count)
    : system_(system) {
  HOURS_EXPECTS(capacity > 0);
  HOURS_EXPECTS(shard_count > 0);
  size_shards(capacity, shard_count);
}

// No concurrent readers may remain; the RCU domain frees retired nodes.
ConcurrentResolver::~ConcurrentResolver() {
  for (Node* node : linked_nodes()) delete node;
}

void ConcurrentResolver::size_shards(std::size_t capacity, unsigned shard_count) {
  for (Node* node : linked_nodes()) delete node;
  capacity_ = capacity;
  shard_capacity_ = per_shard(capacity, shard_count);
  std::size_t buckets = 1;
  while (buckets < shard_capacity_ && buckets < kMaxBuckets) buckets <<= 1;
  bucket_mask_ = buckets - 1;
  shards_.clear();
  shards_.reserve(shard_count);
  for (unsigned i = 0; i < shard_count; ++i) shards_.push_back(std::make_unique<Shard>(buckets));
}

std::vector<ConcurrentResolver::Node*> ConcurrentResolver::linked_nodes() const {
  std::vector<Node*> nodes;
  for (const auto& shard : shards_) {
    for (const HeapEntry& entry : shard->heap) nodes.push_back(entry.node);
  }
  return nodes;
}

bool ConcurrentResolver::Shard::before(const HeapEntry& a, const HeapEntry& b) {
  return a.expires_at < b.expires_at ||
         (a.expires_at == b.expires_at && a.node->name < b.node->name);
}

void ConcurrentResolver::Shard::seat(std::size_t pos, const HeapEntry& entry) {
  heap[pos] = entry;
  entry.node->heap_pos = pos;
}

void ConcurrentResolver::Shard::sift_up(std::size_t pos, HeapEntry entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(entry, heap[parent])) break;
    seat(pos, heap[parent]);
    pos = parent;
  }
  seat(pos, entry);
}

void ConcurrentResolver::Shard::sift_down(std::size_t pos, HeapEntry entry) {
  const std::size_t count = heap.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= count) break;
    if (child + 1 < count && before(heap[child + 1], heap[child])) ++child;
    if (!before(heap[child], entry)) break;
    seat(pos, heap[child]);
    pos = child;
  }
  seat(pos, entry);
}

void ConcurrentResolver::Shard::push(Node* node) {
  heap.emplace_back();
  sift_up(heap.size() - 1, HeapEntry{node->expires_at, node});
}

void ConcurrentResolver::Shard::refill(std::size_t pos, HeapEntry entry) {
  // The entry may belong above the hole (when the hole is not on its own
  // root path) or below it.
  if (pos > 0 && before(entry, heap[(pos - 1) / 2])) {
    sift_up(pos, entry);
  } else {
    sift_down(pos, entry);
  }
}

void ConcurrentResolver::Shard::remove_at(std::size_t pos) {
  const HeapEntry last = heap.back();
  heap.pop_back();
  if (pos < heap.size()) refill(pos, last);
}

bool ConcurrentResolver::probe(const Shard& shard, std::uint64_t hash, std::string_view name,
                               std::uint64_t now, std::vector<store::Record>* out,
                               bool count_hit) const {
  jobs::RcuDomain::ReadGuard guard{rcu_};
  for (const Node* node = shard.buckets[bucket_of(hash)].load(std::memory_order_seq_cst);
       node != nullptr; node = node->next.load(std::memory_order_seq_cst)) {
    if (node->hash != hash || node->name != name) continue;
    if (node->expires_at <= now) return false;
    if (out != nullptr) *out = node->records;  // copy while the guard pins the node
    if (count_hit) {
      // This thread is the line's only writer: no read-modify-write needed.
      std::atomic<std::uint64_t>& hits = reader_hits_[guard.reader()].value;
      hits.store(hits.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    }
    return true;
  }
  return false;
}

bool ConcurrentResolver::hit(const Shard& shard, std::uint64_t hash, std::string_view name,
                             std::uint64_t now, ResolveResult& result) {
  if (!probe(shard, hash, name, now, &result.records, /*count_hit=*/true)) return false;
  result.answered = true;
  result.from_cache = true;
  return true;
}

std::atomic<ConcurrentResolver::Node*>* ConcurrentResolver::link_of(
    Shard& shard, std::uint64_t hash, std::string_view name) const {
  std::atomic<Node*>* link = &shard.buckets[bucket_of(hash)];
  for (Node* node = link->load(std::memory_order_relaxed);
       node != nullptr && (node->hash != hash || node->name != name);
       node = link->load(std::memory_order_relaxed)) {
    link = &node->next;
  }
  return link;
}

void ConcurrentResolver::publish(Shard& shard, std::uint64_t hash, std::string_view name,
                                 std::uint64_t expires_at, std::vector<store::Record> records,
                                 std::uint64_t now) {
  auto fresh = std::make_unique<Node>(hash, name, expires_at, std::move(records));
  std::lock_guard<std::mutex> lock{shard.writer};
  std::atomic<Node*>* link = link_of(shard, hash, name);
  if (Node* old = link->load(std::memory_order_relaxed); old != nullptr) {
    // An overwrite never evicts: the replacement takes the old node's place
    // in its chain and in the heap.
    fresh->next.store(old->next.load(std::memory_order_relaxed), std::memory_order_relaxed);
    shard.refill(old->heap_pos, HeapEntry{fresh->expires_at, fresh.get()});
    link->store(fresh.release(), std::memory_order_seq_cst);
    std::lock_guard<std::mutex> rcu_lock{rcu_writer_mutex_};
    rcu_.retire([old] { delete old; });
    rcu_.advance_and_reclaim();
    return;
  }
  if (shard.size.load(std::memory_order_relaxed) >= shard_capacity_) evict(shard, now);
  std::atomic<Node*>& head = shard.buckets[bucket_of(hash)];
  fresh->next.store(head.load(std::memory_order_relaxed), std::memory_order_relaxed);
  shard.push(fresh.get());
  head.store(fresh.release(), std::memory_order_seq_cst);
  shard.size.fetch_add(1, std::memory_order_relaxed);
}

void ConcurrentResolver::evict(Shard& shard, std::uint64_t now) {
  // Every expired node precedes every live one in heap order, so popping
  // while the front has expired drops exactly the expired nodes; when none
  // has, the front is the smallest (expires_at, name) and one pop drops it.
  HOURS_ASSERT(!shard.heap.empty());  // only a full shard evicts
  std::lock_guard<std::mutex> rcu_lock{rcu_writer_mutex_};
  const bool expired = shard.heap.front().expires_at <= now;
  std::size_t dropped = 0;
  do {
    Node* victim = shard.heap.front().node;
    shard.remove_at(0);
    unlink(*link_of(shard, victim->hash, victim->name), victim);
    ++dropped;
  } while (expired && !shard.heap.empty() && shard.heap.front().expires_at <= now);
  shard.size.fetch_sub(dropped, std::memory_order_relaxed);
  shard.evictions.fetch_add(dropped, std::memory_order_relaxed);
  rcu_.advance_and_reclaim();
}

void ConcurrentResolver::drop_expired(Shard& shard, std::uint64_t hash, std::string_view name,
                                      std::uint64_t now) {
  std::lock_guard<std::mutex> lock{shard.writer};
  std::atomic<Node*>* link = link_of(shard, hash, name);
  Node* node = link->load(std::memory_order_relaxed);
  if (node == nullptr || node->expires_at > now) return;
  std::lock_guard<std::mutex> rcu_lock{rcu_writer_mutex_};
  shard.remove_at(node->heap_pos);
  unlink(*link, node);
  shard.size.fetch_sub(1, std::memory_order_relaxed);
  rcu_.advance_and_reclaim();
}

void ConcurrentResolver::unlink(std::atomic<Node*>& link, Node* node) {
  link.store(node->next.load(std::memory_order_relaxed), std::memory_order_seq_cst);
  rcu_.retire([node] { delete node; });
}

void ConcurrentResolver::settle(Shard& shard, std::uint64_t hash, std::string_view name,
                                std::uint64_t now, const HoursSystem::LookupResult& answer,
                                ResolveResult& result) {
  result.hops = answer.query.hops;
  if (defense_ != nullptr) {
    (void)defense_->record_miss(NegativeCacheDigest::zone_of(name), name, now);
  }
  if (!answer.query.delivered) {
    shard.failures.fetch_add(1, std::memory_order_relaxed);
    drop_expired(shard, hash, name, now);
    return;
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  result.answered = true;
  result.records = answer.records;
  publish(shard, hash, name, answer_expiry(now, result.records), result.records, now);
}

ResolveResult ConcurrentResolver::resolve(std::string_view name, std::uint64_t now) {
  ResolveResult result;
  const std::uint64_t hash = util::fnv1a(name);
  Shard& shard = shard_of(hash);
  if (hit(shard, hash, name, now, result)) return result;

  // Defense gate before the authority mutex: a refused query must not even
  // contend for the single-consumer hierarchy path — starving the authority
  // of attacker traffic is the point.
  if (defense_ != nullptr && defense_->flagged(NegativeCacheDigest::zone_of(name), now)) {
    shard.refusals.fetch_add(1, std::memory_order_relaxed);
    drop_expired(shard, hash, name, now);
    return result;
  }

  std::lock_guard<std::mutex> lock{system_mutex_};
  // Double-check: a concurrent miss on the same name may have answered and
  // published while we waited for the authority mutex.
  if (hit(shard, hash, name, now, result)) return result;
  settle(shard, hash, name, now, system_.lookup(name), result);
  return result;
}

std::vector<ResolveResult> ConcurrentResolver::resolve_batch(
    const std::vector<std::string>& names, std::uint64_t now) {
  std::vector<ResolveResult> results(names.size());
  std::vector<std::uint64_t> hashes(names.size());
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < names.size(); ++i) {
    hashes[i] = util::fnv1a(names[i]);
    if (!hit(shard_of(hashes[i]), hashes[i], names[i], now, results[i])) missing.push_back(i);
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
    if (hit(shard, hashes[i], names[i], now, results[i])) continue;
    if (defense_ != nullptr && defense_->flagged(NegativeCacheDigest::zone_of(names[i]), now)) {
      shard.refusals.fetch_add(1, std::memory_order_relaxed);
      drop_expired(shard, hashes[i], names[i], now);
      continue;
    }
    forwarded.push_back(names[i]);
    forwarded_index.push_back(i);
  }
  const auto answers = system_.lookup_batch(forwarded);
  for (std::size_t j = 0; j < answers.size(); ++j) {
    const std::size_t i = forwarded_index[j];
    settle(shard_of(hashes[i]), hashes[i], names[i], now, answers[j], results[i]);
  }
  return results;
}

bool ConcurrentResolver::peek(std::string_view name, std::uint64_t now,
                              std::vector<store::Record>* out) const {
  const std::uint64_t hash = util::fnv1a(name);
  return probe(shard_of(hash), hash, name, now, out, /*count_hit=*/false);
}

void ConcurrentResolver::insert(std::string_view name, std::uint64_t now,
                                std::vector<store::Record> records) {
  const std::uint64_t hash = util::fnv1a(name);
  const std::uint64_t expires_at = answer_expiry(now, records);
  publish(shard_of(hash), hash, name, expires_at, std::move(records), now);
}

ResolverStats ConcurrentResolver::stats() const {
  ResolverStats total;
  for (const jobs::LineAtomic& reader : reader_hits_) {
    total.cache_hits += reader.value.load(std::memory_order_relaxed);
  }
  for (const auto& shard : shards_) {
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

snapshot::Json ConcurrentResolver::to_json() const {
  using snapshot::Json;
  auto nodes = linked_nodes();
  std::sort(nodes.begin(), nodes.end(),
            [](const Node* a, const Node* b) { return a->name < b->name; });
  Json out = Json::object();
  out["capacity"] = Json(static_cast<std::uint64_t>(capacity_));
  Json cache = Json::array();  // rows [name, expires_at, [[type, value, ttl]...]]
  for (const Node* node : nodes) {
    Json row = Json::array();
    row.push(Json(node->name));
    row.push(Json(node->expires_at));
    Json records = Json::array();
    for (const auto& record : node->records) {
      Json fields = Json::array();
      fields.push(Json(record.type));
      fields.push(Json(record.value));
      fields.push(Json(record.ttl));
      records.push(std::move(fields));
    }
    row.push(std::move(records));
    cache.push(std::move(row));
  }
  out["cache"] = std::move(cache);
  const ResolverStats totals = stats();
  Json counters = Json::array();
  counters.push(Json(totals.cache_hits));
  counters.push(Json(totals.cache_misses));
  counters.push(Json(totals.failures));
  counters.push(Json(totals.evictions));
  out["stats"] = std::move(counters);
  return out;
}

std::string ConcurrentResolver::from_json(const snapshot::Json& state) {
  using snapshot::Json;
  const Json* capacity = state.find("capacity");
  const Json* cache = state.find("cache");
  const Json* stats = state.find("stats");
  if (capacity == nullptr || !capacity->is_u64() || cache == nullptr || !cache->is_array() ||
      stats == nullptr || !stats->is_array() || stats->items().size() != 4) {
    return "resolver state malformed";
  }
  for (const auto& field : stats->items()) {
    if (!field.is_u64()) return "resolver.stats malformed";
  }
  struct Row {
    std::uint64_t expires_at = 0;
    std::vector<store::Record> records;
  };
  std::map<std::string, Row> rows;
  bool repeated = false;
  for (const auto& raw : cache->items()) {
    if (!raw.is_array() || raw.items().size() != 3 || !raw.items()[0].is_string() ||
        !raw.items()[1].is_u64() || !raw.items()[2].is_array()) {
      return "resolver.cache entry malformed";
    }
    Row row{raw.items()[1].as_u64(), {}};
    for (const auto& fields : raw.items()[2].items()) {
      if (!fields.is_array() || fields.items().size() != 3 || !fields.items()[0].is_string() ||
          !fields.items()[1].is_string() || !fields.items()[2].is_u64()) {
        return "resolver.cache record malformed";
      }
      store::Record record;
      record.type = fields.items()[0].as_string();
      record.value = fields.items()[1].as_string();
      record.ttl = fields.items()[2].as_u64();
      row.records.push_back(std::move(record));
    }
    repeated |= !rows.emplace(raw.items()[0].as_string(), std::move(row)).second;
  }
  // Refused only once the document parses, so every malformed one keeps its
  // error: a capacity the constructor rejects, one name linked twice, or
  // more rows than one shard of the saved capacity holds.
  const auto restored_capacity = static_cast<std::size_t>(capacity->as_u64());
  if (restored_capacity == 0) return "resolver.capacity must be >= 1";
  if (repeated) return "resolver.cache repeats a name";
  const std::size_t room = per_shard(restored_capacity, shard_count());
  std::vector<std::size_t> fill(shard_count(), 0);
  for (const auto& entry : rows) {
    if (++fill[util::fnv1a(entry.first) % fill.size()] > room) {
      return "resolver.cache overfills a shard";
    }
  }

  size_shards(restored_capacity, shard_count());
  for (auto& [name, row] : rows) {
    const std::uint64_t hash = util::fnv1a(name);
    publish(shard_of(hash), hash, name, row.expires_at, std::move(row.records), 0);
  }
  // The restored totals land on reader line 0 and the first shard; every
  // other reader line restarts at 0, and so do refusals, outside the layout.
  for (jobs::LineAtomic& reader : reader_hits_) reader.value.store(0, std::memory_order_relaxed);
  reader_hits_.front().value.store(stats->items()[0].as_u64(), std::memory_order_relaxed);
  Shard& first = *shards_.front();
  first.misses.store(stats->items()[1].as_u64(), std::memory_order_relaxed);
  first.failures.store(stats->items()[2].as_u64(), std::memory_order_relaxed);
  first.evictions.store(stats->items()[3].as_u64(), std::memory_order_relaxed);
  return "";
}

}  // namespace hours
