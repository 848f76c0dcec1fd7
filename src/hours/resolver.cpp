#include "hours/resolver.hpp"

#include <algorithm>

namespace hours {

std::uint64_t answer_min_ttl(const std::vector<store::Record>& records) noexcept {
  std::uint64_t ttl = ~std::uint64_t{0};
  for (const auto& r : records) ttl = std::min<std::uint64_t>(ttl, r.ttl);
  return records.empty() ? 60 : ttl;
}

std::string_view NegativeCacheDigest::zone_of(std::string_view name) noexcept {
  const auto dot = name.find('.');
  return dot == std::string_view::npos ? name : name.substr(dot + 1);
}

bool NegativeCacheDigest::flagged(std::string_view zone, std::uint64_t now) const {
  std::lock_guard<std::mutex> lock{mutex_};
  const auto it = zones_.find(zone);
  return it != zones_.end() && it->second.flagged_until > now;
}

bool NegativeCacheDigest::record_miss(std::string_view zone, std::string_view name,
                                      std::uint64_t now) {
  std::lock_guard<std::mutex> lock{mutex_};
  ZoneTrack& track = zones_[std::string{zone}];
  for (auto it = track.recent.begin(); it != track.recent.end();) {
    if (it->second + config_.window <= now) {
      it = track.recent.erase(it);
    } else {
      ++it;
    }
  }
  track.recent[std::string{name}] = now;
  if (track.recent.size() < config_.distinct_miss_threshold) return false;
  track.flagged_until = now + config_.flag_ttl;
  track.recent.clear();
  ++zones_flagged_;
  return true;
}

std::uint64_t NegativeCacheDigest::zones_flagged() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return zones_flagged_;
}

ResolveResult Resolver::resolve(std::string_view name) { return resolve(name, system_.now()); }

const std::vector<store::Record>* Resolver::peek(std::string_view name) const {
  return peek(name, system_.now());
}

void Resolver::insert(std::string_view name, std::vector<store::Record> records) {
  insert(name, system_.now(), std::move(records));
}

ResolveResult Resolver::resolve(std::string_view name, std::uint64_t now) {
  ResolveResult result;
  const std::string key{name};

  if (const auto it = cache_.find(key); it != cache_.end()) {
    if (it->second.expires_at > now) {
      ++stats_.cache_hits;
      result.answered = true;
      result.from_cache = true;
      result.records = it->second.records;
      return result;
    }
    cache_.erase(it);  // expired
  }

  // Defense gate on the miss path only: cached answers for a flagged zone
  // keep serving (legitimate hot names stay warm); what a flag denies is the
  // authoritative lookup + eviction the attacker is really after.
  if (defense_ != nullptr && defense_->config().enabled) {
    const auto zone = NegativeCacheDigest::zone_of(name);
    if (defense_->flagged(zone, now)) {
      ++stats_.refusals;
      return result;
    }
  }

  const auto looked_up = system_.lookup(name);
  result.hops = looked_up.query.hops;
  if (defense_ != nullptr && defense_->config().enabled) {
    (void)defense_->record_miss(NegativeCacheDigest::zone_of(name), name, now);
  }
  if (!looked_up.query.delivered) {
    ++stats_.failures;
    return result;
  }

  ++stats_.cache_misses;
  result.answered = true;
  result.records = looked_up.records;

  if (cache_.size() >= capacity_) evict_expired_or_oldest(now);
  cache_[key] = Entry{now + answer_min_ttl(result.records), result.records};
  return result;
}

const std::vector<store::Record>* Resolver::peek(std::string_view name,
                                                 std::uint64_t now) const {
  const auto it = cache_.find(std::string{name});
  if (it == cache_.end() || it->second.expires_at <= now) return nullptr;
  return &it->second.records;
}

void Resolver::insert(std::string_view name, std::uint64_t now,
                      std::vector<store::Record> records) {
  const std::uint64_t ttl = answer_min_ttl(records);
  std::string key{name};
  // An overwrite never evicts: only a fresh name can push the cache over.
  if (const auto it = cache_.find(key); it != cache_.end()) {
    it->second = Entry{now + ttl, std::move(records)};
    return;
  }
  if (cache_.size() >= capacity_) evict_expired_or_oldest(now);
  cache_.emplace(std::move(key), Entry{now + ttl, std::move(records)});
}

void Resolver::evict_expired_or_oldest(std::uint64_t now) {
  // Drop everything expired; if nothing is, drop the entry closest to
  // expiry. Linear scan: client caches are small.
  bool dropped = false;
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (it->second.expires_at <= now) {
      it = cache_.erase(it);
      ++stats_.evictions;
      dropped = true;
    } else {
      ++it;
    }
  }
  if (dropped || cache_.empty()) return;
  const auto victim = std::min_element(
      cache_.begin(), cache_.end(),
      [](const auto& a, const auto& b) { return a.second.expires_at < b.second.expires_at; });
  cache_.erase(victim);
  ++stats_.evictions;
}

snapshot::Json Resolver::to_json() const {
  using snapshot::Json;
  Json out = Json::object();
  out["capacity"] = Json(static_cast<std::uint64_t>(capacity_));
  Json cache = Json::array();  // rows [name, expires_at, [[type, value, ttl]...]]
  for (const auto& [name, entry] : cache_) {
    Json row = Json::array();
    row.push(Json(name));
    row.push(Json(entry.expires_at));
    Json records = Json::array();
    for (const auto& record : entry.records) {
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
  Json stats = Json::array();
  stats.push(Json(stats_.cache_hits));
  stats.push(Json(stats_.cache_misses));
  stats.push(Json(stats_.failures));
  stats.push(Json(stats_.evictions));
  out["stats"] = std::move(stats);
  return out;
}

std::string Resolver::from_json(const snapshot::Json& state) {
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
  std::map<std::string, Entry> restored;
  for (const auto& raw : cache->items()) {
    if (!raw.is_array() || raw.items().size() != 3 || !raw.items()[0].is_string() ||
        !raw.items()[1].is_u64() || !raw.items()[2].is_array()) {
      return "resolver.cache entry malformed";
    }
    Entry entry;
    entry.expires_at = raw.items()[1].as_u64();
    for (const auto& fields : raw.items()[2].items()) {
      if (!fields.is_array() || fields.items().size() != 3 || !fields.items()[0].is_string() ||
          !fields.items()[1].is_string() || !fields.items()[2].is_u64()) {
        return "resolver.cache record malformed";
      }
      store::Record record;
      record.type = fields.items()[0].as_string();
      record.value = fields.items()[1].as_string();
      record.ttl = fields.items()[2].as_u64();
      entry.records.push_back(std::move(record));
    }
    restored[raw.items()[0].as_string()] = std::move(entry);
  }
  capacity_ = static_cast<std::size_t>(capacity->as_u64());
  cache_ = std::move(restored);
  stats_.cache_hits = stats->items()[0].as_u64();
  stats_.cache_misses = stats->items()[1].as_u64();
  stats_.failures = stats->items()[2].as_u64();
  stats_.evictions = stats->items()[3].as_u64();
  return "";
}

}  // namespace hours
