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

}  // namespace hours
