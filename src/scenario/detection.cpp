#include "scenario/detection.hpp"

#include <algorithm>

namespace hours::scenario {

namespace {

/// Nearest-rank percentile of an ascending sample: index p*(n-1), rounded.
std::uint64_t percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto index =
      static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

void DetectionSummary::render(metrics::JsonWriter& json) const {
  json.begin_object();
  json.field("episodes", episodes);
  json.field("pairs_possible", pairs_possible);
  json.field("pairs_observed", pairs_observed);
  json.field("never_fraction", never_fraction, 4);
  json.field("latency_p50", latency_p50);
  json.field("latency_p90", latency_p90);
  json.field("latency_p99", latency_p99);
  json.field("median_t_half", median_t_half);
  json.field("censored_episodes", censored_episodes);
  json.field("false_suspicions", false_suspicions);
  json.field("digests_sent", digests_sent);
  json.field("digest_entries", digest_entries);
  json.field("max_digest_entries", max_digest_entries);
  json.field("gossip_adoptions", gossip_adoptions);
  json.end_object();
}

void DetectionSink::on_event(const trace::Event& event) {
  using trace::EventType;
  switch (event.type) {
    case EventType::kFaultKill:
      if (event.node == trace::kNoNode) return;
      ++dead_;
      open_[event.node] = Episode{event.at, 0, ring_size_ - dead_, {}};
      return;
    case EventType::kFaultRevive: {
      if (event.node == trace::kNoNode) return;
      --dead_;
      const auto it = open_.find(event.node);
      if (it == open_.end()) return;
      it->second.end_at = event.at;
      closed_.push_back(std::move(it->second));
      open_.erase(it);
      return;
    }
    case EventType::kSuspect:
    case EventType::kLivenessGossipSuspect: {
      if (event.node == trace::kNoNode || event.peer == trace::kNoNode) return;
      const auto it = open_.find(event.peer);
      if (it == open_.end()) {
        ++counts_.false_suspicions;
      } else {
        it->second.first_seen.emplace(event.node, event.at - it->second.kill_at);
      }
      return;
    }
    case EventType::kLivenessDigestSent:
      ++counts_.digests_sent;
      counts_.digest_entries += event.value;
      counts_.max_digest_entries = std::max(counts_.max_digest_entries, event.value);
      return;
    case EventType::kLivenessDigestApplied:
      counts_.gossip_adoptions += event.value;
      return;
    default:
      return;
  }
}

DetectionSummary DetectionSink::summarize(std::uint64_t horizon) const {
  DetectionSummary s = counts_;
  std::vector<std::uint64_t> pooled;
  std::vector<std::uint64_t> t_half;
  const auto add = [&](const Episode& episode, std::uint64_t end_at) {
    ++s.episodes;
    s.pairs_possible += episode.alive_observers;
    s.pairs_observed += episode.first_seen.size();
    std::vector<std::uint64_t> latencies;
    latencies.reserve(episode.first_seen.size());
    for (const auto& [observer, latency] : episode.first_seen) {
      latencies.push_back(latency);
      pooled.push_back(latency);
    }
    std::sort(latencies.begin(), latencies.end());
    const std::size_t need = (episode.alive_observers + 1) / 2;
    if (latencies.size() >= need && need > 0) {
      t_half.push_back(latencies[need - 1]);
    } else {
      t_half.push_back(end_at - episode.kill_at);  // censored
      ++s.censored_episodes;
    }
  };
  for (const auto& episode : closed_) add(episode, episode.end_at);
  for (const auto& [victim, episode] : open_) add(episode, horizon);

  if (s.pairs_possible > 0) {
    s.never_fraction = 1.0 - static_cast<double>(s.pairs_observed) /
                                 static_cast<double>(s.pairs_possible);
  }
  std::sort(pooled.begin(), pooled.end());
  s.latency_p50 = percentile(pooled, 0.50);
  s.latency_p90 = percentile(pooled, 0.90);
  s.latency_p99 = percentile(pooled, 0.99);
  std::sort(t_half.begin(), t_half.end());
  s.median_t_half = percentile(t_half, 0.50);
  return s;
}

}  // namespace hours::scenario
