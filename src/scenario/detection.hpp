// Suspicion-latency accounting for the gossip detection study (DESIGN.md
// §11), fed live from a run's event stream.
//
// DetectionSink is an in-memory trace::TraceSink, a consumer in the same
// way sim::AdaptiveAttacker is. Every fault_kill opens a death episode for
// its victim; the episode closes at the victim's fault_revive, or is
// censored at the horizon. For every (episode, observer) pair it records
// the delay from the kill to that observer's first suspect or
// liveness_gossip_suspect event naming the victim. Suspicion of a node
// with no open episode is counted as false. Digest traffic
// (liveness_digest_sent / liveness_digest_applied) is tallied alongside.
//
// summarize() reduces one run to the report's detection fields: the pooled
// latency percentiles over observed pairs, the fraction of pairs that never
// learned, and the median per-episode time until half the surviving ring
// suspected the victim (t_half; a censored episode counts at its full
// duration).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "metrics/json_writer.hpp"
#include "trace/sink.hpp"

namespace hours::scenario {

struct DetectionSummary {
  std::uint64_t episodes = 0;
  std::uint64_t pairs_possible = 0;  ///< sum of alive observers over episodes
  std::uint64_t pairs_observed = 0;  ///< pairs whose observer learned in time
  double never_fraction = 1.0;
  std::uint64_t latency_p50 = 0;  ///< pooled over observed pairs
  std::uint64_t latency_p90 = 0;
  std::uint64_t latency_p99 = 0;
  std::uint64_t median_t_half = 0;      ///< the headline detection latency
  std::uint64_t censored_episodes = 0;  ///< t_half hit the episode end
  std::uint64_t false_suspicions = 0;   ///< suspicion of a node that was up
  std::uint64_t digests_sent = 0;
  std::uint64_t digest_entries = 0;
  std::uint64_t max_digest_entries = 0;
  std::uint64_t gossip_adoptions = 0;

  /// Writes the fourteen fields as one JSON object value.
  void render(metrics::JsonWriter& json) const;
};

class DetectionSink final : public trace::TraceSink {
 public:
  explicit DetectionSink(std::uint32_t ring_size) : ring_size_(ring_size) {}

  void on_event(const trace::Event& event) override;

  /// The run's summary, with episodes still open censored at `horizon`.
  [[nodiscard]] DetectionSummary summarize(std::uint64_t horizon) const;

 private:
  struct Episode {
    std::uint64_t kill_at = 0;
    std::uint64_t end_at = 0;              ///< revival (closed episodes only)
    std::uint32_t alive_observers = 0;     ///< ring size minus nodes down at the kill
    std::map<std::uint32_t, std::uint64_t> first_seen;  ///< observer -> latency
  };

  std::uint32_t ring_size_;
  std::uint32_t dead_ = 0;
  std::vector<Episode> closed_;
  std::map<std::uint32_t, Episode> open_;  ///< victim -> in-progress episode
  DetectionSummary counts_;                ///< the event tallies only
};

}  // namespace hours::scenario
