// Figure 7: average forwarding path length vs overlay size, 500 to
// 2,000,000 nodes — the scalability of the randomized overlay.
//
// Two engines measure the same curve:
//
//   * graph mode — overlay::Overlay::forward() on lazily regenerated
//     tables, the original instantaneous measurement;
//   * event mode — a sim::HierarchySimulation ring of N siblings driven at
//     message level: every hop is a scheduled transport delivery with an
//     ack/timeout, liveness is learned from silence, and the slab-backed
//     event queue is what makes the 1M-node point feasible. The event rows
//     also reproduce the Figure 4 delivery shape by killing a fraction of
//     the ring and measuring delivered ratio among attempts to alive
//     destinations. Each event point runs 5 times on fresh simulations;
//     the outcome must repeat exactly, and events/sec and wall time are the
//     median run's (a single run at --quick lasts about 10 ms, too short to
//     read a rate from).
//
// Paper reference: base design grows ~ ln N; the enhanced design grows
// sub-logarithmically. The report is emitted both as the paper-shaped table
// (+ CSV) and as a metrics::JsonWriter document with events/sec and peak
// RSS, the numbers the scale-smoke CI job tracks.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "metrics/json_writer.hpp"
#include "metrics/table_writer.hpp"
#include "overlay/overlay.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "util/contracts.hpp"

namespace {

using namespace hours;

double mean_path_length(std::uint32_t n, const overlay::OverlayParams& params,
                        std::uint64_t queries) {
  const auto storage =
      n <= 50'000 ? overlay::TableStorage::kEager : overlay::TableStorage::kLazy;
  const overlay::Overlay ov{n, params, storage};
  rng::Xoshiro256 rng{0xF16'7ULL};
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < queries; ++i) {
    const auto from = static_cast<ids::RingIndex>(rng.below(n));
    const auto to = static_cast<ids::RingIndex>(rng.below(n));
    total += ov.forward(from, to).hops;
  }
  return static_cast<double>(total) / static_cast<double>(queries);
}

/// One message-level measurement over a single-overlay hierarchy (root +
/// N children): sibling-to-sibling queries ride Algorithm 3 through the
/// event transport. `dead_fraction` > 0 reproduces the Figure 4 regime.
struct EventModeResult {
  std::uint64_t queries = 0;
  std::uint64_t delivered = 0;
  double mean_hops = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  double wall_ms = 0.0;
};

EventModeResult event_mode_run(std::uint32_t n, const overlay::OverlayParams& params,
                               std::uint64_t queries, double dead_fraction) {
  sim::TreeTopology topology;
  topology.child_counts.assign(n + 1, 0);
  topology.child_counts[0] = n;

  sim::HierarchySimConfig config;
  config.params = params;
  config.seed = 0xF16'7E5ULL;
  sim::HierarchySimulation sim{config, topology};

  rng::Xoshiro256 rng{0xF16'7E5ULL};
  std::vector<std::uint8_t> dead(n + 1, 0);
  if (dead_fraction > 0.0) {
    const auto target = static_cast<std::uint64_t>(dead_fraction * n);
    std::uint64_t killed = 0;
    while (killed < target) {
      const auto id = static_cast<std::uint32_t>(1 + rng.below(n));
      if (dead[id] != 0) continue;
      dead[id] = 1;
      sim.kill_id(id);
      ++killed;
    }
  }

  EventModeResult result;
  result.queries = queries;
  std::uint64_t total_hops = 0;
  const auto started = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < queries; ++i) {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    do {
      from = static_cast<std::uint32_t>(1 + rng.below(n));
    } while (dead[from] != 0);
    do {
      to = static_cast<std::uint32_t>(1 + rng.below(n));
    } while (to == from || dead[to] != 0);

    const std::uint64_t qid =
        sim.inject_query(hierarchy::NodePath{to - 1}, hierarchy::NodePath{from - 1});
    result.events += sim.simulator().run();
    // A silent event cap would corrupt the delivery curve — fail loudly.
    HOURS_ASSERT(!sim.simulator().truncated());
    const auto& outcome = sim.query(qid);
    HOURS_ASSERT(outcome.done);
    if (outcome.delivered) {
      ++result.delivered;
      total_hops += outcome.hops;
    }
  }
  const auto elapsed = std::chrono::duration<double>(
      std::chrono::steady_clock::now() - started);
  result.wall_ms = elapsed.count() * 1e3;
  result.events_per_sec =
      elapsed.count() > 0.0 ? static_cast<double>(result.events) / elapsed.count() : 0.0;
  result.mean_hops = result.delivered > 0
                         ? static_cast<double>(total_hops) / static_cast<double>(result.delivered)
                         : 0.0;
  return result;
}

/// event_mode_run on `kEventRuns` fresh simulations: the outcome (events,
/// deliveries, hops) must repeat exactly; the timing is the median run's.
constexpr int kEventRuns = 5;

EventModeResult event_mode_median(std::uint32_t n, const overlay::OverlayParams& params,
                                  std::uint64_t queries, double dead_fraction) {
  std::vector<EventModeResult> runs;
  for (int r = 0; r < kEventRuns; ++r) {
    runs.push_back(event_mode_run(n, params, queries, dead_fraction));
    HOURS_ASSERT(runs.back().events == runs.front().events &&
                 runs.back().delivered == runs.front().delivered &&
                 runs.back().mean_hops == runs.front().mean_hops);
  }
  // Equal event counts make the median wall time the median rate too.
  std::sort(runs.begin(), runs.end(), [](const EventModeResult& a, const EventModeResult& b) {
    return a.wall_ms < b.wall_ms;
  });
  return runs[kEventRuns / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using hours::metrics::JsonWriter;
  using hours::metrics::TableWriter;
  const bool quick = hours::bench::quick_mode(argc, argv);

  std::vector<std::uint32_t> sizes{500, 2'000, 10'000, 50'000, 200'000, 1'000'000, 2'000'000};
  if (quick) sizes = {500, 2'000, 10'000, 50'000};
  // Message-level points: every hop costs scheduled events, so the grid is
  // sparser, but the top point stays >= 1M nodes (acceptance bar).
  std::vector<std::uint32_t> event_sizes{10'000, 100'000, 1'000'000};
  if (quick) event_sizes = {2'000, 10'000};

  hours::overlay::OverlayParams base;
  base.design = hours::overlay::Design::kBase;
  hours::overlay::OverlayParams enhanced;
  enhanced.design = hours::overlay::Design::kEnhanced;
  enhanced.k = 5;

  JsonWriter json;
  json.begin_object();
  json.field("bench", "fig7_scalability");
  json.field("quick", quick);

  TableWriter table{{"N", "base_mean_hops", "enhanced_mean_hops", "ln(N)"}};
  json.key("graph").begin_array();
  for (const auto n : sizes) {
    // Fewer queries at giant sizes: per-query cost includes lazy table
    // regeneration at every hop.
    const std::uint64_t queries =
        hours::bench::scaled(n >= 1'000'000 ? 5'000 : 20'000, 2'000, quick);
    const double b = mean_path_length(n, base, queries);
    const double e = mean_path_length(n, enhanced, queries);
    table.add_row({TableWriter::fmt(std::uint64_t{n}), TableWriter::fmt(b, 2),
                   TableWriter::fmt(e, 2), TableWriter::fmt(std::log(n), 2)});
    json.begin_object();
    json.field("n", n);
    json.field("queries", queries);
    json.field("base_mean_hops", b, 2);
    json.field("enhanced_mean_hops", e, 2);
    json.field("ln_n", std::log(n), 2);
    json.end_object();
    std::printf("  [fig7] N=%u done (base %.2f, enhanced %.2f)\n", n, b, e);
  }
  json.end_array();

  TableWriter event_table{{"N", "event_mean_hops", "events/sec", "delivered@f=0.10"}};
  json.key("event").begin_array();
  for (const auto n : event_sizes) {
    const std::uint64_t queries = hours::bench::scaled(n >= 1'000'000 ? 2'000 : 5'000, 500, quick);
    const auto healthy = event_mode_median(n, enhanced, queries, /*dead_fraction=*/0.0);
    const auto attacked = event_mode_median(n, enhanced, queries, /*dead_fraction=*/0.10);
    const double delivered_ratio =
        static_cast<double>(attacked.delivered) / static_cast<double>(attacked.queries);
    event_table.add_row({TableWriter::fmt(std::uint64_t{n}),
                         TableWriter::fmt(healthy.mean_hops, 2),
                         TableWriter::fmt(healthy.events_per_sec, 0),
                         TableWriter::fmt(delivered_ratio, 4)});
    json.begin_object();
    json.field("n", n);
    json.field("queries", queries);
    json.field("mean_hops", healthy.mean_hops, 2);
    json.field("events", healthy.events);
    json.field("events_per_sec", healthy.events_per_sec, 0);
    json.field("wall_ms", healthy.wall_ms, 1);
    json.field("dead_fraction", 0.10, 2);
    json.field("delivered_ratio", delivered_ratio, 4);
    json.field("attacked_events_per_sec", attacked.events_per_sec, 0);
    json.end_object();
    std::printf("  [fig7] event N=%u done (hops %.2f, %.0f events/sec, delivered %.4f)\n", n,
                healthy.mean_hops, healthy.events_per_sec, delivered_ratio);
  }
  json.end_array();

  json.field("peak_rss_bytes", hours::bench::peak_rss_bytes());
  json.end_object();

  table.print("Figure 7 — scalability of overlay forwarding (graph engine)");
  event_table.print("Figure 7 — message-level overlay forwarding (event engine)");
  table.write_csv(hours::bench::csv_path("fig7_scalability"));
  hours::bench::emit_json_report("fig7_scalability", json.str());
  std::printf("\nPaper reference: base ~ ln N; enhanced sub-logarithmic.\n");
  return 0;
}
