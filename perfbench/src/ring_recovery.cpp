// ring_recovery: sim::RingSimulation of 10,000 siblings (enhanced, k=5)
// with gossip liveness; a contiguous block of 500 dies after three probe
// periods while QueryClient queries between random alive nodes arrive
// open-loop every 2 ticks; then ten quiet probe periods, after which the ring
// must be connected again. See perfbench/README.md.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "rng/splitmix64.hpp"
#include "sim/query_client.hpp"
#include "sim/ring_protocol.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kRingSize = 10'000;
constexpr std::uint32_t kBlock = 500;
constexpr hours::sim::Ticks kProbePeriod = 1'000;
constexpr hours::sim::Ticks kKillAt = 3 * kProbePeriod;
constexpr hours::sim::Ticks kSubmitEvery = 2;
constexpr std::uint32_t kQuietPeriods = 10;
/// Untimed probe periods run after a failed gate, so the report says how many
/// quiet periods active recovery needed after all.
constexpr std::uint32_t kMaxQuietPeriods = 100;
constexpr hours::sim::Ticks kDeadline = 8'000;
/// Query-phase ticks per second of --seconds.
constexpr hours::sim::Ticks kQueryTicksPerSecond = 2'000;

struct RingState {
  std::unique_ptr<hours::sim::RingSimulation> ring;
  std::unique_ptr<hours::sim::QueryClient> client;
};

/// The program's configuration; table, transport and client seeds keep
/// their library defaults; --seed drives only the inputs.
std::unique_ptr<RingState> set_up() {
  hours::sim::RingSimConfig config;
  config.size = kRingSize;
  config.params.design = hours::overlay::Design::kEnhanced;
  config.params.k = 5;
  config.probe_period = kProbePeriod;
  config.liveness.mode = hours::liveness::Mode::kGossip;
  auto state = std::make_unique<RingState>();
  state->ring = std::make_unique<hours::sim::RingSimulation>(config);
  state->ring->start();
  hours::sim::QueryClientConfig client;
  client.deadline = kDeadline;
  state->client = std::make_unique<hours::sim::QueryClient>(
      hours::sim::make_query_network(*state->ring), client);
  return state;
}

}  // namespace

int run_ring_recovery(const Options& options) {
  Report report{options};
  const auto state = timed_set_ups(report, [] { return set_up(); });
  auto& ring = *state->ring;
  auto& client = *state->client;
  auto& simulator = ring.simulator();

  CountingSink sink;
  hours::trace::Tracer tracer;
  SpanLog spans(2, options.traced);  // slot 0: calls, slot 1: the phase
  const auto span_step = spans.name_id("submit_and_step");
  const auto span_quiet = spans.name_id("quiet_period");
  const auto span_phase = spans.name_id("timed_phase");
  const std::uint32_t phase_id = (1U << 24) | 1U;
  if (options.traced) {
    tracer.add_sink(&sink);
    ring.set_tracer(&tracer);
    client.set_tracer(&tracer);
  }

  // The killed block is the same every run: recovery cost swings up to 2x
  // with the block's position in the table structure, which would swamp a
  // code change. The seed drives the query pairs.
  hours::rng::Xoshiro256 rng{hours::rng::mix64(options.seed, 9)};
  const std::uint32_t block_start = 0;
  const hours::sim::Ticks query_ticks = kQueryTicksPerSecond * options.seconds;
  const std::uint64_t steps = query_ticks / kSubmitEvery;
  const std::uint64_t windows = kWindowsPerSecond * options.seconds;
  const std::uint64_t per_window = (steps + windows - 1) / windows;
  const auto pick_alive = [&] {
    for (;;) {
      const auto i = static_cast<std::uint32_t>(rng.below(kRingSize));
      if (ring.alive(i)) return i;
    }
  };

  WindowedTimings timings(windows);
  std::vector<std::uint64_t> qids;
  qids.reserve(steps);
  bool truncated = false;
  bool killed = false;
  std::size_t pending_max = 0;
  const auto events_before = simulator.executed_total();
  const auto start = now_ns();
  auto window_start = start;
  for (std::uint64_t s = 0; s < steps; ++s) {
    if (!killed && simulator.now() >= kKillAt) {
      for (std::uint32_t k = 0; k < kBlock; ++k) ring.kill((block_start + k) % kRingSize);
      killed = true;
    }
    const auto src = pick_alive();
    auto dst = pick_alive();
    while (dst == src) dst = pick_alive();
    const auto t0 = now_ns();
    qids.push_back(client.submit(src, dst));
    simulator.run(kSubmitEvery);
    const auto t1 = now_ns();
    truncated |= simulator.truncated();
    pending_max = std::max(pending_max, simulator.pending());
    const std::size_t w = s / per_window;
    timings.hist[w].record(static_cast<std::uint64_t>(t1 - t0));
    ++timings.ops[w];
    if (options.traced) spans.add(0, span_step, phase_id, s, t0, t1);
    if ((s + 1) % per_window == 0 || s + 1 == steps) {
      timings.wall_s[w] = seconds_between(window_start, t1);
      window_start = t1;
    }
  }
  if (!killed) {  // runs shorter than three probe periods strike in the quiet phase
    simulator.run(kKillAt - simulator.now());
    for (std::uint32_t k = 0; k < kBlock; ++k) ring.kill((block_start + k) % kRingSize);
  }
  const auto quiet_start = now_ns();
  for (std::uint32_t p = 1; p <= kQuietPeriods; ++p) {
    const auto q0 = now_ns();
    simulator.run(kProbePeriod);
    truncated |= simulator.truncated();
    pending_max = std::max(pending_max, simulator.pending());
    if (options.traced) spans.add(0, span_quiet, phase_id, p, q0, now_ns());
  }
  const auto end = now_ns();
  const bool connected = ring.ring_connected();
  spans.add(1, span_phase, 0, 0, start, end);
  ring.set_tracer(nullptr);
  client.set_tracer(nullptr);
  const double wall_s = seconds_between(start, end);
  const auto events = simulator.executed_total() - events_before;
  // Counters as the timed phase left them.
  const auto& registry = ring.registry();
  const std::uint64_t probes = ring.probes_sent();
  const std::uint64_t repairs = ring.repairs_sent();
  const std::uint64_t claims = ring.claims_sent();
  const std::uint64_t rows = ring.liveness().size();
  const std::uint64_t digests = registry.counter_value("ring.liveness_digests_sent");
  const std::uint64_t digest_entries =
      registry.counter_value("ring.liveness_digest_entries_sent");
  const std::uint64_t adopted = registry.counter_value("ring.liveness_gossip_adopted");

  // Outside the timed phase: when the gate fails, keep probing until active
  // recovery closes the gap, so the report says how far it was off.
  std::uint32_t periods_to_connect = connected ? kQuietPeriods : 0;  // 0 = never
  for (std::uint32_t p = kQuietPeriods + 1; periods_to_connect == 0 && p <= kMaxQuietPeriods;
       ++p) {
    simulator.run(kProbePeriod);
    truncated |= simulator.truncated();
    if (ring.ring_connected()) periods_to_connect = p;
  }

  LatencyHistogram sim_latency;
  std::uint64_t delivered = 0;
  std::uint64_t unsettled = 0;
  std::uint64_t hops = 0;
  std::uint64_t latency_hash = 0xcbf29ce484222325ULL;
  for (const auto qid : qids) {
    const auto& out = client.outcome(qid);
    if (out.status == hours::sim::QueryStatus::kPending) ++unsettled;
    const bool ok = out.status == hours::sim::QueryStatus::kDelivered;
    if (ok) {
      ++delivered;
      sim_latency.record(out.latency());
    }
    hops += out.hops;
    latency_hash = (latency_hash ^ (ok ? out.latency() + 1 : 0)) * 0x100000001b3ULL;
  }
  const std::uint64_t queries = qids.size();

  report.set_ops(queries, unsettled);  // undelivered: see delivered_share
  report_op_timings(report, timings);
  // The op is a query including the probing it rides on, so the rate
  // covers the whole timed phase, quiet periods too.
  report.metric("ops_per_s", static_cast<double>(queries) / wall_s, "1/s", queries,
                "queries / whole timed wall (query phase " +
                    std::to_string(seconds_between(start, quiet_start)) + " s + quiet " +
                    std::to_string(seconds_between(quiet_start, end)) + " s)");
  report.metric("delivered_share",
                static_cast<double>(delivered) / static_cast<double>(queries), "ratio",
                queries);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.gate("simulator_not_truncated", !truncated, "Simulator::truncated() after every run");
  report.gate("ring_connected_after_quiet_periods", connected,
              "ring_connected() after the " + std::to_string(kQuietPeriods) +
                  " quiet probe periods" +
                  (connected ? std::string{}
                   : periods_to_connect == 0
                       ? "; still disconnected after " + std::to_string(kMaxQuietPeriods)
                       : "; connected only after " + std::to_string(periods_to_connect)));
  report.gate("queries_settled", unsettled == 0,
              std::to_string(unsettled) + " queries still pending after the quiet periods");
  const auto lat = summarize(sim_latency);
  report.note("op = client.submit + one 2-tick simulator step; block " +
              std::to_string(block_start) + "+" + std::to_string(kBlock) + " killed at tick " +
              std::to_string(kKillAt) + "; sim latency p50 " + std::to_string(lat.p50) +
              " ticks, p99 " + (lat.p99 ? std::to_string(*lat.p99) : std::string{"omitted"}) +
              " over " + std::to_string(lat.samples));
  report.set_fingerprint("delivered=" + std::to_string(delivered) +
                         ",latency_hash=" + std::to_string(latency_hash) +
                         ",sim_p50=" + std::to_string(lat.p50) +
                         ",sim_p99=" + (lat.p99 ? std::to_string(*lat.p99) : "-") +
                         ",periods_to_connect=" + std::to_string(periods_to_connect));

  if (!options.traced) return report.finish();

  // -- per-layer: counters over the timed phase ------------------------------------------
  report.metric("sim.latency_p50_ticks", lat.p50, "ticks", lat.samples);
  if (lat.p99) report.metric("sim.latency_p99_ticks", *lat.p99, "ticks", lat.samples);
  report.metric("sim.events", static_cast<double>(events), "count");
  report.metric("sim.events_per_op", static_cast<double>(events) / static_cast<double>(queries),
                "events/op", queries, "probing included");
  report.metric("sim.event_ns", wall_s * 1e9 / static_cast<double>(events), "ns", events,
                "traced timed wall / events");
  report.metric("sim.pending_max", static_cast<double>(pending_max), "count");
  report.idle("sim.messages", "count", "RingSimulation exposes no message count");
  report_sink_counts(report, sink);
  const auto stats = client.stats();
  report.metric("sim.client.retransmissions", static_cast<double>(stats.retransmissions),
                "count");
  report.metric("sim.client.failovers", static_cast<double>(stats.failovers), "count");
  report.metric("sim.client.deadline_exceeded", static_cast<double>(stats.deadline_exceeded),
                "count");
  report.metric("sim.client.no_route", static_cast<double>(stats.no_route), "count");
  report.metric("sim.client.useful_share",
                static_cast<double>(hops) /
                    static_cast<double>(hops + stats.retransmissions + stats.failovers),
                "ratio", queries, "hops / (hops + retransmissions + failovers)");
  report.metric("sim.ring.probes_sent", static_cast<double>(probes), "count");
  report.metric("sim.ring.repairs_sent", static_cast<double>(repairs), "count");
  report.metric("sim.ring.claims_sent", static_cast<double>(claims), "count");
  using hours::trace::EventType;
  report.metric("sim.ring.recovery_start",
                static_cast<double>(sink.count(EventType::kRecoveryStart)), "count");
  report.metric("sim.ring.recovery_adopt",
                static_cast<double>(sink.count(EventType::kRecoveryAdopt)), "count");
  report.metric("sim.ring.quiet_periods_to_connect", static_cast<double>(periods_to_connect),
                "count", 1,
                "first quiet period, from the 10th on, after which ring_connected() holds "
                "(0 = not within " +
                    std::to_string(kMaxQuietPeriods) + ")");
  report.metric("sim.ring.recovery_complete",
                static_cast<double>(sink.count(EventType::kRecoveryComplete)), "count");
  report.metric("liveness.rows", static_cast<double>(rows), "count");
  report.metric("liveness.digests_sent", static_cast<double>(digests), "count");
  report.metric("liveness.digest_entries_sent", static_cast<double>(digest_entries), "count");
  report.metric("liveness.gossip_adopted", static_cast<double>(adopted), "count");

  // -- per-layer: inner calls timed on this run's final state ----------------------------
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  while (pairs.size() < 5000) {
    const auto a = pick_alive();
    const auto b = pick_alive();
    if (a != b) pairs.emplace_back(a, b);
  }
  const double candidates_ns = ns_per_call(pairs.size(), [&](std::size_t i) {
    bool backward = false;
    keep(ring.route_candidates(pairs[i].first, pairs[i].second, backward).size());
  });
  report.metric("sim.route_candidates_ns", candidates_ns, "ns", pairs.size(),
                "RingSimulation::route_candidates between alive nodes");
  const auto now = simulator.now();
  const auto& view = ring.liveness();
  const double digest_ns = ns_per_call(pairs.size(), [&](std::size_t i) {
    keep(view.build_digest(pairs[i].first, now).size());
  });
  report.metric("liveness.build_digest_ns", digest_ns, "ns", pairs.size(),
                "LivenessView::build_digest on the final view");
  const double suspected_ns = ns_per_call(pairs.size(), [&](std::size_t i) {
    keep(view.is_suspected(pairs[i].first, (block_start + static_cast<std::uint32_t>(i)) %
                                               kRingSize, now));
  });
  report.metric("liveness.is_suspected_ns", suspected_ns, "ns", pairs.size(),
                "LivenessView::is_suspected on the final view");
  auto scratch = view;  // adopt() mutates; time it on a copy of the final view
  const double adopt_ns = ns_per_call(
      pairs.size(),
      [&](std::size_t i) {
        keep(scratch.adopt(pairs[i].first, (block_start + static_cast<std::uint32_t>(i)) %
                                               kRingSize, now, now));
      },
      1);
  report.metric("liveness.adopt_ns", adopt_ns, "ns", pairs.size(),
                "LivenessView::adopt into a copy of the final view");
  report_table_builds(report, options.seed);
  const double wheel = wheel_ns(pending_max, options.seed);
  report.metric("sim.wheel_ns", wheel, "ns", 100'000,
                "schedule + one-event run at depth sim.pending_max");

  Reconciliation rec;
  rec.wall_s = wall_s;
  rec.add("sim.wheel (events)", wheel / 1e9, static_cast<double>(events));
  rec.unavailable("sim.route_candidates", candidates_ns / 1e9);
  rec.unavailable("liveness.build_digest (per frame)", digest_ns / 1e9);
  rec.unavailable("liveness.adopt (per digest entry)", adopt_ns / 1e9);
  rec.report(report);
  spans.print_summary();
  return report.finish();
}

}  // namespace perfbench
