// event_strike_1m: paper-scale queries through the message-level engine.
// 1,010,101 nodes admitted through HoursSystem, neighbour strikes on one
// level-1 and three level-2 zones, a whole-run 2% loss episode, then a fixed
// number of Zipf-ranked leaf queries via HoursSystem::query with advance(1)
// every 50. See perfbench/README.md.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "hours/hours.hpp"
#include "ids/identifier.hpp"
#include "rng/splitmix64.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kFanout = 100;  // per level, three levels
constexpr std::uint32_t kStrikeSiblings = 10;
constexpr double kLoss = 0.02;
/// A fixed query count, not a fixed time, keeps a seed's outcomes identical;
/// 35k per second of --seconds fills the run at the slow-mode rate of a
/// 4-vCPU VM (about 35k queries/s).
constexpr std::uint64_t kQueriesPerSecondOfRun = 35'000;
constexpr std::uint64_t kAdvanceEvery = 50;
constexpr double kZipf = 0.9;

struct StrikeState {
  std::unique_ptr<hours::HoursSystem> sys;
  std::vector<std::string> leaves;
  std::vector<std::uint32_t> rank_to_leaf;
  std::uint64_t admitted = 0;
  double admit_s = 0.0;
  double mirror_s = 0.0;
  std::string struck;
  std::string setup_errors;
};

std::string label(char prefix, std::uint32_t i) { return prefix + std::to_string(i); }

std::unique_ptr<StrikeState> set_up(std::uint64_t seed) {
  auto state = std::make_unique<StrikeState>();
  state->sys = std::make_unique<hours::HoursSystem>();
  auto& sys = *state->sys;

  // Level by level, short label chains ("c3.b17.a4"), as scale_smoke does.
  const auto admit_start = now_ns();
  bool ok = true;
  for (std::uint32_t a = 0; a < kFanout; ++a) {
    ok &= sys.admit(label('a', a)).ok();
  }
  for (std::uint32_t a = 0; a < kFanout; ++a) {
    for (std::uint32_t b = 0; b < kFanout; ++b) {
      ok &= sys.admit(label('b', b) + "." + label('a', a)).ok();
    }
  }
  state->leaves.reserve(static_cast<std::size_t>(kFanout) * kFanout * kFanout);
  for (std::uint32_t a = 0; a < kFanout; ++a) {
    for (std::uint32_t b = 0; b < kFanout; ++b) {
      const std::string parent = label('b', b) + "." + label('a', a);
      for (std::uint32_t c = 0; c < kFanout; ++c) {
        std::string leaf = label('c', c) + "." + parent;
        ok &= sys.admit(leaf).ok();
        state->leaves.push_back(std::move(leaf));
      }
    }
  }
  state->admitted =
      kFanout + static_cast<std::uint64_t>(kFanout) * kFanout + state->leaves.size();
  state->admit_s = seconds_between(admit_start, now_ns());
  if (!ok) state->setup_errors += "admission failed; ";

  // One level-1 and three distinct level-2 neighbour strikes.
  hours::rng::Xoshiro256 rng{hours::rng::mix64(seed, 2)};
  std::vector<std::string> targets{label('a', static_cast<std::uint32_t>(rng.below(kFanout)))};
  while (targets.size() < 4) {
    std::string t = label('b', static_cast<std::uint32_t>(rng.below(kFanout))) + "." +
                    label('a', static_cast<std::uint32_t>(rng.below(kFanout)));
    if (std::find(targets.begin(), targets.end(), t) == targets.end()) targets.push_back(t);
  }
  for (const auto& t : targets) {
    if (!sys.strike(t, hours::attack::Strategy::kNeighbor, kStrikeSiblings).ok()) {
      state->setup_errors += "strike on " + t + " failed; ";
    }
    state->struck += t + " ";
  }

  auto& backend = sys.use_event_backend();
  hours::sim::FaultPlan plan;
  plan.loss_episode(kLoss, 0, 1'000'000'000'000ULL);
  if (!sys.schedule_faults(std::move(plan)).ok()) state->setup_errors += "loss episode; ";
  const auto mirror_start = now_ns();
  if (!backend.node_id(state->leaves.front()).has_value()) state->setup_errors += "mirror; ";
  state->mirror_s = seconds_between(mirror_start, now_ns());
  state->rank_to_leaf = seeded_permutation(state->leaves.size(), seed, 1);
  return state;
}

}  // namespace

int run_event_strike(const Options& options) {
  Report report{options};
  const auto state = timed_set_ups(report, [&] { return set_up(options.seed); });
  report.gate("setup", state->setup_errors.empty(), state->setup_errors);

  auto& sys = *state->sys;
  auto& backend = *sys.event_backend();
  auto& hsim = *backend.simulation();
  auto& simulator = hsim.simulator();
  auto& client = *backend.client();

  CountingSink sink;
  hours::trace::Tracer tracer;
  SpanLog spans(2, options.traced);  // slot 0: calls, slot 1: the phase
  const auto span_query = spans.name_id("query");
  const auto span_advance = spans.name_id("advance");
  const auto span_phase = spans.name_id("timed_phase");
  if (options.traced) {
    tracer.add_sink(&sink);
    sys.set_tracer(&tracer);
  }

  const std::uint64_t queries = kQueriesPerSecondOfRun * options.seconds;
  const std::uint64_t windows = kWindowsPerSecond * options.seconds;
  const std::uint64_t per_window = (queries + windows - 1) / windows;
  hours::workload::ZipfSampler zipf{state->leaves.size(), kZipf,
                                    hours::rng::mix64(options.seed, 100)};
  WindowedTimings timings(windows);
  LatencyHistogram sim_latency;
  std::uint64_t delivered = 0;
  std::uint64_t hops = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t failovers = 0;
  std::uint64_t latency_hash = 0xcbf29ce484222325ULL;
  std::size_t pending_max = 0;
  bool truncated = false;
  const auto events_before = simulator.executed_total();
  const auto messages_before = hsim.messages_sent();
  const auto client_before = client.stats();
  const std::uint32_t phase_id = (1U << 24) | 1U;  // slot 1's first span

  const auto start = now_ns();
  auto window_start = start;
  for (std::uint64_t i = 0; i < queries; ++i) {
    if (i > 0 && i % kAdvanceEvery == 0) {
      const auto a0 = now_ns();
      sys.advance(1);
      if (options.traced) spans.add(0, span_advance, phase_id, i, a0, now_ns());
      truncated |= simulator.truncated();
    }
    const auto& leaf = state->leaves[state->rank_to_leaf[zipf.next()]];
    const auto t0 = now_ns();
    const auto result = sys.query(leaf);
    const auto t1 = now_ns();
    const std::size_t w = i / per_window;
    timings.hist[w].record(static_cast<std::uint64_t>(t1 - t0));
    ++timings.ops[w];
    if (options.traced) spans.add(0, span_query, phase_id, i, t0, t1);
    pending_max = std::max(pending_max, simulator.pending());
    hops += result.hops;
    retransmissions += result.retransmissions;
    failovers += result.failovers;
    if (result.delivered) {
      ++delivered;
      sim_latency.record(result.latency_ticks);
    }
    latency_hash = (latency_hash ^ (result.delivered ? result.latency_ticks + 1 : 0)) *
                   0x100000001b3ULL;
    if ((i + 1) % per_window == 0 || i + 1 == queries) {
      const auto now = now_ns();
      timings.wall_s[w] = seconds_between(window_start, now);
      window_start = now;
    }
  }
  const auto end = now_ns();
  spans.add(1, span_phase, 0, 0, start, end);
  sys.set_tracer(nullptr);
  const double wall_s = seconds_between(start, end);
  const auto events = simulator.executed_total() - events_before;

  // An undelivered query is an outcome under attack, measured by
  // delivered_share; an op fails only when it returns no outcome.
  report.set_ops(queries, 0);
  report_op_timings(report, timings);
  report.metric("delivered_share",
                static_cast<double>(delivered) / static_cast<double>(queries), "ratio",
                queries);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // HoursSystem::query single-steps the simulator (run(0, 1)), which sets
  // truncated() whenever anything else stays queued; the capped runs are
  // the advance() calls, so that is where a silent cap would show.
  report.gate("simulator_not_truncated", !truncated,
              "Simulator::truncated() after every advance(1)");
  report.gate("queries_delivered", delivered > 0,
              std::to_string(delivered) + " of " + std::to_string(queries) + " delivered");
  const auto lat = summarize(sim_latency);
  report.note("sim latency of delivered queries: p50 " + std::to_string(lat.p50) +
              " ticks, p99 " +
              (lat.p99 ? std::to_string(*lat.p99) : std::string{"omitted"}) + " ticks over " +
              std::to_string(lat.samples) + " queries; struck " + state->struck);
  report.set_fingerprint("delivered=" + std::to_string(delivered) +
                         ",latency_hash=" + std::to_string(latency_hash) +
                         ",sim_p50=" + std::to_string(lat.p50) +
                         ",sim_p99=" + (lat.p99 ? std::to_string(*lat.p99) : "-"));

  if (!options.traced) return report.finish();

  // -- per-layer: counters over the timed phase ----------------------------------------
  report.metric("sim.latency_p50_ticks", lat.p50, "ticks", lat.samples);
  if (lat.p99) report.metric("sim.latency_p99_ticks", *lat.p99, "ticks", lat.samples);
  report.metric("sim.events", static_cast<double>(events), "count");
  report.metric("sim.events_per_op", static_cast<double>(events) / static_cast<double>(queries),
                "events/op", queries);
  report.metric("sim.event_ns", wall_s * 1e9 / static_cast<double>(events), "ns", events,
                "traced timed wall / events");
  report.metric("sim.pending_max", static_cast<double>(pending_max), "count");
  report.metric("sim.messages", static_cast<double>(hsim.messages_sent() - messages_before),
                "count");
  report_sink_counts(report, sink);
  const auto client_after = client.stats();
  report.metric(
      "sim.client.retransmissions",
      static_cast<double>(client_after.retransmissions - client_before.retransmissions),
      "count");
  report.metric("sim.client.failovers",
                static_cast<double>(client_after.failovers - client_before.failovers), "count");
  report.metric("sim.client.deadline_exceeded",
                static_cast<double>(client_after.deadline_exceeded -
                                    client_before.deadline_exceeded),
                "count");
  report.metric("sim.client.no_route",
                static_cast<double>(client_after.no_route - client_before.no_route), "count");
  report.metric("sim.client.useful_share",
                static_cast<double>(hops) /
                    static_cast<double>(hops + retransmissions + failovers),
                "ratio", queries, "hops / (hops + retransmissions + failovers)");
  report.metric("sim.hop_timeouts",
                static_cast<double>(hsim.registry().counter_value("hier.hop_timeouts")),
                "count");
  report.metric("liveness.rows", static_cast<double>(hsim.liveness().size()), "count", 0,
                "the simulation's view; the client's own view is private");
  if (sink.count(hours::trace::EventType::kHierHop) == 0) {
    report.note("client-driven hops emit no hop-kind trace events; sim.hops.* read 0");
  }
  report.metric("hours.admit_us", state->admit_s * 1e6 / static_cast<double>(state->admitted),
                "us", state->admitted, "admission loop of the kept set-up");
  report.metric("hours.mirror_build_s", state->mirror_s, "s", 1,
                "first EventBackend::node_id of the kept set-up");

  // -- per-layer: inner calls timed on this run's state and inputs ---------------------
  std::vector<std::uint32_t> sample(20'000);
  hours::workload::ZipfSampler sample_zipf{state->leaves.size(), kZipf,
                                           hours::rng::mix64(options.seed, 99)};
  for (auto& s : sample) s = state->rank_to_leaf[sample_zipf.next()];
  const double parse_ns = ns_per_call(sample.size(), [&](std::size_t i) {
    keep(hours::naming::Name::parse(state->leaves[sample[i]]).ok());
  });
  report.metric("naming.parse_ns", parse_ns, "ns", sample.size());
  report.metric("crypto.sha1_ns", ns_per_call(sample.size(), [&](std::size_t i) {
                  keep(hours::ids::Identifier::from_name(state->leaves[sample[i]]).top64());
                }),
                "ns", sample.size());
  std::vector<hours::naming::Name> parsed;
  for (std::size_t i = 0; i < 2000; ++i) {
    parsed.push_back(hours::naming::Name::parse(state->leaves[sample[i]]).value());
  }
  report.metric("hierarchy.resolve_paths_us", ns_per_call(parsed.size(), [&](std::size_t i) {
                  keep(sys.hierarchy().resolve_paths(parsed[i]).size());
                }) / 1e3,
                "us", parsed.size());

  // Candidate lists from the root toward sampled leaves, on the final
  // suspicion state.
  std::vector<hours::hierarchy::NodePath> dests;
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto id = backend.node_id(state->leaves[sample[i]]);
    if (id) dests.push_back(hsim.path_of(*id));
  }
  const double candidates_ns = ns_per_call(dests.size(), [&](std::size_t i) {
    bool backward = false;
    keep(hsim.route_candidates(0, dests[i], backward).size());
  });
  report.metric("sim.route_candidates_ns", candidates_ns, "ns", dests.size(),
                "HierarchySimulation::route_candidates from the root");

  // Client-driven queries keep their suspicion in the client's own view
  // (the simulation's stays empty); QueryClient::suspected is its filter.
  hours::rng::Xoshiro256 pick{hours::rng::mix64(options.seed, 4)};
  std::vector<std::uint32_t> peers(2000);
  for (auto& p : peers) p = static_cast<std::uint32_t>(pick.below(hsim.node_count()));
  const double suspected_ns = ns_per_call(peers.size(), [&](std::size_t i) {
    keep(client.suspected(peers[i]));
  });
  report.metric("liveness.is_suspected_ns", suspected_ns, "ns", peers.size(),
                "QueryClient::suspected on the final client view");

  auto& root_overlay = sys.hierarchy().overlay_of({});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  while (pairs.size() < 2000) {
    const auto from = static_cast<std::uint32_t>(pick.below(root_overlay.size()));
    const auto od = static_cast<std::uint32_t>(pick.below(root_overlay.size()));
    if (root_overlay.alive(from)) pairs.emplace_back(from, od);
  }
  report.metric("overlay.forward_ns", ns_per_call(pairs.size(), [&](std::size_t i) {
                  keep(root_overlay.forward(pairs[i].first, pairs[i].second).hops);
                }),
                "ns", pairs.size(), "Overlay::forward on the struck level-1 ring");
  report_table_builds(report, options.seed);
  const double wheel = wheel_ns(pending_max, options.seed);
  report.metric("sim.wheel_ns", wheel, "ns", 100'000,
                "schedule + one-event run at depth sim.pending_max");

  Reconciliation rec;
  rec.wall_s = wall_s;
  rec.add("sim.wheel (events)", wheel / 1e9, static_cast<double>(events));
  rec.add("naming.parse (queries)", parse_ns / 1e9, static_cast<double>(queries));
  rec.unavailable("sim.route_candidates", candidates_ns / 1e9);
  rec.unavailable("liveness.is_suspected", suspected_ns / 1e9);
  rec.unavailable("overlay.table_build_100 (lazy)",
                  report.value("overlay.table_build_us_100") / 1e6);
  rec.report(report);
  spans.print_summary();
  return report.finish();
}

}  // namespace perfbench
