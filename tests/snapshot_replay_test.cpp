// Snapshot/restore with deterministic replay — the equivalence oracle.
//
// The bar these tests hold (and the fault-schedule fuzz harness re-checks
// across hundreds of seeds): a run that is saved at an arbitrary instant,
// restored into a freshly constructed simulation, and continued must be
// BYTE-IDENTICAL to the uninterrupted run — same final snapshot, same trace
// tail, same metrics. A snapshot that restores must re-save to exactly the
// bytes it was loaded from. And a corrupted snapshot (here: a tampered RNG
// stream, the classic "forgot to serialize" bug) must be caught by the
// oracle, not silently absorbed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hours/concurrent_resolver.hpp"
#include "hours/hours.hpp"
#include "liveness/liveness.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/adaptive_attacker.hpp"
#include "sim/fault_injector.hpp"
#include "sim/hierarchy_protocol.hpp"
#include "sim/query_client.hpp"
#include "sim/ring_protocol.hpp"
#include "sim/snapshotter.hpp"
#include "snapshot/event_kinds.hpp"
#include "snapshot/json.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/event.hpp"
#include "trace/ring_buffer_sink.hpp"
#include "trace/sink.hpp"
#include "util/hash.hpp"

namespace hours::sim {
namespace {

// ---------------------------------------------------------------------------
// JSON substrate

TEST(SnapshotJson, DumpParseRoundTrip) {
  using snapshot::Json;
  Json doc = Json::object();
  doc["zeta"] = Json(std::uint64_t{18446744073709551615ULL});
  doc["alpha"] = Json("text with \"quotes\" and \\ and \n control");
  Json arr = Json::array();
  arr.push(Json(std::uint64_t{0}));
  arr.push(Json("x"));
  Json nested = Json::object();
  nested["k"] = Json(std::uint64_t{7});
  arr.push(std::move(nested));
  doc["list"] = std::move(arr);

  const std::string text = doc.dump();
  Json parsed;
  std::string error;
  ASSERT_TRUE(parse_json(text, parsed, &error)) << error;
  EXPECT_EQ(parsed, doc);
  EXPECT_EQ(parsed.dump(), text);  // dump is a fixpoint: byte-deterministic
}

TEST(SnapshotJson, DoubleBitsRoundTripExactly) {
  for (const double v : {0.0, 0.1, 0.25, 1.0 / 3.0, 6.62607015e-34}) {
    EXPECT_EQ(snapshot::double_from_bits(snapshot::bits_from_double(v)), v);
  }
}

// ---------------------------------------------------------------------------
// FaultPlan describe()/parse() round trip

FaultPlan random_plan(std::uint64_t seed) {
  rng::Xoshiro256 g{seed};
  FaultPlan plan;
  const auto n = static_cast<std::uint32_t>(8 + g.below(8));
  if (g.bernoulli(0.6)) {
    plan.crash(static_cast<std::uint32_t>(g.below(n)), 100 + g.below(4000),
               g.bernoulli(0.3) ? 0 : 6000 + g.below(4000));
  }
  if (g.bernoulli(0.5)) {
    plan.flap(static_cast<std::uint32_t>(g.below(n)), 500 + g.below(1000), 200 + g.below(500),
              300 + g.below(700), static_cast<std::uint32_t>(1 + g.below(4)));
  }
  if (g.bernoulli(0.4)) {
    plan.correlated_outage({0, static_cast<std::uint32_t>(1 + g.below(n - 1))},
                           1000 + g.below(2000), 500 + g.below(2000),
                           static_cast<std::uint32_t>(1 + g.below(3)), g.below(1500));
  }
  if (g.bernoulli(0.4)) {
    plan.partition({{0, 1, 2}, {3, 4, static_cast<std::uint32_t>(5 + g.below(n - 5))}},
                   800 + g.below(1200), g.bernoulli(0.25) ? 0 : 4000 + g.below(4000));
  }
  if (g.bernoulli(0.5)) {
    const auto a = static_cast<std::uint32_t>(g.below(n));
    const auto b = static_cast<std::uint32_t>((a + 1 + g.below(n - 1)) % n);  // b != a
    plan.cut_link(a, b, 300 + g.below(900), g.bernoulli(0.3) ? 0 : 2000 + g.below(3000));
  }
  if (g.bernoulli(0.6)) {
    plan.loss_episode(0.01 + g.uniform() * 0.4, 100 + g.below(3000), 5000 + g.below(5000));
  }
  if (g.bernoulli(0.3)) {
    plan.byzantine(static_cast<std::uint32_t>(g.below(n)),
                   g.bernoulli(0.5) ? overlay::NodeBehavior::kDropper
                                    : overlay::NodeBehavior::kMisrouter,
                   400 + g.below(4000));
  }
  if (g.bernoulli(0.4)) {
    plan.random_churn(static_cast<std::uint32_t>(1 + g.below(6)), 1000, 9000,
                      600 + g.below(1000), g(), {0});
  }
  return plan;
}

TEST(FaultPlanRoundTrip, ParseInvertsDescribeAcrossRandomPlans) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const FaultPlan plan = random_plan(seed);
    std::string error;
    const auto reparsed = FaultPlan::parse(plan.describe(), &error);
    ASSERT_TRUE(reparsed.has_value()) << "seed " << seed << ": " << error << "\n"
                                      << plan.describe();
    EXPECT_TRUE(*reparsed == plan) << "seed " << seed << " round-trip mismatch:\n"
                                   << plan.describe() << "-- reparsed --\n"
                                   << reparsed->describe();
    // describe() itself must be a fixpoint through the round trip.
    EXPECT_EQ(reparsed->describe(), plan.describe());
  }
}

TEST(FaultPlanRoundTrip, ParseRejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("crash(", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::parse("launch_missiles(1, 2)\n", &error).has_value());
  EXPECT_FALSE(FaultPlan::parse("crash(1; 2)\n", &error).has_value());
  // Empty text is a valid (empty) plan.
  const auto empty = FaultPlan::parse("", &error);
  ASSERT_TRUE(empty.has_value()) << error;
  EXPECT_TRUE(*empty == FaultPlan{});
}

// ---------------------------------------------------------------------------
// Ring equivalence oracle

struct RingRun {
  RingSimConfig config;
  FaultPlan plan;
};

RingRun oracle_case(std::uint64_t seed) {
  RingRun r;
  r.config.size = 12;
  r.config.params.design = overlay::Design::kEnhanced;
  r.config.params.k = 3;
  r.config.params.q = 2;
  r.config.params.seed = seed * 31 + 7;
  r.config.seed = seed;
  r.config.probe_failure_threshold = 2;
  r.plan.crash(3, 2'000, 9'000);
  r.plan.cut_link(5, 6, 4'000, 12'000);
  r.plan.loss_episode(0.08, 6'000, 10'000);
  r.plan.flap(9, 3'000, 800, 1'200, 2);
  return r;
}

constexpr Ticks kOracleHorizon = 30'000;

/// Saved-state string at `run_to`, plus the final state string at the
/// horizon and the trace tail (events after `run_to`), for one continuous
/// run.
struct ContinuousResult {
  std::string at_pause;
  std::string final_state;
  std::vector<std::string> tail;
};

ContinuousResult run_continuous(const RingRun& r, Ticks pause) {
  RingSimulation ring{r.config};
  trace::Tracer tracer;
  trace::RingBufferSink events{65536};
  ring.set_tracer(&tracer);
  tracer.add_sink(&events);
  ring.start();
  FaultInjector injector{make_fault_target(ring), r.plan};
  injector.set_tracer(&tracer);
  injector.arm();
  Snapshotter snap{ring.simulator()};
  snap.add(ring);
  snap.add(injector);

  ContinuousResult out;
  ring.simulator().run(pause);
  EXPECT_EQ(snap.save_string(out.at_pause), "");
  ring.simulator().run(kOracleHorizon - pause);
  EXPECT_EQ(snap.save_string(out.final_state), "");
  for (const auto& event : events.events()) {
    if (event.at > pause) out.tail.push_back(trace::to_json_line(event));
  }
  return out;
}

/// Restores `saved` into freshly constructed objects and runs to the
/// horizon; returns the re-saved string right after restore, the final
/// state, and the post-restore trace stream.
struct RestoredResult {
  std::string error;  // non-empty = restore failed
  std::string resaved;
  std::string final_state;
  std::vector<std::string> tail;
};

RestoredResult run_restored(const RingRun& r, const std::string& saved) {
  RestoredResult out;
  snapshot::Json doc;
  if (!snapshot::parse_json(saved, doc, &out.error)) return out;

  RingSimulation ring{r.config};  // no start(): the snapshot carries the timers
  trace::Tracer tracer;
  trace::RingBufferSink events{65536};
  ring.set_tracer(&tracer);
  tracer.add_sink(&events);
  FaultInjector injector{make_fault_target(ring), r.plan};  // not armed
  injector.set_tracer(&tracer);
  Snapshotter snap{ring.simulator()};
  snap.add(ring);
  snap.add(injector);

  out.error = snap.restore(doc);
  if (!out.error.empty()) return out;
  out.error = snap.save_string(out.resaved);
  if (!out.error.empty()) return out;

  ring.simulator().run(kOracleHorizon - ring.simulator().now());
  out.error = snap.save_string(out.final_state);
  for (const auto& event : events.events()) out.tail.push_back(trace::to_json_line(event));
  return out;
}

TEST(SnapshotReplay, RestoredRunIsByteIdenticalToContinuousRun) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const RingRun r = oracle_case(seed);
    const Ticks pause = 1'000 + 1'771 * seed;  // straddles the fault windows
    const ContinuousResult continuous = run_continuous(r, pause);
    ASSERT_FALSE(continuous.at_pause.empty());

    const RestoredResult restored = run_restored(r, continuous.at_pause);
    ASSERT_EQ(restored.error, "") << "seed " << seed;
    // Restore -> immediate save reproduces the snapshot bytes.
    EXPECT_EQ(restored.resaved, continuous.at_pause) << "seed " << seed;
    // Continuing the restored run reaches the continuous run's exact final
    // state: ring tables, suspicion, RNG streams, metrics, event queue.
    EXPECT_EQ(restored.final_state, continuous.final_state) << "seed " << seed;
    // The trace streams agree event for event past the snapshot instant.
    EXPECT_EQ(restored.tail, continuous.tail) << "seed " << seed;
  }
}

TEST(SnapshotReplay, GossipLivenessRestoredRunIsByteIdentical) {
  // Same equivalence oracle with the gossip liveness plane armed: the pause
  // lands while the crash(3)-at-2'000 rumor is inside the digest horizon, so
  // the snapshot must carry mid-propagation state — since/source rows and
  // the gossip-mode config echo — and the restored run must keep spreading
  // the rumor exactly where the continuous run does.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    RingRun r = oracle_case(seed);
    r.config.liveness.mode = liveness::Mode::kGossip;
    const Ticks pause = 2'500 + 1'771 * seed;
    const ContinuousResult continuous = run_continuous(r, pause);
    ASSERT_FALSE(continuous.at_pause.empty());

    const RestoredResult restored = run_restored(r, continuous.at_pause);
    ASSERT_EQ(restored.error, "") << "seed " << seed;
    EXPECT_EQ(restored.resaved, continuous.at_pause) << "seed " << seed;
    EXPECT_EQ(restored.final_state, continuous.final_state) << "seed " << seed;
    EXPECT_EQ(restored.tail, continuous.tail) << "seed " << seed;
  }
}

TEST(SnapshotReplay, SaveIsStableAcrossIdenticalRuns) {
  const RingRun r = oracle_case(4);
  const ContinuousResult a = run_continuous(r, 5'000);
  const ContinuousResult b = run_continuous(r, 5'000);
  EXPECT_EQ(a.at_pause, b.at_pause);
  EXPECT_EQ(a.final_state, b.final_state);
}

TEST(SnapshotReplay, TamperedRngStreamIsCaughtByTheOracle) {
  const RingRun r = oracle_case(5);
  const ContinuousResult continuous = run_continuous(r, 7'000);

  // Inject the classic divergence bug: restore everything EXCEPT the
  // protocol RNG stream (simulated by corrupting the saved words). The
  // restore itself succeeds — the state is structurally valid — but the
  // continued run must not reproduce the continuous one, and the oracle's
  // byte comparison has to catch it.
  snapshot::Json doc;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(continuous.at_pause, doc, &error)) << error;
  snapshot::Json& rng = doc["sections"]["ring"]["rng"];
  ASSERT_TRUE(rng.is_array());
  rng.items()[0] = snapshot::Json(rng.items()[0].as_u64() ^ 0xDEADBEEFULL);
  const std::string tampered = doc.dump();
  ASSERT_NE(tampered, continuous.at_pause);

  const RestoredResult restored = run_restored(r, tampered);
  ASSERT_EQ(restored.error, "");  // structurally fine — that's the point
  EXPECT_NE(restored.final_state, continuous.final_state)
      << "a corrupted RNG stream went undetected: the equivalence oracle is blind";
}

TEST(SnapshotReplay, RestoreRejectsMismatchedConfiguration) {
  const RingRun r = oracle_case(6);
  const ContinuousResult continuous = run_continuous(r, 3'000);
  snapshot::Json doc;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(continuous.at_pause, doc, &error)) << error;

  RingRun other = r;
  other.config.size = 14;  // different ring: restore must refuse
  RingSimulation ring{other.config};
  FaultInjector injector{make_fault_target(ring), other.plan};
  Snapshotter snap{ring.simulator()};
  snap.add(ring);
  snap.add(injector);
  const std::string refused = snap.restore(doc);
  EXPECT_NE(refused, "");
}

TEST(SnapshotReplay, UnownedEventsBlockSaveWithIds) {
  // The query client, the adaptive attacker and the ring scenario runner
  // own kind blocks but no snapshot section: while any of their events is
  // queued, save refuses, naming each such event by id and kind.
  RingSimConfig config;
  RingSimulation ring{config};
  ring.start();
  QueryClientConfig client_config;
  client_config.deadline = 5'000;
  QueryClient client{make_query_network(ring), client_config};
  AdaptiveAttacker attacker{ring, AdaptiveAttackerConfig{}};
  Snapshotter snap{ring.simulator()};
  snap.add(ring);

  const std::uint64_t deadline_id = ring.simulator().next_id();
  client.submit(0, 8);  // queues the deadline, then the first advance
  const std::uint64_t strike_id = ring.simulator().next_id();
  attacker.on_event(trace::Event{.type = trace::EventType::kRecoveryAdopt, .node = 3, .peer = 2});
  const std::uint64_t sample_id =
      ring.simulator().schedule(7, snapshot::kScenarioSample, nullptr, 0);

  std::string out;
  const std::string error = snap.save_string(out);
  ASSERT_EQ(error.rfind("cannot snapshot: sim.events: ", 0), 0U) << error;
  for (const auto& [id, kind] : {std::pair{deadline_id, "client_deadline (1281)"},
                                 std::pair{deadline_id + 1, "client_advance (1280)"},
                                 std::pair{strike_id, "attacker_strike (1536)"},
                                 std::pair{sample_id, "scenario_sample (1792)"}}) {
    EXPECT_NE(error.find("event " + std::to_string(id) + " at tick "), std::string::npos)
        << error;
    EXPECT_NE(error.find("no participant owns event kind " + std::string(kind)),
              std::string::npos)
        << error;
  }
}

TEST(SnapshotReplay, RestoreWithoutTheInjectorNamesTheUnownedFaultAction) {
  // Saved mid-schedule, the queue still holds fault actions. Restored into
  // a ring with no injector registered, nothing owns their kind: restore
  // refuses with the first such event's id and kind instead of queueing an
  // event that has no runner.
  const RingRun r = oracle_case(8);
  const ContinuousResult continuous = run_continuous(r, 2'500);
  snapshot::Json doc;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(continuous.at_pause, doc, &error)) << error;
  std::string first_fault_id;
  for (const auto& row : doc["sections"]["sim"]["events"].items()) {
    if (row.items()[2].as_u64() == snapshot::kFaultAction) {
      first_fault_id = std::to_string(row.items()[1].as_u64());
      break;
    }
  }
  ASSERT_FALSE(first_fault_id.empty()) << "the pause must leave fault actions queued";

  RingSimulation ring{r.config};
  Snapshotter snap{ring.simulator()};
  snap.add(ring);
  const std::string refused = snap.restore(doc);
  EXPECT_NE(refused.find("no participant owns event kind fault_action"), std::string::npos)
      << refused;
  EXPECT_NE(refused.find("event " + first_fault_id + " "), std::string::npos) << refused;
}

TEST(SnapshotReplay, ClientHopInFlightBlocksSave) {
  // A QueryClient hop's continuations lie in the client's kind block. With
  // no deadline the client queues no event of its own while the hop is in
  // flight (its delivery and ack timeout are transport events); the save
  // is refused by the transport, which holds a pending continuation
  // outside the blocks of its section.
  HierarchySimConfig config;
  config.fanout = {3, 3};
  HierarchySimulation hierarchy{config};
  QueryClientConfig client_config;
  client_config.deadline = 0;
  QueryClient client{make_query_network(hierarchy), client_config};
  Snapshotter snap{hierarchy.simulator()};
  snap.add(hierarchy);

  const std::uint64_t qid = client.submit(0, hierarchy.id_of({1, 2}));
  hierarchy.simulator().run(/*limit=*/5);  // the first hop is sent, not yet delivered
  ASSERT_EQ(client.outcome(qid).status, QueryStatus::kPending);
  std::string out;
  const std::string error = snap.save_string(out);
  EXPECT_NE(error.find("hier: pending ack token"), std::string::npos) << error;
  EXPECT_NE(error.find("continuation client_hop_ack (1283) lies outside the event blocks of "
                       "section \"hier\""),
            std::string::npos)
      << error;
}

/// A mid-query hierarchy snapshot: in-flight messages and pending acks
/// whose timeouts continue in the hierarchy block.
std::string mid_query_hierarchy_snapshot(const HierarchySimConfig& config) {
  HierarchySimulation hierarchy{config};
  hierarchy.kill({1});
  (void)hierarchy.inject_query({1, 2});
  hierarchy.simulator().run(/*limit=*/300);
  Snapshotter snap{hierarchy.simulator()};
  snap.add(hierarchy);
  std::string saved;
  EXPECT_EQ(snap.save_string(saved), "");
  return saved;
}

HierarchySimConfig lossy_three_by_three() {
  HierarchySimConfig config;
  config.fanout = {3, 3};
  config.transport.loss_probability = 0.1;
  return config;
}

TEST(SnapshotReplay, RestoreRefusesAPendingContinuationOutsideItsSection) {
  // A hostile document rewrites a pending ack's timeout continuation to a
  // kind no block owner runs. Restore refuses it, naming the token, instead
  // of accepting a continuation that would abort the run when it fires.
  const HierarchySimConfig config = lossy_three_by_three();
  snapshot::Json doc;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(mid_query_hierarchy_snapshot(config), doc, &error)) << error;
  auto& pending = doc["sections"]["hier"]["transport"]["pending"].items();
  ASSERT_FALSE(pending.empty());
  // [token, timeout_event, ack kind 0, 0 ack words, timeout kind, ...]
  auto& entry = pending.front().items();
  ASSERT_EQ(entry[2].as_u64(), snapshot::kNoContinuation);
  ASSERT_EQ(entry[3].as_u64(), 0U);
  ASSERT_EQ(entry[4].as_u64(), snapshot::kHierAttemptTimeout);
  const std::string token = std::to_string(entry[0].as_u64());
  entry[4] = snapshot::Json(std::uint64_t{0x999});

  HierarchySimulation restored{config};
  Snapshotter snap{restored.simulator()};
  snap.add(restored);
  const std::string refused = snap.restore(doc);
  EXPECT_NE(refused.find("hier.transport: transport.pending ack token " + token +
                         ": continuation unregistered kind 2457 lies outside"),
            std::string::npos)
      << refused;
  // Had restore accepted it, the run would abort when the timeout fires.
  if (refused.empty()) restored.simulator().run(/*limit=*/0, 100'000);
}

TEST(SnapshotReplay, RestoreRefusesMalformedEventRows) {
  // Hostile documents queue a hier_query_start with no arguments under a
  // fresh id, or queue an event's id twice. Validation refuses each, by
  // its row or its id, instead of letting the restore or the restored run
  // abort.
  const HierarchySimConfig config = lossy_three_by_three();
  snapshot::Json saved;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(mid_query_hierarchy_snapshot(config), saved, &error))
      << error;
  const auto restore = [&config](const snapshot::Json& doc) {
    HierarchySimulation restored{config};
    Snapshotter snap{restored.simulator()};
    snap.add(restored);
    const std::string refused = snap.restore(doc);
    // Had restore accepted it, the run would abort when the event runs.
    if (refused.empty()) restored.simulator().run(/*limit=*/0, 100'000);
    return refused;
  };

  snapshot::Json short_row = saved;
  snapshot::Json& sim = short_row["sections"]["sim"];
  const std::uint64_t id = sim["next_id"].as_u64();
  sim["next_id"] = snapshot::Json(id + 1);
  snapshot::Json row = snapshot::Json::array();
  row.push(snapshot::Json(sim["now"].as_u64() + 1));
  row.push(snapshot::Json(id));
  row.push(snapshot::Json(std::uint64_t{snapshot::kHierQueryStart}));
  const std::string index = std::to_string(sim["events"].items().size());
  sim["events"].push(std::move(row));
  EXPECT_EQ(restore(short_row), "sim.events[" + index +
                                    "]: hier_query_start (768) needs at least 5 argument "
                                    "words, has 0");

  snapshot::Json twice = saved;
  auto& events = twice["sections"]["sim"]["events"];
  ASSERT_FALSE(events.items().empty());
  const std::string first_id = std::to_string(events.items().front().items()[1].as_u64());
  events.push(events.items().front());
  EXPECT_EQ(restore(twice), "sim.events: id " + first_id + " is queued twice");
}

TEST(SnapshotReplay, SnapshotFileRoundTripsThroughDisk) {
  const RingRun r = oracle_case(7);
  RingSimulation ring{r.config};
  ring.start();
  FaultInjector injector{make_fault_target(ring), r.plan};
  injector.arm();
  Snapshotter snap{ring.simulator()};
  snap.add(ring);
  snap.add(injector);
  ring.simulator().run(2'500);

  const std::string path = ::testing::TempDir() + "hours_ring_snapshot.json";
  ASSERT_EQ(snap.save_file(path), "");

  RingSimulation ring2{r.config};
  FaultInjector injector2{make_fault_target(ring2), r.plan};
  Snapshotter snap2{ring2.simulator()};
  snap2.add(ring2);
  snap2.add(injector2);
  ASSERT_EQ(snap2.restore_file(path), "");
  std::string resaved;
  ASSERT_EQ(snap2.save_string(resaved), "");
  std::string original;
  ASSERT_EQ(snap.save_string(original), "");
  EXPECT_EQ(resaved, original);
}

// ---------------------------------------------------------------------------
// Hierarchy engine: mid-query snapshot

TEST(SnapshotReplay, HierarchyMidQuerySnapshotReplaysIdentically) {
  HierarchySimConfig config;
  config.fanout = {3, 3};
  config.transport.loss_probability = 0.1;  // forces retries/suspicion traffic

  // Continuous run: two queries (the second against a killed on-path node),
  // paused MID-QUERY — in-flight messages, pending ack timers and all.
  HierarchySimulation a{config};
  a.kill({1});
  const auto qid_a = a.inject_query({1, 2});
  a.simulator().run(/*limit=*/300);  // partway into the query
  Snapshotter snap_a{a.simulator()};
  snap_a.add(a);
  std::string at_pause;
  ASSERT_EQ(snap_a.save_string(at_pause), "");
  a.simulator().run(/*limit=*/0, 100'000);  // drain
  std::string final_a;
  ASSERT_EQ(snap_a.save_string(final_a), "");

  // Restore into a fresh simulation and drain.
  HierarchySimulation b{config};
  Snapshotter snap_b{b.simulator()};
  snap_b.add(b);
  snapshot::Json doc;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(at_pause, doc, &error)) << error;
  ASSERT_EQ(snap_b.restore(doc), "");
  std::string resaved;
  ASSERT_EQ(snap_b.save_string(resaved), "");
  EXPECT_EQ(resaved, at_pause);

  b.simulator().run(/*limit=*/0, 100'000);
  std::string final_b;
  ASSERT_EQ(snap_b.save_string(final_b), "");
  EXPECT_EQ(final_b, final_a);
  EXPECT_EQ(b.query(qid_a).delivered, a.query(qid_a).delivered);
  EXPECT_EQ(b.query(qid_a).hops, a.query(qid_a).hops);
}

// ---------------------------------------------------------------------------
// Facade layer: HoursSystem::save/restore

TEST(SnapshotReplay, FacadeSaveRestoreRoundTrip) {
  HoursSystem original;
  ASSERT_TRUE(original.admit("ucla").ok());
  ASSERT_TRUE(original.admit("mit").ok());
  ASSERT_TRUE(original.admit("cs.ucla").ok());
  ASSERT_TRUE(original.admit("ee.ucla").ok());
  ASSERT_TRUE(original.admit("www.cs.ucla").ok());
  ASSERT_TRUE(original.add_record("www.cs.ucla", {"A", "10.0.0.7", 120}).ok());
  ASSERT_TRUE(original.set_alive("ee.ucla", false).ok());
  ASSERT_TRUE(original.strike("mit", attack::Strategy::kRandom, 0).ok());
  original.cache_bootstrap("mit");
  original.advance(42);
  (void)original.query("www.cs.ucla");

  const std::string path = ::testing::TempDir() + "hours_system_snapshot.json";
  ASSERT_EQ(original.save(path), "");

  HoursSystem restored;
  ASSERT_EQ(restored.restore(path), "");

  // The restored system re-saves to the identical document.
  snapshot::Json doc_a;
  snapshot::Json doc_b;
  ASSERT_EQ(original.save_json(doc_a), "");
  ASSERT_EQ(restored.save_json(doc_b), "");
  EXPECT_EQ(doc_a.dump(), doc_b.dump());

  // Behavioral spot checks: same clock, same membership semantics, the
  // record is reachable, the attack is liftable.
  EXPECT_EQ(restored.now(), original.now());
  const auto lookup = restored.lookup("www.cs.ucla");
  EXPECT_TRUE(lookup.query.delivered);
  ASSERT_EQ(lookup.records.size(), 1U);
  EXPECT_EQ(lookup.records[0].value, "10.0.0.7");
  EXPECT_TRUE(restored.lift_attack("mit").ok());
}

TEST(SnapshotReplay, FacadeSnapshotBytesArePinned) {
  // save() lists members in admission pre-order, and a strike plans its
  // victims in ring (identifier) order. Siblings admitted out of identifier
  // order, a mesh parent, a removal, records, a strike and a query pin both
  // orders: the hash is of the document an unindexed linear-scan hierarchy
  // wrote, so no lookup index may leak into either order.
  HoursSystem system;
  const std::vector<std::string> zones{"ucla", "mit", "cmu", "stanford", "berkeley"};
  for (const auto& zone : zones) ASSERT_TRUE(system.admit(zone).ok());
  for (const char* host : {"www", "mail", "ns1", "ns2", "ftp", "db", "vpn", "git"}) {
    ASSERT_TRUE(system.admit(std::string{host} + ".ucla").ok());
    ASSERT_TRUE(system.admit(std::string{host} + ".mit").ok());
  }
  ASSERT_TRUE(system.admit("lab.www.ucla").ok());
  std::vector<std::uint32_t> zone_indices;
  for (const auto& zone : zones) {
    const auto path = system.hierarchy().resolve(naming::Name::parse(zone).value());
    ASSERT_TRUE(path.ok());
    zone_indices.push_back(path.value().back());
  }
  ASSERT_FALSE(std::is_sorted(zone_indices.begin(), zone_indices.end()));

  ASSERT_TRUE(system.hierarchy()
                  .admit_secondary(naming::Name::parse("www.ucla").value(),
                                   naming::Name::parse("mit").value())
                  .ok());
  ASSERT_TRUE(system.remove("ns2.ucla").ok());
  ASSERT_TRUE(system.add_record("www.ucla", {"A", "10.0.0.1", 300}).ok());
  ASSERT_TRUE(system.add_record("mail.mit", {"MX", "10.0.0.2", 60}).ok());
  ASSERT_TRUE(system.strike("ftp.mit", attack::Strategy::kNeighbor, 3).ok());
  (void)system.query("lab.www.ucla");

  const std::string path = ::testing::TempDir() + "pinned_system_snapshot.json";
  ASSERT_EQ(system.save(path), "");
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), {}};
  EXPECT_EQ(util::fnv1a(bytes), 0x06714e31fd95c3e3ULL) << bytes;
}

TEST(SnapshotReplay, FacadeRestoreRequiresFreshSystem) {
  HoursSystem original;
  ASSERT_TRUE(original.admit("ucla").ok());
  snapshot::Json doc;
  ASSERT_EQ(original.save_json(doc), "");

  HoursSystem busy;
  ASSERT_TRUE(busy.admit("mit").ok());
  EXPECT_NE(busy.restore_json(doc), "");

  HoursConfig other_config;
  other_config.overlay.k = 7;
  HoursSystem mismatched{other_config};
  EXPECT_NE(mismatched.restore_json(doc), "");
}

TEST(SnapshotReplay, FacadeEventBackendSurvivesRestore) {
  HoursSystem original;
  ASSERT_TRUE(original.admit("ucla").ok());
  ASSERT_TRUE(original.admit("cs.ucla").ok());
  ASSERT_TRUE(original.admit("www.cs.ucla").ok());
  auto& backend = original.use_event_backend();
  FaultPlan plan;
  plan.crash(1, 1'000, 5'000);
  ASSERT_TRUE(original.schedule_faults(std::move(plan)).ok());
  (void)original.query("www.cs.ucla");
  original.advance(30);

  snapshot::Json doc;
  ASSERT_EQ(original.save_json(doc), "");

  HoursSystem restored;
  ASSERT_EQ(restored.restore_json(doc), "");
  ASSERT_NE(restored.event_backend(), nullptr);
  EXPECT_EQ(restored.now(), original.now());
  EXPECT_EQ(restored.event_backend()->config().seed, backend.config().seed);
  ASSERT_EQ(restored.event_backend()->plans().size(), 1U);
  EXPECT_EQ(restored.event_backend()->plans()[0].describe(),
            original.event_backend()->plans()[0].describe());
  const auto result = restored.query("www.cs.ucla");
  EXPECT_TRUE(result.delivered);
}

TEST(SnapshotReplay, ResolverCacheRoundTrips) {
  HoursSystem system;
  ASSERT_TRUE(system.admit("ucla").ok());
  ASSERT_TRUE(system.admit("cs.ucla").ok());
  ASSERT_TRUE(system.admit("ai.ucla").ok());
  ASSERT_TRUE(system.add_record("cs.ucla", {"A", "10.1.1.1", 600}).ok());
  ASSERT_TRUE(system.add_record("ai.ucla", {"TXT", "lab", 300}).ok());

  ConcurrentResolver original{system, 16, /*shard_count=*/1};
  (void)original.resolve("cs.ucla", system.now());  // miss -> fills the cache
  (void)original.resolve("cs.ucla", system.now());  // hit
  (void)original.resolve("nosuch.ucla", system.now());
  system.advance(7);
  (void)original.resolve("ai.ucla", system.now());  // a second row, sorting first
  // The hash is of the document the std::map-backed cache wrote for this
  // trace: rows in name order, whatever the bucket order.
  EXPECT_EQ(util::fnv1a(original.to_json().dump()), 0x55ede73e11e2619cULL)
      << original.to_json().dump();

  ConcurrentResolver restored{system, 4, /*shard_count=*/1};
  ASSERT_EQ(restored.from_json(original.to_json()), "");
  EXPECT_EQ(restored.cached_names(), original.cached_names());
  EXPECT_EQ(restored.stats().cache_hits, original.stats().cache_hits);
  EXPECT_EQ(restored.stats().failures, original.stats().failures);
  EXPECT_EQ(restored.to_json().dump(), original.to_json().dump());
  std::vector<store::Record> peeked;
  ASSERT_TRUE(restored.peek("cs.ucla", system.now(), &peeked));
  ASSERT_EQ(peeked.size(), 1U);
  EXPECT_EQ(peeked[0].value, "10.1.1.1");

  // Eight shards restore the same document and save the same bytes.
  ConcurrentResolver sharded{system, 64};
  ASSERT_EQ(sharded.from_json(original.to_json()), "");
  EXPECT_EQ(sharded.shard_count(), 8U);
  EXPECT_EQ(sharded.to_json().dump(), original.to_json().dump());
  EXPECT_TRUE(sharded.resolve("ai.ucla", system.now()).from_cache);
}

TEST(SnapshotReplay, ResolverRestoreRejectsHostileDocuments) {
  // Documents no resolver could have saved are refused whole: the resolver
  // answers and saves exactly as before each attempt.
  HoursSystem system;
  ASSERT_TRUE(system.admit("ucla").ok());
  ASSERT_TRUE(system.admit("cs.ucla").ok());
  ASSERT_TRUE(system.add_record("cs.ucla", {"A", "10.1.1.1", 600}).ok());
  ConcurrentResolver resolver{system, 4, /*shard_count=*/2};
  (void)resolver.resolve("cs.ucla", system.now());
  const std::string saved = resolver.to_json().dump();

  const auto document = [&](std::uint64_t capacity, const std::vector<std::string>& names) {
    snapshot::Json doc = resolver.to_json();
    doc["capacity"] = snapshot::Json(capacity);
    snapshot::Json cache = snapshot::Json::array();
    for (const auto& name : names) {
      snapshot::Json row = snapshot::Json::array();
      row.push(snapshot::Json(name));
      row.push(snapshot::Json(std::uint64_t{900}));
      row.push(snapshot::Json::array());
      cache.push(std::move(row));
    }
    doc["cache"] = std::move(cache);
    return doc;
  };
  const std::vector<std::pair<snapshot::Json, std::string>> hostile{
      {document(0, {}), "resolver.capacity must be >= 1"},
      {document(8, {"x.ucla", "x.ucla"}), "resolver.cache repeats a name"},
      // One name per shard, so three names overfill one of the two.
      {document(2, {"a.ucla", "b.ucla", "c.ucla"}), "resolver.cache overfills a shard"},
  };
  for (const auto& [doc, error] : hostile) {
    EXPECT_EQ(resolver.from_json(doc), error) << doc.dump();
    EXPECT_EQ(resolver.to_json().dump(), saved);
    std::vector<store::Record> answer;
    ASSERT_TRUE(resolver.peek("cs.ucla", system.now(), &answer));
    ASSERT_EQ(answer.size(), 1U);
    EXPECT_EQ(answer[0].value, "10.1.1.1");
  }
  EXPECT_TRUE(resolver.resolve("cs.ucla", system.now()).from_cache);
  EXPECT_EQ(resolver.cached_names(), 1U);
}

TEST(SnapshotReplay, FacadeEventBackendKeepsGossipAcrossRestore) {
  // A gossip-mode event backend comes back in gossip mode, with its digest
  // settings, and re-saves to the same document.
  HoursSystem original;
  ASSERT_TRUE(original.admit("ucla").ok());
  EventBackendConfig config;
  config.liveness.mode = liveness::Mode::kGossip;
  config.liveness.digest_budget = 5;
  config.liveness.digest_horizon = 7'000;
  (void)original.use_event_backend(config);
  snapshot::Json doc;
  ASSERT_EQ(original.save_json(doc), "");

  HoursSystem restored;
  ASSERT_EQ(restored.restore_json(doc), "");
  ASSERT_NE(restored.event_backend(), nullptr);
  const liveness::Config& liveness = restored.event_backend()->config().liveness;
  EXPECT_EQ(liveness.mode, liveness::Mode::kGossip);
  EXPECT_EQ(liveness.digest_budget, 5U);
  EXPECT_EQ(liveness.digest_horizon, 7'000U);
  snapshot::Json resaved;
  ASSERT_EQ(restored.save_json(resaved), "");
  EXPECT_EQ(resaved.dump(), doc.dump());
}

TEST(SnapshotReplay, FacadeRestoreRefusesATransportConfigTheTransportRejects) {
  // An ack timeout inside two latencies would abort the event backend's
  // transport on the first query; restore refuses it instead.
  HoursSystem original;
  ASSERT_TRUE(original.admit("ucla").ok());
  (void)original.use_event_backend();
  snapshot::Json doc;
  ASSERT_EQ(original.save_json(doc), "");
  doc["sections"]["system"]["backend"]["config"]["transport"]["ack_timeout"] =
      snapshot::Json(std::uint64_t{1});

  HoursSystem restored;
  EXPECT_EQ(restored.restore_json(doc),
            "system.backend.config.transport is not a configuration a transport accepts");
}

// ---------------------------------------------------------------------------
// Hostile documents: a located error, never an abort

/// Calls `leaf(section)` with each leaf under `node` switched to the other
/// type (u64 <-> string), and `drop()` with the last item of each array
/// dropped, undoing each change before the next. A snapshot document's
/// sections lie under "sections"; `section` names the one `node` is in.
void mutate_each(snapshot::Json& node, int depth, const std::string& section,
                 const std::function<void(const std::string&)>& leaf,
                 const std::function<void()>& drop) {
  if (node.is_object()) {
    for (auto& [key, child] : node.fields()) {
      mutate_each(child, depth + 1, depth == 1 ? key : section, leaf, drop);
    }
  } else if (node.is_array()) {
    auto& items = node.items();
    for (auto& child : items) mutate_each(child, depth + 1, section, leaf, drop);
    if (items.empty()) return;
    snapshot::Json last = std::move(items.back());
    items.pop_back();
    drop();
    items.push_back(std::move(last));
  } else {
    const snapshot::Json saved = node;
    node = node.is_u64() ? snapshot::Json("x") : snapshot::Json(std::uint64_t{7});
    leaf(section);
    node = saved;
  }
}

/// Every leaf switched to the other type gets a non-empty error that starts
/// with its section's name; every array short of its last item restores or
/// fails, without aborting. Returns the number of documents tried.
std::size_t expect_located_errors(snapshot::Json doc, const std::string& root,
                                  const std::function<std::string(const snapshot::Json&)>& restore) {
  std::size_t tried = 0;
  mutate_each(
      doc, 0, root,
      [&](const std::string& section) {
        ++tried;
        const std::string error = restore(doc);
        EXPECT_EQ(error.rfind(section, 0), 0U) << "error \"" << error << "\" for " << doc.dump();
      },
      [&] {
        ++tried;
        (void)restore(doc);
      });
  return tried;
}

TEST(SnapshotReplay, HostileDocumentsGetALocatedErrorNeverAnAbort) {
  // The validate_snapshot --demo document: a ring mid-way through a crash
  // and a loss episode.
  RingSimConfig ring_config;
  ring_config.size = 12;
  ring_config.probe_failure_threshold = 2;
  FaultPlan plan;
  plan.crash(3, 1'500, 6'000);
  plan.loss_episode(0.05, 2'000, 5'000);
  snapshot::Json ring_doc;
  {
    RingSimulation ring{ring_config};
    ring.start();
    FaultInjector injector{make_fault_target(ring), plan};
    injector.arm();
    Snapshotter snap{ring.simulator()};
    snap.add(ring);
    snap.add(injector);
    ring.simulator().run(2'500);
    ASSERT_EQ(snap.save(ring_doc), "");
  }
  EXPECT_GT(expect_located_errors(ring_doc, "snapshot",
                                  [&](const snapshot::Json& doc) {
                                    RingSimulation ring{ring_config};
                                    FaultInjector injector{make_fault_target(ring), plan};
                                    Snapshotter snap{ring.simulator()};
                                    snap.add(ring);
                                    snap.add(injector);
                                    return snap.restore(doc);
                                  }),
            0U);

  const HierarchySimConfig hier_config = lossy_three_by_three();
  snapshot::Json hier_doc;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(mid_query_hierarchy_snapshot(hier_config), hier_doc, &error))
      << error;
  EXPECT_GT(expect_located_errors(hier_doc, "snapshot",
                                  [&](const snapshot::Json& doc) {
                                    HierarchySimulation hierarchy{hier_config};
                                    Snapshotter snap{hierarchy.simulator()};
                                    snap.add(hierarchy);
                                    return snap.restore(doc);
                                  }),
            0U);

  // A facade on the event backend, with a fault plan and a query behind it.
  HoursSystem system;
  for (const char* name : {"ucla", "cs.ucla", "www.cs.ucla"}) ASSERT_TRUE(system.admit(name).ok());
  ASSERT_TRUE(system.add_record("www.cs.ucla", {"A", "10.0.0.7", 120}).ok());
  (void)system.use_event_backend();
  FaultPlan facade_plan;
  facade_plan.crash(1, 1'000, 5'000);
  ASSERT_TRUE(system.schedule_faults(std::move(facade_plan)).ok());
  (void)system.query("www.cs.ucla");
  system.advance(30);
  snapshot::Json facade_doc;
  ASSERT_EQ(system.save_json(facade_doc), "");
  EXPECT_GT(expect_located_errors(facade_doc, "snapshot",
                                  [](const snapshot::Json& doc) {
                                    return HoursSystem{}.restore_json(doc);
                                  }),
            0U);

  ConcurrentResolver resolver{system, 16, /*shard_count=*/1};
  (void)resolver.resolve("www.cs.ucla", system.now());
  (void)resolver.resolve("nosuch.ucla", system.now());
  EXPECT_GT(expect_located_errors(resolver.to_json(), "resolver",
                                  [&](const snapshot::Json& doc) {
                                    return ConcurrentResolver{system, 4, 1}.from_json(doc);
                                  }),
            0U);
}

}  // namespace
}  // namespace hours::sim
