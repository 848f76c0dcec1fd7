// The QueryBackend seam: the graph engine's invariants, the event engine's
// message-level semantics (silence-inferred liveness, scripted fault
// windows, simulated time), and the facade behavior both share — one clock,
// one bootstrap cache, one trace stream (docs/PROTOCOL.md §7).
#include <gtest/gtest.h>

#include <string>

#include "hours/hours.hpp"
#include "trace/event.hpp"
#include "trace/ring_buffer_sink.hpp"

namespace hours {
namespace {

/// Four zones of two hosts each — small enough that event-backend queries
/// settle in a handful of simulated round trips.
struct Fixture {
  HoursSystem sys;
  Fixture() {
    for (const char* zone : {"red", "green", "blue", "cyan"}) {
      sys.admit(zone);
      for (const char* host : {"a", "b"}) {
        sys.admit(std::string{host} + "." + zone);
      }
    }
  }
};

/// A short client deadline so a query against a dead destination settles
/// well inside any scheduled fault window instead of racing its repair.
EventBackendConfig tight_deadline_config() {
  EventBackendConfig config;
  config.client.deadline = 2'000;
  return config;
}

TEST(GraphBackend, IsTheDefaultEngine) {
  Fixture f;
  EXPECT_EQ(f.sys.backend().kind(), "graph");
  EXPECT_EQ(f.sys.event_backend(), nullptr);
  EXPECT_EQ(f.sys.now(), 0U);
  f.sys.advance(5);
  EXPECT_EQ(f.sys.now(), 5U);  // logical clock: moves only when advanced
  const auto r = f.sys.query("a.red");
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(f.sys.now(), 5U);  // graph queries are instantaneous
  EXPECT_EQ(r.latency_ticks, 0U);
  EXPECT_EQ(r.retransmissions, 0U);
}

TEST(GraphBackend, RejectsFaultPlans) {
  Fixture f;
  const auto scheduled =
      f.sys.schedule_faults(sim::FaultPlan{}.correlated_outage({1}, 1'000, 1'000));
  ASSERT_FALSE(scheduled.ok());
  EXPECT_EQ(scheduled.error().code, util::Error::Code::kInvalidArgument);
}

TEST(EventBackend, DeliversOnHealthyTreeAndCostsSimulatedTime) {
  Fixture f;
  f.sys.use_event_backend();
  EXPECT_EQ(f.sys.backend().kind(), "event");
  ASSERT_NE(f.sys.event_backend(), nullptr);

  const auto r = f.sys.query("a.red");
  ASSERT_TRUE(r.delivered);
  EXPECT_GT(r.hops, 0U);
  EXPECT_GT(r.latency_ticks, 0U);  // a routed query is never free in sim time
  EXPECT_FALSE(r.used_bootstrap_cache);

  const auto from = f.sys.query_from("red", "b.blue");
  EXPECT_TRUE(from.delivered);
}

TEST(EventBackend, AgreesWithGraphBackendOnHealthyTree) {
  // Same admitted tree, no faults: both engines must agree on reachability
  // for every admitted name (hop taxonomy legitimately differs).
  Fixture graph_f;
  Fixture event_f;
  event_f.sys.use_event_backend();
  for (const char* name : {"red", "green", "a.red", "b.green", "a.blue", "b.cyan"}) {
    EXPECT_TRUE(graph_f.sys.query(name).delivered) << name;
    EXPECT_TRUE(event_f.sys.query(name).delivered) << name;
  }
}

TEST(EventBackend, InfersDeathFromSilenceAndRecovers) {
  Fixture f;
  f.sys.use_event_backend(tight_deadline_config());

  ASSERT_TRUE(f.sys.query("a.red").delivered);

  // The oracle edge is mirrored into the simulator: the node goes silent,
  // so the in-network query fails (there is no liveness oracle to consult).
  ASSERT_TRUE(f.sys.set_alive("a.red", false).ok());
  EXPECT_FALSE(f.sys.query("a.red").delivered);
  EXPECT_TRUE(f.sys.query("b.red").delivered);  // sibling unaffected

  // Revival is not instant knowledge: suspicion entries planted by the
  // failed attempt must expire (suspicion_ttl) before queries flow again.
  ASSERT_TRUE(f.sys.set_alive("a.red", true).ok());
  f.sys.advance(10);  // 10s > suspicion_ttl (4s at 1000 ticks/s)
  EXPECT_TRUE(f.sys.query("a.red").delivered);
}

TEST(EventBackend, ScheduledFaultWindowOpensAndCloses) {
  Fixture f;
  auto& event = f.sys.use_event_backend(tight_deadline_config());
  const auto victim = event.node_id("a.green");
  ASSERT_TRUE(victim.has_value());

  // Outage window [5s, 15s) in simulator ticks, armed relative to now.
  const auto scheduled = f.sys.schedule_faults(
      sim::FaultPlan{}.correlated_outage({*victim}, 5'000, 10'000));
  ASSERT_TRUE(scheduled.ok());
  EXPECT_EQ(scheduled.value(), 1U);

  ASSERT_TRUE(f.sys.query("a.green").delivered);  // before the window
  f.sys.advance(8);
  EXPECT_GE(f.sys.now(), 8U);
  EXPECT_FALSE(f.sys.query("a.green").delivered);  // inside the window
  f.sys.advance(20);                               // past repair + suspicion expiry
  EXPECT_TRUE(f.sys.query("a.green").delivered);

  const auto faults = event.fault_stats();
  EXPECT_EQ(faults.kills, 1U);
  EXPECT_EQ(faults.revivals, 1U);
}

TEST(EventBackend, OverlappingPlansHoldANodeDownForTheirUnion) {
  // Two plans crash one node over overlapping windows, [1s, 10s) and
  // [2s, 4s). One injector arms both against the same refcounts, so the
  // node stays down until the longer window ends — the union, exactly as
  // two overlapping windows of one plan would hold it.
  Fixture f;
  auto& event = f.sys.use_event_backend();
  const auto victim = event.node_id("a.green");
  ASSERT_TRUE(victim.has_value());
  ASSERT_TRUE(f.sys.schedule_faults(sim::FaultPlan{}.crash(*victim, 1'000, 10'000)).ok());
  ASSERT_TRUE(f.sys.schedule_faults(sim::FaultPlan{}.crash(*victim, 2'000, 4'000)).ok());

  f.sys.advance(5);
  EXPECT_FALSE(event.simulation()->alive_id(*victim));
  EXPECT_EQ(event.fault_stats().kills, 1U);
  EXPECT_EQ(event.fault_stats().revivals, 0U);

  f.sys.advance(6);  // 11 s: past the longer window
  EXPECT_TRUE(event.simulation()->alive_id(*victim));
  EXPECT_EQ(event.fault_stats().revivals, 1U);
}

TEST(EventBackend, OverlappingPlansKeepALinkCutForTheirUnion) {
  // The link variant: both plans cut root <-> red, over [1s, 10s) and
  // [2s, 4s). One link filter serves both, so at 5 s the root's first
  // attempt at red still meets silence and the client retransmits; the
  // link reopens only when the longer cut lifts.
  Fixture f;
  auto& event = f.sys.use_event_backend();
  const auto red = event.node_id("red");
  ASSERT_TRUE(red.has_value());
  ASSERT_TRUE(f.sys.schedule_faults(sim::FaultPlan{}.cut_link(0, *red, 1'000, 10'000)).ok());
  ASSERT_TRUE(f.sys.schedule_faults(sim::FaultPlan{}.cut_link(0, *red, 2'000, 4'000)).ok());

  f.sys.advance(5);
  EXPECT_EQ(event.fault_stats().link_cuts, 2U);  // one per direction
  EXPECT_EQ(event.fault_stats().link_heals, 0U);
  EXPECT_GT(f.sys.query("red").retransmissions, 0U);

  f.sys.advance(20);  // past the longer cut and the suspicion it left
  EXPECT_EQ(event.fault_stats().link_heals, 2U);
  const auto healed = f.sys.query("red");
  EXPECT_TRUE(healed.delivered);
  EXPECT_EQ(healed.retransmissions, 0U);
}

TEST(EventBackend, ClockContinuesAcrossBackendSwaps) {
  Fixture f;
  f.sys.advance(7);  // graph logical clock
  f.sys.use_event_backend();
  EXPECT_EQ(f.sys.now(), 7U);  // swap does not rewind the timeline
  f.sys.advance(3);
  EXPECT_EQ(f.sys.now(), 10U);
  f.sys.use_graph_backend();
  EXPECT_EQ(f.sys.backend().kind(), "graph");
  EXPECT_EQ(f.sys.event_backend(), nullptr);
  EXPECT_EQ(f.sys.now(), 10U);
  EXPECT_TRUE(f.sys.query("a.red").delivered);
}

TEST(EventBackend, NameToNodeIdMappingCoversTheTree) {
  Fixture f;
  auto& event = f.sys.use_event_backend();
  // BFS from the root: the root is node 0; every admitted name maps to a
  // distinct id; unknown names map to nothing.
  const auto root = event.node_id(".");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(*root, 0U);
  const auto zone = event.node_id("red");
  const auto host = event.node_id("a.red");
  ASSERT_TRUE(zone.has_value());
  ASSERT_TRUE(host.has_value());
  EXPECT_NE(*zone, *host);
  EXPECT_FALSE(event.node_id("ghost.red").has_value());

  // The snapshot materialized 1 root + 4 zones + 8 hosts.
  ASSERT_NE(event.simulation(), nullptr);
  EXPECT_EQ(event.simulation()->node_count(), 13U);
}

TEST(EventBackend, MembershipChangeRebuildsWithoutRewindingClock) {
  Fixture f;
  auto& event = f.sys.use_event_backend();
  ASSERT_TRUE(f.sys.query("a.red").delivered);
  f.sys.advance(5);
  const auto before = f.sys.now();

  ASSERT_TRUE(f.sys.admit("c.red").ok());  // invalidates the snapshot
  EXPECT_GE(f.sys.now(), before);          // clock folded into the offset
  EXPECT_TRUE(event.node_id("c.red").has_value());
  EXPECT_TRUE(f.sys.query("c.red").delivered);
  EXPECT_EQ(event.simulation()->node_count(), 14U);
}

TEST(EventBackend, BootstrapCacheServesQueriesWhenRootIsDown) {
  Fixture f;
  f.sys.use_event_backend(tight_deadline_config());
  // Seed the client cache: a delivered query caches the destination and its
  // level-1 ancestor, exactly as on the graph backend.
  ASSERT_TRUE(f.sys.query("a.blue").delivered);
  ASSERT_FALSE(f.sys.bootstrap_cache().empty());

  ASSERT_TRUE(f.sys.set_alive(".", false).ok());
  const auto r = f.sys.query("b.blue");
  ASSERT_TRUE(r.delivered);
  EXPECT_TRUE(r.used_bootstrap_cache);
}

TEST(EventBackend, FacadeTraceEventsShareTheSimulatorTimelineAndSchema) {
  Fixture f;
  trace::Tracer tracer;
  trace::RingBufferSink sink;
  tracer.add_sink(&sink);
  f.sys.set_tracer(&tracer);

  f.sys.use_event_backend();
  f.sys.advance(2);
  ASSERT_TRUE(f.sys.query("a.red").delivered);
  ASSERT_TRUE(f.sys.query("b.cyan").delivered);

  const auto events = sink.events();
  ASSERT_FALSE(events.empty());
  std::uint64_t last_at = 0;
  bool saw_submit = false;
  bool saw_delivered = false;
  for (const auto& event : events) {
    std::string error;
    EXPECT_TRUE(trace::validate_event_line(trace::to_json_line(event), &error)) << error;
    EXPECT_GE(event.at, last_at);  // one monotone timeline, facade + protocol
    last_at = event.at;
    saw_submit |= event.type == trace::EventType::kQuerySubmit;
    saw_delivered |= event.type == trace::EventType::kQueryDelivered;
  }
  // Facade events are stamped in simulator ticks: the queries were submitted
  // after advance(2), i.e. at or after tick 2000.
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_delivered);
  EXPECT_GE(last_at, 2'000U);
}

}  // namespace
}  // namespace hours
