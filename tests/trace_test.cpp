// Tests for the src/trace subsystem: event taxonomy round-trips, the JSONL
// wire format against golden strings (with the validator as the other side
// of the contract), ring-buffer wrap and subscriber dispatch, and registry
// determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/jsonl_sink.hpp"
#include "trace/registry.hpp"
#include "trace/ring_buffer_sink.hpp"
#include "trace/sink.hpp"

namespace {

using namespace hours::trace;

// -- taxonomy ----------------------------------------------------------------

TEST(EventTaxonomy, NamesRoundTripForEveryType) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto type = static_cast<EventType>(i);
    const std::string_view name = event_type_name(type);
    EXPECT_NE(name, "unknown") << "type index " << i;
    EventType parsed{};
    ASSERT_TRUE(event_type_from_name(name, parsed)) << name;
    EXPECT_EQ(parsed, type) << name;
  }
}

TEST(EventTaxonomy, UnknownNamesRejected) {
  EventType out{};
  EXPECT_FALSE(event_type_from_name("", out));
  EXPECT_FALSE(event_type_from_name("not_an_event", out));
  EXPECT_FALSE(event_type_from_name("Probe_Sent", out));  // case-sensitive
}

// -- JSONL wire format (golden) ----------------------------------------------

TEST(EventJson, GoldenLineAllFieldsSet) {
  const Event e{.at = 1234,
                .type = EventType::kRecoveryAdopt,
                .node = 7,
                .peer = 9,
                .level = 2,
                .causal = 42,
                .value = 3};
  EXPECT_EQ(to_json_line(e),
            R"({"at":1234,"type":"recovery_adopt","node":7,"peer":9,"level":2,"causal":42,"value":3})");
}

TEST(EventJson, GoldenLineDefaultsSerializeNulls) {
  // Default event: node/peer are kNoNode -> null, level -1.
  EXPECT_EQ(to_json_line(Event{}),
            R"({"at":0,"type":"hier_hop","node":null,"peer":null,"level":-1,"causal":0,"value":0})");
}

TEST(EventJson, EveryEmittedLineValidates) {
  std::string error;
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const Event e{.at = i, .type = static_cast<EventType>(i), .node = 1, .level = 0};
    EXPECT_TRUE(validate_event_line(to_json_line(e), &error)) << error;
  }
}

TEST(EventJson, ValidatorRejectsMalformedLines) {
  std::string error;
  // Unknown type name.
  EXPECT_FALSE(validate_event_line(
      R"({"at":0,"type":"bogus","node":null,"peer":null,"level":-1,"causal":0,"value":0})",
      &error));
  EXPECT_NE(error.find("taxonomy"), std::string::npos);
  // Keys out of order (peer before node).
  EXPECT_FALSE(validate_event_line(
      R"({"at":0,"type":"hier_hop","peer":null,"node":null,"level":-1,"causal":0,"value":0})"));
  // Missing field.
  EXPECT_FALSE(validate_event_line(
      R"({"at":0,"type":"hier_hop","node":null,"peer":null,"level":-1,"value":0})"));
  // Trailing junk.
  EXPECT_FALSE(validate_event_line(
      R"({"at":0,"type":"hier_hop","node":null,"peer":null,"level":-1,"causal":0,"value":0} )"));
  // Negative 'at' is not allowed (only 'level' may be negative).
  EXPECT_FALSE(validate_event_line(
      R"({"at":-1,"type":"hier_hop","node":null,"peer":null,"level":-1,"causal":0,"value":0})"));
  EXPECT_FALSE(validate_event_line(""));
  EXPECT_FALSE(validate_event_line("not json"));
}

// -- Tracer dispatch ---------------------------------------------------------

class RecordingSink final : public TraceSink {
 public:
  void on_event(const Event& event) override { events.push_back(event); }
  void flush() override { ++flushes; }
  std::vector<Event> events;
  int flushes = 0;
};

TEST(Tracer, DisabledUntilSinkAttachedAndMacroIsNullSafe) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_FALSE(emitting(&tracer));
  EXPECT_FALSE(emitting(nullptr));

  Tracer* null_tracer = nullptr;
  HOURS_TRACE_EMIT(null_tracer, {.at = 1});  // must not crash
  HOURS_TRACE_EMIT(&tracer, {.at = 1});      // no sink: constructs nothing
  EXPECT_EQ(tracer.events_emitted(), 0U);
}

TEST(Tracer, FansOutToAllSinksAndRemoveDetaches) {
  Tracer tracer;
  RecordingSink a;
  RecordingSink b;
  tracer.add_sink(&a);
  tracer.add_sink(&b);
  EXPECT_TRUE(tracer.enabled());

  HOURS_TRACE_EMIT(&tracer, {.at = 5, .type = EventType::kProbeSent, .node = 1, .peer = 2});
  ASSERT_EQ(a.events.size(), 1U);
  ASSERT_EQ(b.events.size(), 1U);
  EXPECT_EQ(a.events[0].peer, 2U);

  tracer.flush();
  EXPECT_EQ(a.flushes, 1);

  tracer.remove_sink(&a);
  HOURS_TRACE_EMIT(&tracer, {.at = 6, .type = EventType::kProbeFailed});
  EXPECT_EQ(a.events.size(), 1U);
  EXPECT_EQ(b.events.size(), 2U);
  EXPECT_EQ(tracer.events_emitted(), 2U);
}

// -- RingBufferSink ----------------------------------------------------------

TEST(RingBufferSink, WrapsKeepingMostRecentOldestFirst) {
  RingBufferSink sink{4};
  for (std::uint64_t i = 0; i < 6; ++i) {
    sink.on_event({.at = i, .type = EventType::kRingHop});
  }
  EXPECT_EQ(sink.total_events(), 6U);
  EXPECT_EQ(sink.overwritten(), 2U);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 4U);
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].at, i + 2);
}

TEST(RingBufferSink, FiltersByTypeAndClears) {
  RingBufferSink sink{8};
  sink.on_event({.at = 1, .type = EventType::kProbeSent});
  sink.on_event({.at = 2, .type = EventType::kSuspect});
  sink.on_event({.at = 3, .type = EventType::kProbeSent});
  const auto probes = sink.events_of(EventType::kProbeSent);
  ASSERT_EQ(probes.size(), 2U);
  EXPECT_EQ(probes[1].at, 3U);
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(RingBufferSink, TypedSubscribersBeforeUntypedInOrder) {
  RingBufferSink sink{4};
  std::vector<std::string> calls;
  sink.subscribe(EventType::kRecoveryAdopt, [&](const Event&) { calls.push_back("typed1"); });
  sink.subscribe(EventType::kRecoveryAdopt, [&](const Event&) { calls.push_back("typed2"); });
  sink.subscribe(EventType::kProbeSent, [&](const Event&) { calls.push_back("other"); });
  sink.subscribe_all([&](const Event& e) {
    calls.push_back("all@" + std::to_string(e.at));
  });

  sink.on_event({.at = 9, .type = EventType::kRecoveryAdopt});
  EXPECT_EQ(calls, (std::vector<std::string>{"typed1", "typed2", "all@9"}));

  calls.clear();
  sink.on_event({.at = 10, .type = EventType::kDrop});  // no typed subscriber
  EXPECT_EQ(calls, (std::vector<std::string>{"all@10"}));
}

// -- JsonLinesSink -----------------------------------------------------------

TEST(JsonLinesSink, GoldenRoundTrip) {
  std::ostringstream out;
  JsonLinesSink sink{out};
  ASSERT_TRUE(sink.ok());
  sink.on_event({.at = 1, .type = EventType::kQuerySubmit, .node = 3, .peer = 8, .causal = 1});
  sink.on_event({.at = 60, .type = EventType::kQueryDelivered, .node = 8, .causal = 1, .value = 4});
  sink.flush();
  EXPECT_EQ(sink.lines_written(), 2U);
  EXPECT_EQ(out.str(),
            "{\"at\":1,\"type\":\"query_submit\",\"node\":3,\"peer\":8,\"level\":-1,"
            "\"causal\":1,\"value\":0}\n"
            "{\"at\":60,\"type\":\"query_delivered\",\"node\":8,\"peer\":null,\"level\":-1,"
            "\"causal\":1,\"value\":4}\n");

  // The other side of the contract: every line the sink wrote validates.
  std::istringstream in{out.str()};
  std::string line;
  std::string error;
  while (std::getline(in, line)) {
    EXPECT_TRUE(validate_event_line(line, &error)) << error;
  }
}

TEST(JsonLinesSink, BadPathReportsNotOk) {
  JsonLinesSink sink{std::string{"/nonexistent-dir/trace.jsonl"}};
  EXPECT_FALSE(sink.ok());
  sink.on_event({.at = 1});  // must not crash
  EXPECT_EQ(sink.lines_written(), 0U);
}

// -- Registry ----------------------------------------------------------------

TEST(Registry, CountersIncrementThroughHandles) {
  Registry registry;
  Counter a = registry.counter("ring.probes_sent");
  Counter a_again = registry.counter("ring.probes_sent");
  a.inc();
  a_again.inc(4);
  EXPECT_EQ(a.value(), 5U);
  EXPECT_EQ(registry.counter_value("ring.probes_sent"), 5U);
  EXPECT_EQ(registry.counter_value("never.registered"), 0U);
  EXPECT_TRUE(registry.has_counter("ring.probes_sent"));
  EXPECT_FALSE(registry.has_counter("never.registered"));

  Counter unbound;  // default handle: safe no-op
  unbound.inc();
  EXPECT_EQ(unbound.value(), 0U);
}

TEST(Registry, JsonSnapshotSortsNamesDeterministically) {
  Registry registry;
  registry.counter("z.last").inc(2);
  registry.counter("a.first").inc();
  registry.histogram("m.hops").add(3);
  const std::string json = registry.to_json();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("m.hops"), std::string::npos);
  EXPECT_EQ(json, registry.to_json());  // stable across snapshots
}

TEST(Registry, ResetZeroesButKeepsHandlesValid) {
  Registry registry;
  Counter c = registry.counter("x.count");
  c.inc(7);
  registry.histogram("x.hist").add(5);
  registry.reset();
  EXPECT_EQ(c.value(), 0U);
  EXPECT_TRUE(registry.histogram("x.hist").empty());
  c.inc();  // handle survives reset
  EXPECT_EQ(registry.counter_value("x.count"), 1U);
}

}  // namespace
