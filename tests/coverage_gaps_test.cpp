// Focused tests for corners the main suites leave untouched: logging
// levels, resolve_paths caps, zero-jitter transport, facade trace output,
// and misc accessor behavior.
#include <gtest/gtest.h>

#include "hierarchy/named.hpp"
#include "hours/hours.hpp"
#include "sim/transport.hpp"
#include "util/log.hpp"

namespace hours {
namespace {

naming::Name name(std::string_view text) { return naming::Name::parse(text).value(); }

TEST(Log, LevelThresholding) {
  const auto saved = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  EXPECT_EQ(util::log_level(), util::LogLevel::kError);
  // Below-threshold logging must be a no-op (and must not crash with
  // format arguments).
  HOURS_LOG_DEBUG("dropped %d", 1);
  HOURS_LOG_WARN("dropped %s", "too");
  util::set_log_level(util::LogLevel::kOff);
  HOURS_LOG_ERROR("also dropped %d", 2);
  util::set_log_level(saved);
}

TEST(ResolvePaths, HonorsMaxPathsCap) {
  overlay::OverlayParams params;
  params.k = 2;
  params.q = 1;
  hierarchy::NamedHierarchy h{params};
  for (const char* z : {"a", "b", "c", "d", "e"}) ASSERT_TRUE(h.admit(name(z)).ok());
  ASSERT_TRUE(h.admit(name("n.a")).ok());
  // Four extra parents: five paths total.
  for (const char* z : {"b", "c", "d", "e"}) {
    ASSERT_TRUE(h.admit_secondary(name("n.a"), name(z)).ok());
  }
  EXPECT_EQ(h.resolve_paths(name("n.a")).size(), 5U);
  EXPECT_EQ(h.resolve_paths(name("n.a"), 3).size(), 3U);
  EXPECT_EQ(h.resolve_paths(name("n.a"), 1).size(), 1U);
  EXPECT_TRUE(h.resolve_paths(name("ghost")).empty());
}

TEST(ResolvePaths, MultiLevelMeshMultiplies) {
  overlay::OverlayParams params;
  params.k = 2;
  params.q = 1;
  hierarchy::NamedHierarchy h{params};
  for (const char* z : {"p1", "p2"}) ASSERT_TRUE(h.admit(name(z)).ok());
  ASSERT_TRUE(h.admit(name("m.p1")).ok());
  ASSERT_TRUE(h.admit_secondary(name("m.p1"), name("p2")).ok());
  ASSERT_TRUE(h.admit(name("q.m.p1")).ok());
  // Leaf inherits both of its parent's paths.
  EXPECT_EQ(h.resolve_paths(name("q.m.p1")).size(), 2U);
}

TEST(Transport, FixedLatencyConfiguration) {
  sim::Simulator simulator;
  sim::TransportConfig cfg;
  cfg.latency_min = 25;
  cfg.latency_max = 25;  // degenerate jitter window
  cfg.ack_timeout = 60;
  sim::Transport<int> transport{simulator, cfg, 2, 1};
  sim::Ticks delivered_at = 0;
  transport.set_handler([&](std::uint32_t, const sim::Transport<int>::Envelope&) {
    delivered_at = simulator.now();
  });
  transport.post(0, 1, 7);
  simulator.run();
  EXPECT_EQ(delivered_at, 25U);
}

TEST(Facade, QueryFromRecordsNamedPath) {
  HoursConfig cfg;
  cfg.overlay.k = 2;
  cfg.overlay.q = 1;
  HoursSystem sys{cfg};
  for (const char* z : {"x", "y"}) {
    sys.admit(z);
    sys.admit(std::string{"s."} + z);
  }
  const auto r = sys.query_from("x", "s.y", /*record_path=*/true);
  ASSERT_TRUE(r.delivered);
  ASSERT_GE(r.path.size(), 2U);
  EXPECT_EQ(r.path.front(), "x");
  EXPECT_EQ(r.path.back(), "s.y");
}

TEST(Facade, LookupOnMeshNodeReturnsRecordsViaEitherPath) {
  HoursConfig cfg;
  cfg.overlay.k = 2;
  cfg.overlay.q = 1;
  HoursSystem sys{cfg};
  for (const char* z : {"east", "west"}) sys.admit(z);
  sys.admit("svc.east");
  ASSERT_TRUE(sys.hierarchy().admit_secondary(name("svc.east"), name("west")).ok());
  ASSERT_TRUE(sys.add_record("svc.east", store::Record{"A", "10.0.0.1", 60}).ok());

  // Primary subtree annihilated: only the mesh path remains.
  sys.set_alive("east", false);
  const auto r = sys.lookup("svc.east");
  ASSERT_TRUE(r.query.delivered);
  ASSERT_EQ(r.records.size(), 1U);
  EXPECT_EQ(r.records[0].value, "10.0.0.1");
}

TEST(Facade, LookupOfTheRootAcceptsBothSpellings) {
  HoursSystem sys;
  sys.admit("zone");
  ASSERT_TRUE(sys.add_record(".", store::Record{"NS", "root", 60}).ok());
  for (const char* root : {"", "."}) {
    const auto r = sys.lookup(root);
    ASSERT_TRUE(r.query.delivered) << '"' << root << '"';
    ASSERT_EQ(r.records.size(), 1U) << '"' << root << '"';
    EXPECT_EQ(r.records[0].value, "root");
  }
  const auto malformed = sys.lookup("a..zone");
  EXPECT_FALSE(malformed.query.delivered);
  EXPECT_TRUE(malformed.records.empty());
  EXPECT_EQ(sys.registry().counter("facade.queries_submitted").value(), 3U);
  EXPECT_EQ(sys.registry().counter("facade.queries_failed").value(), 1U);
}

TEST(Facade, PathAttemptsReportedForMeshFallback) {
  HoursConfig cfg;
  cfg.overlay.k = 2;
  cfg.overlay.q = 1;
  HoursSystem sys{cfg};
  for (const char* z : {"east", "west", "north"}) {
    sys.admit(z);
    sys.admit(std::string{"s1."} + z);
    sys.admit(std::string{"s2."} + z);
  }
  ASSERT_TRUE(sys.hierarchy().admit_secondary(name("s1.east"), name("west")).ok());
  // Kill the entire east sibling set except the mesh node: the primary path
  // fails outright (no alive entrance), forcing the second attempt.
  sys.set_alive("east", false);
  sys.set_alive("s2.east", false);
  const auto r = sys.query("s1.east");
  ASSERT_TRUE(r.delivered);
  // Depending on draw, either the primary detour or the secondary path
  // served it; if the primary failed, attempts reflect the fallback.
  EXPECT_GE(r.path_attempts, 1U);
  EXPECT_LE(r.path_attempts, 2U);
}

}  // namespace
}  // namespace hours
