// Scenario DSL: schema validator golden corpus (accept + reject with exact
// error paths), runner determinism across worker-thread counts, the
// detection sink's bookkeeping on a hand-built event stream, and the
// FaultPlan::parse error-position contract the $.faults.plan clause relies
// on.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/json_writer.hpp"
#include "scenario/detection.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "sim/fault_injector.hpp"
#include "snapshot/json.hpp"
#include "trace/event.hpp"

#ifndef HOURS_SCENARIO_DIR
#define HOURS_SCENARIO_DIR "scenarios"
#endif

namespace {

using namespace hours;

// A minimal valid ring document; reject cases are single-edit mutations of
// this (or of kHierarchyBase below), so each case isolates one field.
constexpr const char* kRingBase = R"({
  "magic": "hours-scenario",
  "version": 1,
  "name": "ring_base",
  "seed": 7,
  "system": {"kind": "ring", "size": 8},
  "workload": {
    "horizon": 20000,
    "window": 2000,
    "phases": [{"until": 10000, "interval": 500}, {"until": 20000, "interval": 250}]
  },
  "metrics": {
    "phases": [{"name": "early", "from": 0, "until": 10000},
               {"name": "late", "from": 10000, "until": 20000}],
    "expect": [{"kind": "phase_ge", "left": "late", "right": "early"}]
  }
})";

constexpr const char* kHierarchyBase = R"({
  "magic": "hours-scenario",
  "version": 1,
  "name": "hier_base",
  "seed": 9,
  "system": {"kind": "hierarchy", "backend": "event", "branching": [3, 3]},
  "workload": {
    "horizon": 60,
    "window": 10,
    "phases": [{"until": 60, "rate": 2}]
  }
})";

std::string validate_text(const std::string& text) {
  snapshot::Json doc;
  std::string error;
  if (!snapshot::parse_json(text, doc, &error)) return "json: " + error;
  return scenario::validate(doc);
}

/// One-shot substring replacement; fails the test if `from` is absent so a
/// stale mutation cannot silently validate the unmodified base.
std::string mutate(const std::string& base, const std::string& from, const std::string& to) {
  const auto at = base.find(from);
  EXPECT_NE(at, std::string::npos) << "mutation target not in base: " << from;
  std::string out = base;
  out.replace(at, from.size(), to);
  return out;
}

struct RejectCase {
  const char* base;
  const char* from;
  const char* to;
  const char* expect_in_error;  ///< must appear in the validator message
};

TEST(ScenarioValidate, AcceptsBaseDocuments) {
  EXPECT_EQ(validate_text(kRingBase), "");
  EXPECT_EQ(validate_text(kHierarchyBase), "");
}

TEST(ScenarioValidate, RejectCorpusNamesTheOffendingPath) {
  const std::vector<RejectCase> cases = {
      // Envelope.
      {kRingBase, "\"magic\": \"hours-scenario\"", "\"magic\": \"hours\"", "$.magic"},
      {kRingBase, "\"version\": 1", "\"version\": 2", "$.version"},
      {kRingBase, "\"name\": \"ring_base\"", "\"name\": \"Ring Base\"", "$.name"},
      {kRingBase, "\"seed\": 7", "\"seed\": \"7\"", "$.seed: expected u64"},
      {kRingBase, "\"seed\": 7", "\"seed\": 7, \"bogus\": 1", "$.bogus: unknown key"},
      // System clause.
      {kRingBase, "\"kind\": \"ring\"", "\"kind\": \"mesh\"", "$.system.kind"},
      {kRingBase, "\"size\": 8", "\"size\": 2", "$.system.size"},
      {kRingBase, "\"size\": 8", "\"size\": 8, \"branching\": [3]",
       "$.system.branching: unknown key"},
      {kRingBase, "\"size\": 8", "\"size\": \"eight\"", "$.system.size: expected u64"},
      {kHierarchyBase, "\"branching\": [3, 3]", "\"branching\": [3, 0]",
       "$.system.branching[1]"},
      {kHierarchyBase, "\"backend\": \"event\"", "\"backend\": \"oracle\"",
       "$.system.backend"},
      {kRingBase, "\"size\": 8", "\"size\": 8, \"k\": 0", "$.system.k: 0 outside"},
      {kRingBase, "\"size\": 8", "\"size\": 8, \"q\": 4294967296",
       "$.system.q: 4294967296 outside"},
      {kHierarchyBase, "\"branching\": [3, 3]", "\"branching\": [3, 3], \"k\": 4294967297",
       "$.system.k: 4294967297 outside"},
      {kHierarchyBase, "\"branching\": [3, 3]", "\"branching\": [3, 3], \"q\": 0",
       "$.system.q: 0 outside"},
      {kRingBase, "\"size\": 8", "\"size\": 8, \"probe_failure_threshold\": 0",
       "$.system.probe_failure_threshold: 0 outside [1, 4294967295]"},
      {kRingBase, "\"size\": 8", "\"size\": 8, \"probe_failure_threshold\": 4294967297",
       "$.system.probe_failure_threshold: 4294967297 outside [1, 4294967295]"},
      // Workload clause.
      {kRingBase, "\"horizon\": 20000,", "", "$.workload.horizon: required field missing"},
      {kRingBase, "\"window\": 2000", "\"window\": 0", "$.workload.window"},
      {kRingBase, "{\"until\": 20000, \"interval\": 250}",
       "{\"until\": 5000, \"interval\": 250}",
       "$.workload.phases[1].until: phase boundaries must be strictly increasing"},
      {kRingBase, "{\"until\": 20000, \"interval\": 250}",
       "{\"until\": 19000, \"interval\": 250}",
       "$.workload.phases[1].until: last phase must end exactly at the horizon"},
      {kRingBase, "\"interval\": 500", "\"interval\": 0", "$.workload.phases[0].interval"},
      {kRingBase, "\"interval\": 500", "\"rate\": 500",
       "$.workload.phases[0].rate: unknown key"},
      {kHierarchyBase, "\"rate\": 2", "\"rate\": 2, \"popularity\": {\"kind\": \"pareto\"}",
       "$.workload.phases[0].popularity.kind"},
      {kHierarchyBase, "\"rate\": 2",
       "\"rate\": 2, \"popularity\": {\"kind\": \"hotspot\", \"hot\": 9, \"fraction\": \"0.5\"}",
       "$.workload.phases[0].popularity.hot"},
      {kHierarchyBase, "\"rate\": 2",
       "\"rate\": 2, \"popularity\": {\"kind\": \"zipf\", \"exponent\": \"fast\"}",
       "$.workload.phases[0].popularity.exponent"},
      {kRingBase, "\"window\": 2000,", "\"window\": 2000, \"alive_sources\": 2,",
       "$.workload.alive_sources: expected 0 or 1"},
      // Work bounds: each measure, located at the field that crosses it.
      {kHierarchyBase, "\"rate\": 2", "\"rate\": 4294967296",
       "$.workload.phases[0].rate: issued queries comes to 257698037760, over the bound of "
       "2000000"},
      {kRingBase, "\"window\": 2000", "\"window\": 1",
       "$.workload.window: horizon / window comes to 20000, over the bound of 10000"},
      {kRingBase, "\"size\": 8", "\"size\": 8, \"probe_period\": 0",
       "$.system.probe_period: must be >= 1"},
      {kRingBase, "\"size\": 8", "\"size\": 1000000, \"probe_period\": 10",
       "$.system.probe_period: probe rounds (size x horizon / probe_period) comes to "
       "2001000000, over the bound of 1000000"},
      {kHierarchyBase, "\"workload\"",
       "\"attacker\": {\"kind\": \"cache_busting\", \"rate\": 100000, \"from\": 0, "
       "\"until\": 60}, \"workload\"",
       "$.attacker.rate: issued queries comes to 6000120, over the bound of 2000000"},
      // Fault clause (plan errors carry FaultPlan::parse line/col context).
      {kRingBase, "\"metrics\"", "\"faults\": {\"plan\": [\"crash(1, bogus)\"]}, \"metrics\"",
       "$.faults.plan: line 1, col"},
      {kRingBase, "\"metrics\"",
       "\"faults\": {\"plan\": [\"byzantine(1, NodeBehavior(2), 5)\"]}, \"metrics\"",
       "$.faults.plan: byzantine() is unsupported on the ring system"},
      {kHierarchyBase, "\"backend\": \"event\"", "\"backend\": \"graph\"", ""},  // setup below
      // Attacker clause.
      {kRingBase, "\"metrics\"", "\"attacker\": {\"kind\": \"strike\"}, \"metrics\"",
       "$.attacker.kind: \"strike\" requires a hierarchy system"},
      {kHierarchyBase, "\"workload\"",
       "\"attacker\": {\"kind\": \"adaptive\"}, \"workload\"",
       "$.attacker.kind: \"adaptive\" requires a ring system"},
      {kHierarchyBase, "\"workload\"",
       "\"attacker\": {\"kind\": \"strike\", \"victims\": [\"n9\"], \"at\": 5, "
       "\"duration\": 5}, \"workload\"",
       "$.attacker.victims[0]"},
      {kHierarchyBase, "\"workload\"",
       "\"attacker\": {\"kind\": \"cache_busting\", \"rate\": 5, \"from\": 20, "
       "\"until\": 10}, \"workload\"",
       "$.attacker.until: must be > from"},
      // Metrics clause.
      {kRingBase, "\"phases\": [{\"name\": \"early\"",
       "\"emit\": [\"windows\"], \"phases\": [{\"name\": \"early\"",
       "$.metrics.emit[0]"},
      {kRingBase, "{\"name\": \"late\", \"from\": 10000, \"until\": 20000}",
       "{\"name\": \"early\", \"from\": 10000, \"until\": 20000}",
       "$.metrics.phases[1].name: duplicate phase name"},
      {kRingBase, "\"right\": \"early\"", "\"right\": \"missing\"",
       "\"missing\" is not a defined $.metrics.phases name"},
      {kRingBase, "{\"kind\": \"phase_ge\", \"left\": \"late\", \"right\": \"early\"}",
       "{\"kind\": \"hit_rate_ge\", \"left\": \"late\", \"right\": \"early\"}",
       "$.metrics.expect[0].kind: hit-rate expectations are hierarchy-only"},
      {kRingBase, "{\"kind\": \"phase_ge\", \"left\": \"late\", \"right\": \"early\"}",
       "{\"kind\": \"flag\", \"name\": \"remerged\"}",
       "flag expectations require $.metrics.fixpoint = 1"},
      {kHierarchyBase, "\"workload\"", "\"metrics\": {\"fixpoint\": 1}, \"workload\"",
       "$.metrics.fixpoint: the no-fault fixpoint check is ring-only"},
      {kHierarchyBase, "\"workload\"", "\"metrics\": {\"detection\": 1}, \"workload\"",
       "$.metrics.detection: the detection control run is ring-only"},
      {kRingBase, "\"phases\": [{\"name\": \"early\"",
       "\"detection\": 1, \"phases\": [{\"name\": \"early\"",
       "$.metrics.detection: requires $.liveness.source = \"gossip\""},
      {kRingBase, "{\"kind\": \"phase_ge\", \"left\": \"late\", \"right\": \"early\"}",
       "{\"kind\": \"flag\", \"name\": \"detection_improved\"}",
       "detection flags require $.metrics.detection = 1"},
  };
  for (const auto& c : cases) {
    if (c.expect_in_error[0] == '\0') continue;  // placeholder row
    const std::string text = mutate(c.base, c.from, c.to);
    const std::string error = validate_text(text);
    EXPECT_NE(error, "") << "mutation should not validate: " << c.to;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos)
        << "error \"" << error << "\" should mention \"" << c.expect_in_error << "\"";
  }
}

TEST(ScenarioValidate, RingQueryBoundNamesTheCrossingPhase) {
  // 40M ticks at one query per tick: the second phase crosses the bound,
  // while 1,000 windows and 320,008 probe rounds stay inside theirs.
  std::string text = mutate(kRingBase, "\"horizon\": 20000", "\"horizon\": 40000000");
  text = mutate(text, "\"window\": 2000", "\"window\": 40000");
  text = mutate(text, "{\"until\": 20000, \"interval\": 250}",
                "{\"until\": 40000000, \"interval\": 1}");
  EXPECT_EQ(validate_text(text),
            "$.workload.phases[1].interval: issued queries comes to 39990022, over the bound of "
            "2000000");
}

TEST(ScenarioValidate, GraphBackendRejectsFaultPlans) {
  std::string text = mutate(kHierarchyBase, "\"backend\": \"event\"", "\"backend\": \"graph\"");
  text = mutate(text, "\"workload\"",
                "\"faults\": {\"plan\": [\"crash(1, 5, 9)\"]}, \"workload\"");
  const std::string error = validate_text(text);
  EXPECT_NE(error.find("$.faults: the graph backend cannot schedule faults"),
            std::string::npos)
      << error;
}

std::vector<std::string> library_files() {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(HOURS_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(ScenarioLibrary, EveryShippedScenarioValidates) {
  const auto paths = library_files();
  EXPECT_GE(paths.size(), 8u) << "the seeded library must stay populated";
  for (const auto& path : paths) {
    scenario::Scenario sc;
    EXPECT_EQ(scenario::load_file(path, sc), "") << path;
  }
}

/// The fixed-precision number after `key` in a rendered report (the
/// snapshot::Json reader has no floats, so reports are read by substring).
double report_number(const std::string& json, std::string_view key) {
  const auto at = json.find(key);
  EXPECT_NE(at, std::string::npos) << key;
  return at == std::string::npos ? -1.0 : std::strtod(json.c_str() + at + key.size(), nullptr);
}

scenario::RunOutcome run_shipped(const std::string& file) {
  scenario::Scenario sc;
  EXPECT_EQ(scenario::load_file(std::string{HOURS_SCENARIO_DIR} + "/" + file, sc), "");
  return scenario::run(sc);
}

TEST(ScenarioLibrary, AdaptiveRestrikeHurtsMoreThanStatic) {
  // The trace-following attacker re-strikes where active recovery landed,
  // so delivery during the attack falls below the blind three-strike
  // schedule's, with both of its strikes spent.
  const auto fixed = run_shipped("adaptive_static.json");
  const auto adaptive = run_shipped("adaptive_restrike.json");
  EXPECT_TRUE(fixed.expectations_met);
  EXPECT_TRUE(adaptive.expectations_met);
  constexpr std::string_view kDuring = "\"during\":{\"delivery_ratio\":";
  EXPECT_LT(report_number(adaptive.json, kDuring), report_number(fixed.json, kDuring));
  EXPECT_EQ(report_number(adaptive.json, "\"strikes_launched\":"), 2.0);
}

TEST(DetectionSink, EpisodeBookkeepingOnAHandBuiltStream) {
  using trace::EventType;
  scenario::DetectionSink sink{6};
  const auto feed = [&sink](std::uint64_t at, EventType type, std::uint32_t node,
                            std::uint32_t peer = trace::kNoNode, std::uint64_t value = 0) {
    sink.on_event(trace::Event{.at = at, .type = type, .node = node, .peer = peer,
                               .value = value});
  };
  // Episode A: node 2 down over [100, 300) with 5 alive observers; three of
  // them learn — one through a gossip adoption — so t_half is the third
  // sighting (ceil(5/2)), 100 ticks after the kill.
  feed(100, EventType::kFaultKill, 2);
  feed(150, EventType::kSuspect, 0, 2);
  feed(160, EventType::kSuspect, 0, 2);  // repeat sighting: the first one counts
  feed(170, EventType::kLivenessGossipSuspect, 1, 2);
  feed(180, EventType::kSuspect, 3, 4);  // node 4 is up: a false suspicion
  feed(200, EventType::kSuspect, 4, 2);
  feed(250, EventType::kProbeSent, 0, 1);  // ignored
  feed(300, EventType::kFaultRevive, 2);
  feed(310, EventType::kSuspect, 0, 2);  // after the revival: false again
  // Episode B: node 5 down over [400, 650); one observer of five learns, so
  // t_half is censored at the revival (250).
  feed(400, EventType::kFaultKill, 5);
  feed(450, EventType::kSuspect, 0, 5);
  feed(650, EventType::kFaultRevive, 5);
  // Episodes C and D never end. C (5 alive observers) is censored at the
  // horizon (300); D starts with C's victim still down, so only 4 observers
  // are alive and the second sighting (60) is its t_half.
  feed(700, EventType::kFaultKill, 1);
  feed(710, EventType::kFaultKill, 3);
  feed(720, EventType::kSuspect, 0, 3);
  feed(770, EventType::kLivenessGossipSuspect, 4, 3);
  // Digest traffic.
  feed(800, EventType::kLivenessDigestSent, 0, trace::kNoNode, 3);
  feed(801, EventType::kLivenessDigestSent, 4, trace::kNoNode, 1);
  feed(802, EventType::kLivenessDigestSent, 0, trace::kNoNode, 4);
  feed(803, EventType::kLivenessDigestApplied, 1, 0, 2);
  feed(804, EventType::kLivenessDigestApplied, 2, 4, 0);

  const scenario::DetectionSummary s = sink.summarize(1000);
  EXPECT_EQ(s.episodes, 4u);
  EXPECT_EQ(s.pairs_possible, 5u + 5u + 5u + 4u);
  EXPECT_EQ(s.pairs_observed, 3u + 1u + 0u + 2u);
  EXPECT_DOUBLE_EQ(s.never_fraction, 1.0 - 6.0 / 19.0);
  // Pooled latencies {10, 50, 50, 60, 70, 100}: index p*(n-1)+0.5 rounds
  // 2.5 up to 3 for p50 and 4.5 up to 5 for p90.
  EXPECT_EQ(s.latency_p50, 60u);
  EXPECT_EQ(s.latency_p90, 100u);
  EXPECT_EQ(s.latency_p99, 100u);
  // t_half {60, 100, 250, 300}: the median index 1.5+0.5 picks 250.
  EXPECT_EQ(s.median_t_half, 250u);
  EXPECT_EQ(s.censored_episodes, 2u);
  EXPECT_EQ(s.false_suspicions, 2u);
  EXPECT_EQ(s.digests_sent, 3u);
  EXPECT_EQ(s.digest_entries, 8u);
  EXPECT_EQ(s.max_digest_entries, 4u);
  EXPECT_EQ(s.gossip_adoptions, 2u);

  metrics::JsonWriter json;
  s.render(json);
  EXPECT_NE(json.str().find("\"pairs_observed\":6,\"never_fraction\":0.6842,"),
            std::string::npos)
      << json.str();
}

TEST(ScenarioRunner, MatrixBytesAreThreadCountInvariant) {
  std::vector<scenario::Scenario> scenarios;
  for (const auto& path : library_files()) {
    scenario::Scenario sc;
    ASSERT_EQ(scenario::load_file(path, sc), "") << path;
    scenarios.push_back(std::move(sc));
  }
  ASSERT_GE(scenarios.size(), 8u);

  scenario::RunOptions quick;
  quick.quick = true;

  std::vector<std::vector<scenario::RunOutcome>> runs;
  for (const unsigned threads : {1u, 2u, 4u}) {
    runs.push_back(scenario::run_matrix(scenarios, threads, quick));
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[t][i].json, runs[0][i].json)
          << scenarios[i].name << " diverged between 1 and " << (t == 1 ? 2 : 4)
          << " worker threads";
      EXPECT_EQ(runs[t][i].expectations_met, runs[0][i].expectations_met);
    }
  }
}

TEST(ScenarioRunner, RunIsByteReproducibleAndReportsFailures) {
  // phase_lt(early, early) can never hold: the runner must report the failed
  // check while still producing a deterministic report.
  const std::string text =
      mutate(kRingBase, "{\"kind\": \"phase_ge\", \"left\": \"late\", \"right\": \"early\"}",
             "{\"kind\": \"phase_lt\", \"left\": \"early\", \"right\": \"early\"}");
  snapshot::Json doc;
  std::string error;
  ASSERT_TRUE(snapshot::parse_json(text, doc, &error)) << error;
  scenario::Scenario sc;
  ASSERT_EQ(scenario::parse(doc, sc), "");

  const auto first = scenario::run(sc);
  const auto second = scenario::run(sc);
  EXPECT_EQ(first.json, second.json);
  EXPECT_FALSE(first.expectations_met);
  ASSERT_EQ(first.failed.size(), 1u);
  EXPECT_EQ(first.failed[0], "phase_lt(early, early)");
  EXPECT_NE(first.json.find("{\"check\":\"phase_lt(early, early)\",\"pass\":false}"),
            std::string::npos);
}

TEST(FaultPlanParse, ErrorsCarryLineColumnAndNearContext) {
  std::string error;
  // Column points at the first unparsable token, "near" quotes it.
  EXPECT_FALSE(sim::FaultPlan::parse("crash(1, bogus)", &error).has_value());
  EXPECT_NE(error.find("line 1, col 10"), std::string::npos) << error;
  EXPECT_NE(error.find("malformed crash()"), std::string::npos) << error;
  EXPECT_NE(error.find("near \"bogus)\""), std::string::npos) << error;

  // Later lines report their own line number.
  EXPECT_FALSE(
      sim::FaultPlan::parse("crash(1, 5, 9)\nflap(2, 10, 3,)", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("malformed flap()"), std::string::npos) << error;

  // Unknown builders quote the offending token instead of the whole line.
  EXPECT_FALSE(sim::FaultPlan::parse("frobnicate(1, 2)", &error).has_value());
  EXPECT_NE(error.find("unknown builder call \"frobnicate\""), std::string::npos) << error;

  // Truncation past the end of the line degrades to an explicit marker.
  EXPECT_FALSE(sim::FaultPlan::parse("crash(1, 5, 9", &error).has_value());
  EXPECT_NE(error.find("at end of line"), std::string::npos) << error;

  // The describe() round-trip is unaffected by the richer errors.
  sim::FaultPlan plan;
  plan.crash(3, 100, 900).loss_episode(0.25, 10, 20);
  const auto reparsed = sim::FaultPlan::parse(plan.describe(), &error);
  ASSERT_TRUE(reparsed.has_value()) << error;
  EXPECT_TRUE(*reparsed == plan);
}

}  // namespace
