#include "sim/fuzz_cases.hpp"

#include <sstream>
#include <utility>

#include "metrics/json_writer.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/ring_invariants.hpp"
#include "sim/snapshotter.hpp"
#include "snapshot/json.hpp"
#include "trace/event.hpp"
#include "trace/ring_buffer_sink.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace hours::sim::fuzz {

namespace {

Ticks ticks_between(rng::Xoshiro256& g, Ticks lo, Ticks hi) {
  HOURS_EXPECTS(hi > lo);
  return lo + g.below(hi - lo);
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed) {
  rng::Xoshiro256 g{seed};
  FuzzCase c;

  const auto n = static_cast<std::uint32_t>(10 + g.below(7));  // 10..16 nodes
  c.config.size = n;
  c.config.params.design = overlay::Design::kEnhanced;
  c.config.params.k = static_cast<std::uint32_t>(2 + g.below(2));
  c.config.params.q = 2;
  c.config.params.seed = seed * 0x9E3779B97F4A7C15ULL + 1;
  c.config.seed = seed;
  // Loss episodes and flapping produce spurious single misses; require two
  // consecutive misses before declaring a neighbor dead.
  c.config.probe_failure_threshold = 2;
  // Every third seed arms the gossip liveness plane, so the invariant
  // sweep and the snapshot oracle both cover digest piggybacking and the
  // gossip-mode snapshot format. Stale rumors about revived nodes self-heal
  // through the ring's suspicion refresh probes, so convergence demands are
  // unchanged.
  if (seed % 3 == 0) c.config.liveness.mode = liveness::Mode::kGossip;

  // Crashes: 0..2, all recovering before the horizon.
  const auto crashes = g.below(3);
  for (std::uint64_t i = 0; i < crashes; ++i) {
    const Ticks at = ticks_between(g, 1'000, kFaultHorizon - 9'000);
    c.plan.crash(static_cast<std::uint32_t>(g.below(n)), at,
                 at + ticks_between(g, 2'000, 8'000));
  }

  // Flapping node: up to 3 down/up cycles, finished before the horizon.
  if (g.bernoulli(0.4)) {
    const auto cycles = static_cast<std::uint32_t>(1 + g.below(3));
    const Ticks down = ticks_between(g, 500, 2'000);
    const Ticks up = ticks_between(g, 1'500, 3'500);
    const Ticks span = cycles * (down + up);
    c.plan.flap(static_cast<std::uint32_t>(g.below(n)),
                ticks_between(g, 1'000, kFaultHorizon - span), down, up, cycles);
  }

  // Partitions: 0..2 windows, biased toward contiguous arc splits (the
  // hierarchy-realistic shape); always healing.
  const auto partitions = g.below(3);
  for (std::uint64_t i = 0; i < partitions; ++i) {
    std::vector<std::uint32_t> a;
    std::vector<std::uint32_t> b;
    if (g.bernoulli(0.75)) {
      // Contiguous arc [start, start+len) vs the rest.
      const auto start = g.below(n);
      const auto len = 2 + g.below(n - 3);
      for (std::uint32_t j = 0; j < n; ++j) {
        const bool in_arc = ((j + n - start) % n) < len;
        (in_arc ? a : b).push_back(j);
      }
    } else {
      // Arbitrary membership split (interleaved halves and worse).
      for (std::uint32_t j = 0; j < n; ++j) (g.bernoulli(0.5) ? a : b).push_back(j);
      if (a.empty()) a.push_back(b.back()), b.pop_back();
      if (b.empty()) b.push_back(a.back()), a.pop_back();
    }
    const Ticks at = ticks_between(g, 1'000, kFaultHorizon - 12'000);
    c.plan.partition({std::move(a), std::move(b)}, at,
                     at + ticks_between(g, 3'000, 11'000));
  }

  // Individual link cuts: 0..3, always healing.
  const auto cuts = g.below(4);
  for (std::uint64_t i = 0; i < cuts; ++i) {
    const auto x = static_cast<std::uint32_t>(g.below(n));
    auto y = static_cast<std::uint32_t>(g.below(n));
    if (y == x) y = (y + 1) % n;
    const Ticks at = ticks_between(g, 500, kFaultHorizon - 8'000);
    c.plan.cut_link(x, y, at, at + ticks_between(g, 1'000, 7'000));
  }

  // A lossy-link episode overlapping whatever else is in flight.
  if (g.bernoulli(0.35)) {
    const Ticks from = ticks_between(g, 1'000, kFaultHorizon - 9'000);
    c.plan.loss_episode(0.05 + g.uniform() * 0.15, from,
                        from + ticks_between(g, 2'000, 8'000));
  }

  return c;
}

std::string describe_config(const RingSimConfig& cfg) {
  std::ostringstream os;
  os << "size=" << cfg.size << " k=" << cfg.params.k << " q=" << cfg.params.q
     << " table_seed=" << cfg.params.seed << " sim_seed=" << cfg.seed
     << " probe_failure_threshold=" << cfg.probe_failure_threshold
     << " liveness=" << (cfg.liveness.mode == liveness::Mode::kGossip ? "gossip" : "probe_only");
  return os.str();
}

std::vector<std::string> run_case(const FuzzCase& c, bool traced) {
  RingSimulation ring{c.config};
  trace::Tracer tracer;
  trace::RingBufferSink events{2048};
  if (traced) {
    ring.set_tracer(&tracer);
    tracer.add_sink(&events);
  }
  ring.start();
  FaultInjector injector{make_fault_target(ring), c.plan};
  if (traced) injector.set_tracer(&tracer);
  injector.arm();
  ring.simulator().run(kFaultHorizon + kSettlePeriods * c.config.probe_period);

  auto violations = invariants::ring_invariant_violations(ring);
  if (traced) {
    // Probing alone guarantees traffic, so a silent stream means the
    // instrumentation came unhooked.
    if (tracer.events_emitted() == 0) {
      violations.push_back("traced run emitted no events");
    }
    std::string error;
    for (const auto& event : events.events()) {
      if (!trace::validate_event_line(trace::to_json_line(event), &error)) {
        violations.push_back("schema-invalid event: " + trace::to_json_line(event) + " (" +
                             error + ")");
        break;
      }
    }
  }
  if (!violations.empty()) return violations;  // queries would only add noise

  // Sample random query pairs over the survivors (permanent faults are never
  // generated here, so "survivors" is everyone — but stay defensive).
  rng::Xoshiro256 g{c.config.seed ^ 0xC0FFEEULL};
  std::vector<std::pair<ids::RingIndex, ids::RingIndex>> pairs;
  for (int i = 0; i < 6; ++i) {
    const auto from = static_cast<ids::RingIndex>(g.below(c.config.size));
    auto to = static_cast<ids::RingIndex>(g.below(c.config.size));
    if (to == from) to = (to + 1) % c.config.size;
    pairs.emplace_back(from, to);
  }
  return invariants::query_delivery_violations(ring, pairs);
}

std::vector<std::string> run_snapshot_oracle(const FuzzCase& c, std::uint64_t seed) {
  const Ticks total = kFaultHorizon + kSettlePeriods * c.config.probe_period;
  // Pause somewhere inside the fault window, where the most state is in
  // flight; derived from the seed so reproduction is exact.
  rng::Xoshiro256 g{seed ^ 0x534E4150ULL};  // "SNAP"
  const Ticks pause = 1 + g.below(kFaultHorizon);

  std::vector<std::string> violations;
  const auto fail = [&violations](std::string what) {
    violations.push_back("snapshot oracle: " + std::move(what));
  };

  // Run A: uninterrupted.
  std::string final_a;
  {
    RingSimulation ring{c.config};
    ring.start();
    FaultInjector injector{make_fault_target(ring), c.plan};
    injector.arm();
    Snapshotter snap{ring.simulator()};
    snap.add(ring);
    snap.add(injector);
    ring.simulator().run(total);
    if (const auto e = snap.save_string(final_a); !e.empty()) {
      fail("continuous run unsaveable at quiescence: " + e);
      return violations;
    }
  }

  // Run B: pause, save, restore into fresh objects, continue.
  std::string at_pause;
  {
    RingSimulation ring{c.config};
    ring.start();
    FaultInjector injector{make_fault_target(ring), c.plan};
    injector.arm();
    Snapshotter snap{ring.simulator()};
    snap.add(ring);
    snap.add(injector);
    ring.simulator().run(pause);
    if (const auto e = snap.save_string(at_pause); !e.empty()) {
      fail("save at t=" + std::to_string(pause) + " failed: " + e);
      return violations;
    }
  }
  {
    snapshot::Json doc;
    std::string error;
    if (!snapshot::parse_json(at_pause, doc, &error)) {
      fail("saved document does not re-parse: " + error);
      return violations;
    }
    RingSimulation ring{c.config};  // neither started nor armed: restored instead
    FaultInjector injector{make_fault_target(ring), c.plan};
    Snapshotter snap{ring.simulator()};
    snap.add(ring);
    snap.add(injector);
    if (const auto e = snap.restore(doc); !e.empty()) {
      fail("restore at t=" + std::to_string(pause) + " failed: " + e);
      return violations;
    }
    std::string resaved;
    if (const auto e = snap.save_string(resaved); !e.empty()) {
      fail("resave after restore failed: " + e);
      return violations;
    }
    if (resaved != at_pause) {
      fail("restore -> save is not the identity at t=" + std::to_string(pause));
    }
    ring.simulator().run(total - ring.simulator().now());
    std::string final_b;
    if (const auto e = snap.save_string(final_b); !e.empty()) {
      fail("restored run unsaveable at quiescence: " + e);
      return violations;
    }
    if (final_b != final_a) {
      fail("restored run diverged from continuous run (paused at t=" +
           std::to_string(pause) + ")");
    }
  }
  return violations;
}

SeedResult run_seed(std::uint64_t seed, const SeedOptions& options) {
  SeedResult result;
  result.seed = seed;
  const FuzzCase c = generate_case(seed);
  // Every fifth seed (and any pinned repro) runs with tracing attached:
  // wide enough to catch instrumentation regressions under arbitrary fault
  // overlap, sparse enough not to slow the default sweep.
  result.traced = options.force_traced || seed % 5 == 0;
  result.violations = run_case(c, result.traced);
  // Snapshot-equivalence oracle on a sampled subset (the case runs twice
  // more, so sampling keeps the default sweep fast).
  result.snapshot_checked =
      options.force_snapshot ||
      (options.snapshot_stride != 0 && seed % options.snapshot_stride == 0);
  if (result.snapshot_checked) {
    auto divergences = run_snapshot_oracle(c, seed);
    result.violations.insert(result.violations.end(),
                             std::make_move_iterator(divergences.begin()),
                             std::make_move_iterator(divergences.end()));
  }
  return result;
}

std::string sweep_report_json(const std::vector<SeedResult>& results) {
  metrics::JsonWriter json;
  std::uint64_t traced = 0;
  std::uint64_t snapshot_checked = 0;
  std::uint64_t failing = 0;
  for (const auto& r : results) {
    if (r.traced) ++traced;
    if (r.snapshot_checked) ++snapshot_checked;
    if (!r.violations.empty()) ++failing;
  }
  json.begin_object();
  json.field("report", "fuzz_sweep");
  json.field("seeds", static_cast<std::uint64_t>(results.size()));
  json.field("traced", traced);
  json.field("snapshot_checked", snapshot_checked);
  json.field("failing_seeds", failing);
  json.field("clean", failing == 0);
  json.key("results");
  json.begin_array();
  for (const auto& r : results) {
    json.begin_object();
    json.field("seed", r.seed);
    json.field("traced", r.traced);
    json.field("snapshot_checked", r.snapshot_checked);
    if (!r.violations.empty()) {
      json.key("violations");
      json.begin_array();
      for (const auto& v : r.violations) json.value(v);
      json.end_array();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace hours::sim::fuzz
