#include "scenario/runner.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <sstream>

#include "hours/concurrent_resolver.hpp"
#include "jobs/sweep.hpp"
#include "metrics/json_writer.hpp"
#include "metrics/timeline.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "scenario/detection.hpp"
#include "sim/adaptive_attacker.hpp"
#include "sim/fault_injector.hpp"
#include "sim/query_client.hpp"
#include "sim/ring_protocol.hpp"
#include "snapshot/event_kinds.hpp"
#include "trace/jsonl_sink.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"
#include "workload/workload.hpp"

namespace hours::scenario {

namespace {

using metrics::JsonWriter;

std::size_t phase_at(const std::vector<Phase>& phases, std::uint64_t t) {
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (t < phases[i].until) return i;
  }
  return phases.size() - 1;
}

/// Per-phase destination sampler, or nullptr for uniform — uniform draws
/// come from the main workload stream so single-phase uniform scenarios
/// reproduce the legacy benches' exact draw sequence.
std::vector<std::unique_ptr<workload::Sampler>> make_samplers(const Scenario& sc,
                                                              std::size_t universe) {
  std::vector<std::unique_ptr<workload::Sampler>> samplers;
  for (std::size_t i = 0; i < sc.phases.size(); ++i) {
    const Popularity& pop = sc.phases[i].popularity;
    const std::uint64_t seed = rng::mix64(sc.seed, 0x504F50ULL + i);  // "POP"
    switch (pop.kind) {
      case Popularity::Kind::kUniform:
        samplers.push_back(nullptr);
        break;
      case Popularity::Kind::kZipf:
        samplers.push_back(
            std::make_unique<workload::ZipfSampler>(universe, pop.exponent, seed));
        break;
      case Popularity::Kind::kHotspot:
        samplers.push_back(std::make_unique<workload::HotspotSampler>(
            universe, static_cast<std::size_t>(pop.hot), pop.fraction, seed));
        break;
    }
  }
  return samplers;
}

/// The JSONL sink RunOptions::trace_dir asks for, or nullptr when untraced.
std::unique_ptr<trace::JsonLinesSink> trace_file(const Scenario& sc,
                                                 const RunOptions& options) {
  if (options.trace_dir.empty()) return nullptr;
  return std::make_unique<trace::JsonLinesSink>(options.trace_dir + "/" + sc.name + ".jsonl");
}

void render_client(JsonWriter& json, const sim::QueryClientStats& stats) {
  json.key("client").begin_object();
  json.field("submitted", stats.submitted);
  json.field("delivered", stats.delivered);
  json.field("deadline_exceeded", stats.deadline_exceeded);
  json.field("no_route", stats.no_route);
  json.field("retransmissions", stats.retransmissions);
  json.field("failovers", stats.failovers);
  json.end_object();
}

void render_faults(JsonWriter& json, const sim::FaultInjectorStats& stats) {
  json.key("faults").begin_object();
  json.field("kills", stats.kills);
  json.field("revivals", stats.revivals);
  json.field("link_cuts", stats.link_cuts);
  json.field("link_heals", stats.link_heals);
  json.field("loss_changes", stats.loss_changes);
  json.field("behavior_changes", stats.behavior_changes);
  json.end_object();
}

void render_plan(JsonWriter& json, const std::vector<std::string>& lines) {
  if (lines.empty()) return;
  json.key("plan").begin_array();
  for (const auto& line : lines) json.value(line);
  json.end_array();
}

void render_expectations(JsonWriter& json, const std::vector<Expectation>& expect,
                         const std::function<bool(const Expectation&)>& holds,
                         RunOutcome& outcome) {
  if (expect.empty()) return;
  json.key("expectations").begin_array();
  for (const auto& ex : expect) {
    const bool pass = holds(ex);
    if (!pass) {
      outcome.expectations_met = false;
      outcome.failed.push_back(ex.describe());
    }
    json.begin_object();
    json.field("check", ex.describe());
    json.field("pass", pass);
    json.end_object();
  }
  json.end_array();
}

// ---------------------------------------------------------------------------
// Ring scenarios: RingSimulation + QueryClient in simulator ticks.
// ---------------------------------------------------------------------------

struct TrafficSample {
  sim::Ticks at = 0;
  std::uint64_t repairs = 0;
  std::uint64_t claims = 0;
  std::uint64_t link_dropped = 0;
  bool connected = true;
};

/// `detection`, when set, observes the run's events like a trace sink; a
/// document with $.metrics.detection observes itself with its own sink.
RunOutcome run_ring(const Scenario& sc, const RunOptions& options,
                    DetectionSink* detection = nullptr) {
  using namespace hours::sim;

  RingSimConfig cfg;
  cfg.size = sc.ring.size;
  cfg.params = sc.ring.params;
  if (sc.ring.seed.has_value()) cfg.seed = *sc.ring.seed;
  cfg.probe_period = sc.ring.probe_period;
  cfg.probe_failure_threshold = sc.ring.probe_failure_threshold;
  cfg.liveness = sc.liveness;

  // Control run for the fixpoint check: identical ring, no faults, no
  // workload — its tables at the horizon are the no-fault fixpoint.
  std::unique_ptr<RingSimulation> control;
  if (sc.metrics.fixpoint) {
    control = std::make_unique<RingSimulation>(cfg);
    control->start();
    control->simulator().run(sc.horizon);
    HOURS_ASSERT(!control->simulator().truncated());
  }

  // Control run for the detection study: the same document with probe-only
  // liveness — this function again, untraced and with no controls of its
  // own — observed by its own sink.
  DetectionSummary probe_only;
  DetectionSink own_detection{cfg.size};
  if (sc.metrics.detection) {
    Scenario twin = sc;
    twin.liveness.mode = liveness::Mode::kProbeOnly;
    twin.metrics = MetricsSpec{};
    DetectionSink twin_detection{cfg.size};
    (void)run_ring(twin, RunOptions{options.quick, {}}, &twin_detection);
    probe_only = twin_detection.summarize(sc.horizon);
    detection = &own_detection;
  }

  RingSimulation ring{cfg};
  ring.start();

  // The JSONL trace and the detection sink see the ring, the injector and
  // the client; the adaptive attacker needs only the ring's events.
  trace::Tracer tracer;
  const auto jsonl = trace_file(sc, options);
  tracer.add_sink(jsonl.get());
  tracer.add_sink(detection);
  const bool observed = tracer.enabled();
  if (observed) ring.set_tracer(&tracer);
  std::unique_ptr<AdaptiveAttacker> attacker;
  if (sc.attacker.kind == AttackerKind::kAdaptive) {
    AdaptiveAttackerConfig acfg;
    acfg.neighborhood = sc.attacker.neighborhood;
    acfg.reaction_delay = sc.attacker.reaction_delay;
    acfg.strike_duration = sc.attacker.strike_duration;
    acfg.max_strikes = sc.attacker.max_strikes;
    acfg.cooldown = sc.attacker.cooldown;
    attacker = std::make_unique<AdaptiveAttacker>(ring, acfg);
    ring.set_tracer(&tracer);
    tracer.add_sink(attacker.get());
  }

  std::unique_ptr<FaultInjector> injector;
  if (!sc.fault_lines.empty()) {
    injector = std::make_unique<FaultInjector>(make_fault_target(ring), sc.faults);
    if (observed) injector->set_tracer(&tracer);
    injector->arm();
  }

  QueryClientConfig ccfg;
  ccfg.deadline = sc.ring.client_deadline;
  QueryClient client{make_query_network(ring), ccfg};
  if (observed) client.set_tracer(&tracer);

  auto& sim = ring.simulator();

  // The two self-rescheduling workload events, sample and submit, form the
  // scenario block of the ring's simulator: no arguments, state in this frame.
  std::vector<TrafficSample> samples;
  const std::uint64_t scale = options.quick ? 2 : 1;
  auto dest_samplers = make_samplers(sc, cfg.size);
  rng::Xoshiro256 workload_rng{sc.seed};
  std::vector<std::uint64_t> qids;
  const Ticks tail = ccfg.deadline + 2'000;
  const Ticks issue_until = sc.horizon > tail ? sc.horizon - tail : 0;
  sim.set_runner(snapshot::kScenarioSample, [&](std::uint32_t kind, const std::uint64_t*,
                                              std::size_t) {
    if (kind == snapshot::kScenarioSample) {
      // Repair traffic + connectivity at every window boundary. Sampled
      // unconditionally (cheap); emitted only when the document asks.
      TrafficSample s;
      s.at = sim.now();
      s.repairs = ring.repairs_sent();
      s.claims = ring.claims_sent();
      s.link_dropped = ring.messages_link_dropped();
      s.connected = ring.ring_connected();
      samples.push_back(s);
      if (sim.now() + sc.window <= sc.horizon) {
        sim.schedule(sc.window, snapshot::kScenarioSample, nullptr, 0);
      }
      return;
    }
    HOURS_ASSERT(kind == snapshot::kScenarioSubmit);
    const std::size_t phase = phase_at(sc.phases, sim.now());
    auto src = static_cast<ids::RingIndex>(workload_rng.below(cfg.size));
    if (sc.alive_sources) {
      for (std::uint32_t tries = 0; !ring.alive(src) && tries < cfg.size; ++tries) {
        src = static_cast<ids::RingIndex>(workload_rng.below(cfg.size));
      }
    }
    const auto dest = static_cast<ids::RingIndex>(
        dest_samplers[phase] == nullptr ? workload_rng.below(cfg.size)
                                        : dest_samplers[phase]->next());
    qids.push_back(client.submit(src, dest));
    const Ticks interval = sc.phases[phase].interval * scale;
    if (sim.now() + interval <= issue_until) {
      sim.schedule(interval, snapshot::kScenarioSubmit, nullptr, 0);
    }
  });
  sim.schedule(0, snapshot::kScenarioSample, nullptr, 0);
  if (sc.start <= issue_until) sim.schedule(sc.start, snapshot::kScenarioSubmit, nullptr, 0);
  sim.run(sc.horizon);
  HOURS_ASSERT(!sim.truncated());  // a silent event cap would skew availability
  tracer.flush();

  std::uint64_t unsettled = 0;
  metrics::Timeline timeline{sc.window};
  for (const auto qid : qids) {
    const auto& out = client.outcome(qid);
    if (out.status == QueryStatus::kPending) {
      ++unsettled;
      continue;
    }
    timeline.record(out.issued_at, out.status == QueryStatus::kDelivered, out.latency());
  }

  bool split_observed = false;
  for (const auto& s : samples) {
    if (!s.connected) split_observed = true;
  }
  const bool remerged = ring.ring_connected();
  bool fixpoint_matches = false;
  if (control != nullptr) {
    std::ostringstream healed;
    std::ostringstream never;
    for (ids::RingIndex i = 0; i < cfg.size; ++i) {
      healed << i << "->" << ring.cw_successor(i) << "/" << ring.ccw_neighbor(i) << ";";
      never << i << "->" << control->cw_successor(i) << "/" << control->ccw_neighbor(i) << ";";
    }
    fixpoint_matches = healed.str() == never.str();
  }
  DetectionSummary gossip;
  bool detection_improved = false;
  bool digest_budget_respected = false;
  if (sc.metrics.detection) {
    gossip = detection->summarize(sc.horizon);
    // Gossip must detect sooner: a lower median t_half, or, when both
    // medians are censored to the same episode length, a lower fraction of
    // pairs that never learned.
    detection_improved = gossip.median_t_half < probe_only.median_t_half ||
                         (gossip.median_t_half == probe_only.median_t_half &&
                          gossip.never_fraction < probe_only.never_fraction);
    digest_budget_respected = gossip.max_digest_entries <= sc.liveness.digest_budget;
  }

  RunOutcome outcome;
  JsonWriter json;
  json.begin_object();
  json.field("scenario", sc.name);
  json.field("kind", "ring");
  json.field("seed", sc.seed);
  json.field("size", cfg.size);
  json.field("horizon", sc.horizon);
  json.field("window", sc.window);
  render_plan(json, sc.fault_lines);
  if (sc.metrics.timeline) json.key("timeline").raw(timeline.to_json());
  if (sc.metrics.traffic) {
    // Sample i covers [sample[i].at, sample[i+1].at): deltas, not totals.
    std::map<std::uint64_t, metrics::Timeline::Window> delivery;
    for (const auto& w : timeline.windows()) delivery[w.start] = w;
    json.key("traffic").begin_array();
    for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
      const TrafficSample& a = samples[i];
      const TrafficSample& b = samples[i + 1];
      const metrics::Timeline::Window w =
          delivery.count(a.at) != 0 ? delivery[a.at] : metrics::Timeline::Window{};
      json.begin_object();
      json.field("start", a.at);
      json.field("attempts", w.attempts);
      json.field("delivered", w.delivered);
      json.field("delivery_ratio", w.delivery_ratio(), 4);
      json.field("repairs", b.repairs - a.repairs);
      json.field("claims", b.claims - a.claims);
      json.field("link_dropped", b.link_dropped - a.link_dropped);
      json.field("ring_connected", b.connected);
      json.end_object();
    }
    json.end_array();
  }
  if (sc.metrics.phases && !sc.metrics.phase_defs.empty()) {
    json.key("phases").begin_object();
    for (const auto& p : sc.metrics.phase_defs) {
      json.key(p.name).begin_object();
      json.field("delivery_ratio", timeline.delivery_ratio(p.from, p.until), 4);
      json.end_object();
    }
    json.end_object();
  }
  if (sc.metrics.client) render_client(json, client.stats());
  if (sc.metrics.faults && injector != nullptr) render_faults(json, injector->stats());
  if (sc.metrics.attacker && attacker != nullptr) {
    json.key("attacker").begin_object();
    json.field("adoptions_seen", attacker->adoptions_seen());
    json.field("strikes_launched", attacker->strikes_launched());
    json.end_object();
  }
  if (sc.metrics.counters) json.key("counters").raw(ring.registry().to_json());
  if (sc.metrics.fixpoint) {
    json.key("fixpoint").begin_object();
    json.field("split_observed", split_observed);
    json.field("remerged", remerged);
    json.field("fixpoint_matches", fixpoint_matches);
    json.end_object();
  }
  if (sc.metrics.detection) {
    json.key("detection").begin_object();
    json.key("probe_only");
    probe_only.render(json);
    json.key("gossip");
    gossip.render(json);
    json.end_object();
  }
  json.field("unsettled", unsettled);

  std::map<std::string, MetricPhase> phase_by_name;
  for (const auto& p : sc.metrics.phase_defs) phase_by_name[p.name] = p;
  const auto ratio = [&](const std::string& name) {
    const MetricPhase& p = phase_by_name.at(name);
    return timeline.delivery_ratio(p.from, p.until);
  };
  render_expectations(
      json, sc.metrics.expect,
      [&](const Expectation& ex) {
        switch (ex.kind) {
          case Expectation::Kind::kPhaseLt:
            return ratio(ex.left) < ratio(ex.right);
          case Expectation::Kind::kPhaseGe:
            return ratio(ex.left) >= ratio(ex.right);
          case Expectation::Kind::kFlag:
            if (ex.flag == "split_observed") return split_observed;
            if (ex.flag == "remerged") return remerged;
            if (ex.flag == "detection_improved") return detection_improved;
            if (ex.flag == "digest_budget_respected") return digest_budget_respected;
            return fixpoint_matches;
          case Expectation::Kind::kHitRateLt:
          case Expectation::Kind::kHitRateGe:
          case Expectation::Kind::kCounterGe:
          case Expectation::Kind::kCounterLt:
            break;  // validator rejects these on ring scenarios
        }
        return false;
      },
      outcome);
  json.end_object();
  outcome.json = json.str();
  return outcome;
}

// ---------------------------------------------------------------------------
// Hierarchy scenarios: HoursSystem + ConcurrentResolver in backend seconds.
// ---------------------------------------------------------------------------

struct WindowStats {
  std::uint64_t asked = 0;
  std::uint64_t answered = 0;
  std::uint64_t hits = 0;

  [[nodiscard]] double availability() const noexcept {
    return asked == 0 ? 0.0 : static_cast<double>(answered) / static_cast<double>(asked);
  }
  [[nodiscard]] double hit_rate() const noexcept {
    return asked == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(asked);
  }
};

WindowStats sum_phase(const std::vector<WindowStats>& windows, std::uint64_t width,
                      std::uint64_t from, std::uint64_t until) {
  WindowStats sum;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::uint64_t start = i * width;
    if (start < from || start >= until) continue;
    sum.asked += windows[i].asked;
    sum.answered += windows[i].answered;
    sum.hits += windows[i].hits;
  }
  return sum;
}

/// True while `t` falls inside any of the attacker's strike windows.
bool strike_covers(const Attacker& a, std::uint64_t t) {
  for (std::uint32_t s = 0; s < a.strikes; ++s) {
    const std::uint64_t begin = a.at + s * (a.duration + a.gap);
    if (t >= begin && t < begin + a.duration) return true;
  }
  return false;
}

RunOutcome run_hierarchy(const Scenario& sc, const RunOptions& options) {
  const bool defend = sc.liveness.mode == liveness::Mode::kGossip;
  HoursConfig cfg;
  cfg.overlay = sc.hierarchy.params;
  HoursSystem sys{cfg};

  const auto all = topology_names(sc.hierarchy.branching);
  const auto leaves = leaf_names(sc.hierarchy.branching);
  for (const auto& name : all) (void)sys.admit(name);
  for (const auto& leaf : leaves) {
    (void)sys.add_record(leaf, store::Record{"A", leaf, sc.hierarchy.record_ttl});
  }

  // The cache-busting attacker owns a side zone of resolvable leaves,
  // admitted after the main topology so leaf indexing is unchanged.
  std::vector<std::string> cb_names;
  if (sc.attacker.kind == AttackerKind::kCacheBusting) {
    (void)sys.admit("cb");
    for (std::uint64_t j = 0; j < sc.attacker.hosts; ++j) {
      std::string host = "n";
      host += std::to_string(j);
      host += ".cb";
      (void)sys.admit(host);
      (void)sys.add_record(host, store::Record{"A", host, sc.hierarchy.record_ttl});
      cb_names.push_back(host);
    }
  }

  EventBackend* event = nullptr;
  if (sc.hierarchy.backend == BackendKind::kEvent) {
    EventBackendConfig ecfg;
    ecfg.client.deadline = sc.hierarchy.client_deadline;
    ecfg.ticks_per_second = sc.hierarchy.ticks_per_second;
    ecfg.liveness = sc.liveness;
    event = &sys.use_event_backend(ecfg);

    sim::FaultPlan plan = sc.faults;
    if (sc.attacker.kind == AttackerKind::kStrike) {
      const std::uint64_t tps = sc.hierarchy.ticks_per_second;
      std::vector<std::uint32_t> victims;
      for (const auto& name : sc.attacker.victims) {
        victims.push_back(event->node_id(name).value());
      }
      plan.correlated_outage(std::move(victims), sc.attacker.at * tps,
                             sc.attacker.duration * tps, sc.attacker.strikes,
                             sc.attacker.gap * tps);
    }
    if (!(plan == sim::FaultPlan{})) (void)sys.schedule_faults(std::move(plan));
  }

  trace::Tracer tracer;
  const auto jsonl = trace_file(sc, options);
  tracer.add_sink(jsonl.get());
  if (tracer.enabled()) sys.set_tracer(&tracer);

  // `serial` is one shard, `concurrent` eight. liveness: gossip arms the
  // cache-busting defense — one NegativeCacheDigest shared by every shard,
  // refusing flagged-zone misses before they reach the authority.
  ConcurrentResolver resolver{sys, sc.hierarchy.resolver_capacity,
                              sc.hierarchy.resolver == ResolverKind::kConcurrent ? 8U : 1U};
  resolver.set_defense(NegativeCacheDefenseConfig{.enabled = defend});

  const std::uint64_t divisor = options.quick ? 2 : 1;
  auto samplers = make_samplers(sc, leaves.size());
  auto uniform_rng = std::make_shared<rng::Xoshiro256>(sc.seed);

  const std::size_t window_count =
      static_cast<std::size_t>((sc.horizon + sc.window - 1) / sc.window);
  std::vector<WindowStats> windows(window_count);
  WindowStats attacker_totals;
  std::uint64_t cb_cursor = 0;
  bool struck_down = false;

  const auto record = [&](WindowStats& totals, std::uint64_t at, const ResolveResult& r) {
    auto& w = windows[std::min<std::uint64_t>(at / sc.window, window_count - 1)];
    ++w.asked;
    ++totals.asked;
    if (r.answered) {
      ++w.answered;
      ++totals.answered;
    }
    if (r.from_cache) {
      ++w.hits;
      ++totals.hits;
    }
  };
  WindowStats legit_totals;

  while (sys.now() < sc.horizon) {
    const std::uint64_t t = sys.now();
    // Graph backend has no fault scheduler: the strike attacker is mirrored
    // with oracle set_alive toggles at the window boundaries.
    if (sc.hierarchy.backend == BackendKind::kGraph &&
        sc.attacker.kind == AttackerKind::kStrike) {
      const bool strike = strike_covers(sc.attacker, t);
      if (strike != struck_down) {
        for (const auto& v : sc.attacker.victims) (void)sys.set_alive(v, !strike);
        struck_down = strike;
      }
    }
    const std::size_t phase = phase_at(sc.phases, t);
    const std::uint64_t rate = std::max<std::uint64_t>(1, sc.phases[phase].rate / divisor);
    for (std::uint64_t q = 0; q < rate && sys.now() < sc.horizon; ++q) {
      const std::uint64_t at = sys.now();  // failed queries cost time
      const std::size_t pick = samplers[phase] == nullptr
                                   ? static_cast<std::size_t>(uniform_rng->below(leaves.size()))
                                   : samplers[phase]->next();
      record(legit_totals, at, resolver.resolve(leaves[pick], at));
    }
    if (sc.attacker.kind == AttackerKind::kCacheBusting && t >= sc.attacker.from &&
        t < sc.attacker.until) {
      for (std::uint64_t q = 0; q < sc.attacker.rate && sys.now() < sc.horizon; ++q) {
        const std::uint64_t at = sys.now();
        const std::string& name = cb_names[cb_cursor++ % cb_names.size()];
        record(attacker_totals, at, resolver.resolve(name, at));
      }
    }
    sys.advance(1);
  }
  tracer.flush();

  const ResolverStats rstats = resolver.stats();

  RunOutcome outcome;
  JsonWriter json;
  json.begin_object();
  json.field("scenario", sc.name);
  json.field("kind", "hierarchy");
  json.field("backend", sc.hierarchy.backend == BackendKind::kEvent ? "event" : "graph");
  json.field("seed", sc.seed);
  json.field("nodes", static_cast<std::uint64_t>(all.size()));
  json.field("leaves", static_cast<std::uint64_t>(leaves.size()));
  json.field("record_ttl", sc.hierarchy.record_ttl);
  json.field("horizon", sc.horizon);
  json.field("window", sc.window);
  render_plan(json, sc.fault_lines);
  if (sc.metrics.windows) {
    json.key("windows").begin_array();
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const auto& w = windows[i];
      json.begin_object();
      json.field("start", static_cast<std::uint64_t>(i * sc.window));
      json.field("asked", w.asked);
      json.field("answered", w.answered);
      json.field("hits", w.hits);
      json.field("availability", w.availability(), 4);
      json.field("hit_rate", w.hit_rate(), 4);
      json.end_object();
    }
    json.end_array();
  }
  if (sc.metrics.phases && !sc.metrics.phase_defs.empty()) {
    json.key("phases").begin_object();
    for (const auto& p : sc.metrics.phase_defs) {
      const WindowStats s = sum_phase(windows, sc.window, p.from, p.until);
      json.key(p.name).begin_object();
      json.field("availability", s.availability(), 4);
      json.field("hit_rate", s.hit_rate(), 4);
      json.end_object();
    }
    json.end_object();
  }
  if (sc.metrics.client && event != nullptr && event->client() != nullptr) {
    render_client(json, event->client()->stats());
  }
  if (sc.metrics.faults && event != nullptr) render_faults(json, event->fault_stats());
  if (sc.metrics.resolver) {
    json.key("resolver").begin_object();
    json.field("cache_hits", rstats.cache_hits);
    json.field("cache_misses", rstats.cache_misses);
    json.field("failures", rstats.failures);
    json.field("evictions", rstats.evictions);
    if (defend) {
      json.field("refusals", rstats.refusals);
      json.field("zones_flagged", rstats.zones_flagged);
    }
    json.field("hit_rate", rstats.hit_rate(), 4);
    json.end_object();
  }
  if (sc.metrics.attacker && sc.attacker.kind == AttackerKind::kCacheBusting) {
    json.key("attacker").begin_object();
    json.field("queries", attacker_totals.asked);
    json.field("answered", attacker_totals.answered);
    json.field("hits", attacker_totals.hits);
    json.end_object();
  }

  std::map<std::string, MetricPhase> phase_by_name;
  for (const auto& p : sc.metrics.phase_defs) phase_by_name[p.name] = p;
  const auto phase_stats = [&](const std::string& name) {
    const MetricPhase& p = phase_by_name.at(name);
    return sum_phase(windows, sc.window, p.from, p.until);
  };
  const auto counter_value = [&](const std::string& name) -> std::uint64_t {
    if (name == "cache_hits") return rstats.cache_hits;
    if (name == "cache_misses") return rstats.cache_misses;
    if (name == "failures") return rstats.failures;
    if (name == "evictions") return rstats.evictions;
    if (name == "refusals") return rstats.refusals;
    return rstats.zones_flagged;  // the validator admits no other name
  };
  render_expectations(
      json, sc.metrics.expect,
      [&](const Expectation& ex) {
        switch (ex.kind) {
          case Expectation::Kind::kPhaseLt:
            return phase_stats(ex.left).availability() < phase_stats(ex.right).availability();
          case Expectation::Kind::kPhaseGe:
            return phase_stats(ex.left).availability() >= phase_stats(ex.right).availability();
          case Expectation::Kind::kHitRateLt:
            return phase_stats(ex.left).hit_rate() < phase_stats(ex.right).hit_rate();
          case Expectation::Kind::kHitRateGe:
            return phase_stats(ex.left).hit_rate() >= phase_stats(ex.right).hit_rate();
          case Expectation::Kind::kCounterGe:
            return counter_value(ex.counter) >= ex.threshold;
          case Expectation::Kind::kCounterLt:
            return counter_value(ex.counter) < ex.threshold;
          case Expectation::Kind::kFlag:
            break;  // validator rejects flags on hierarchy scenarios
        }
        return false;
      },
      outcome);
  json.end_object();
  outcome.json = json.str();
  return outcome;
}

}  // namespace

RunOutcome run(const Scenario& scenario, const RunOptions& options) {
  return scenario.kind == SystemKind::kRing ? run_ring(scenario, options)
                                            : run_hierarchy(scenario, options);
}

std::vector<RunOutcome> run_matrix(const std::vector<Scenario>& scenarios, unsigned threads,
                                   const RunOptions& options) {
  return jobs::sweep<RunOutcome>(threads, scenarios.size(),
                                 [&scenarios, &options](std::size_t index) {
                                   return run(scenarios[index], options);
                                 });
}

}  // namespace hours::scenario
