#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "metrics/json_writer.hpp"
#include "overlay/table_builder.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "sim/simulator.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double ns_per_call(std::size_t calls, const std::function<void(std::size_t)>& fn, int reps) {
  std::vector<double> per_call;
  for (int r = 0; r < reps; ++r) {
    const auto start = now_ns();
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - start) / static_cast<double>(calls));
  }
  return median(per_call);
}

// -- Report ----------------------------------------------------------------------

void Report::gate(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back({name, ok, detail});
  if (!ok) std::printf("GATE FAILED %s: %s\n", name.c_str(), detail.c_str());
}

void Report::metric(const std::string& name, double value, const std::string& unit,
                    std::uint64_t samples, const std::string& note) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  if (!std::isfinite(value)) {
    gate("finite." + name, false, "metric is not a finite number");
    value = 0.0;
  }
  metrics_[name] = Metric{value, unit, samples, true, note};
}

void Report::idle(const std::string& name, const std::string& unit, const std::string& why) {
  if (metrics_.count(name) == 0) order_.push_back(name);
  metrics_[name] = Metric{0.0, unit, 0, false, why};
}

void Report::note(const std::string& text) {
  notes_.push_back(text);
  std::printf("note: %s\n", text.c_str());
}

bool Report::correct() const noexcept {
  return std::all_of(gates_.begin(), gates_.end(), [](const Gate& g) { return g.ok; });
}

double Report::value(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

int Report::finish() {
  if (options_.traced) {
    for (const auto& [name, unit] : per_layer_metrics()) {
      if (metrics_.count(name) == 0) idle(name, unit);
    }
  }

  std::printf("\n== %s seed=%" PRIu64 " %s ==\n", options_.workload.c_str(), options_.seed,
              options_.traced ? "traced" : "untraced");
  std::printf("%-34s %16s %-10s %10s\n", "metric", "value", "unit", "samples");
  for (const auto& name : order_) {
    const auto& m = metrics_.at(name);
    std::printf("%-34s %16.6g %-10s %10s%s%s\n", name.c_str(), m.value, m.unit.c_str(),
                m.samples == 0 ? "-" : std::to_string(m.samples).c_str(),
                m.note.empty() ? "" : "  # ", m.note.c_str());
  }
  std::printf("ops attempted=%" PRIu64 " failed=%" PRIu64 "\n", attempted_, failed_);
  for (const auto& g : gates_) {
    std::printf("gate %-40s %s%s%s\n", g.name.c_str(), g.ok ? "ok" : "FAILED",
                g.detail.empty() ? "" : "  ", g.detail.c_str());
  }

  using hours::metrics::JsonWriter;
  JsonWriter json;
  json.begin_object();
  json.field("workload", options_.workload);
  json.field("seed", options_.seed);
  json.field("seconds", options_.seconds);
  json.field("traced", options_.traced);
  json.key("provenance");
  json.begin_object();
  json.field("commit", options_.commit);
  json.field("build_type", PERFBENCH_BUILD_TYPE);
  json.field("compiler", "g++ " __VERSION__);
  json.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  json.field("seed", options_.seed);
  json.end_object();
  json.field("correct", correct());
  json.key("gates");
  json.begin_array();
  for (const auto& g : gates_) {
    json.begin_object();
    json.field("name", g.name);
    json.field("ok", g.ok);
    json.field("detail", g.detail);
    json.end_object();
  }
  json.end_array();
  json.field("attempted", attempted_);
  json.field("failed", failed_);
  json.field("fingerprint", fingerprint_);
  json.key("metrics");
  json.begin_object();
  for (const auto& name : order_) {
    const auto& m = metrics_.at(name);
    json.key(name);
    json.begin_object();
    json.field("value", m.value, 9);
    json.field("unit", m.unit);
    json.field("samples", m.samples);
    json.field("applicable", m.applicable);
    if (!m.note.empty()) json.field("note", m.note);
    json.end_object();
  }
  json.end_object();
  json.key("notes");
  json.begin_array();
  for (const auto& n : notes_) json.value(n);
  json.end_array();
  json.end_object();

  if (!options_.out_path.empty()) {
    std::ofstream out{options_.out_path};
    out << json.str() << "\n";
  }
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

// -- windowed op timings -------------------------------------------------------------

void WindowedTimings::merge(const WindowedTimings& other) {
  for (std::size_t w = 0; w < hist.size(); ++w) {
    hist[w].merge(other.hist[w]);
    ops[w] += other.ops[w];
  }
}

LatencyHistogram WindowedTimings::total() const {
  LatencyHistogram all;
  for (const auto& h : hist) all.merge(h);
  return all;
}

void report_op_timings(Report& report, const WindowedTimings& timings) {
  const auto whole = summarize(timings.total());
  std::vector<double> rates;
  std::vector<std::size_t> windows;  ///< the windows behind `rates`
  double total_wall = 0.0;
  std::uint64_t total_ops = 0;
  for (std::size_t w = 0; w < timings.hist.size(); ++w) {
    total_wall += timings.wall_s[w];
    total_ops += timings.ops[w];
    if (timings.wall_s[w] <= 0.0 || timings.ops[w] == 0) continue;
    rates.push_back(static_cast<double>(timings.ops[w]) / timings.wall_s[w]);
    windows.push_back(w);
  }
  LatencyHistogram slow;
  std::uint64_t slow_ops = 0;
  double slow_wall = 0.0;
  for (const auto i : slowest_tenth(rates)) {
    slow.merge(timings.hist[windows[i]]);
    slow_ops += timings.ops[windows[i]];
    slow_wall += timings.wall_s[windows[i]];
  }
  const auto tenth = summarize(slow);
  const std::string pool = "slowest " + std::to_string((rates.size() + 9) / 10) + " of " +
                           std::to_string(rates.size()) + " windows";
  report.metric("ops_per_s", slow_wall > 0.0 ? static_cast<double>(slow_ops) / slow_wall : 0.0,
                "1/s", slow_ops,
                pool + "; median window " + std::to_string(median(rates)) +
                    ", window IQR/median " + std::to_string(iqr_share(rates)));
  report.metric("op_p50_us", tenth.p50 / 1e3, "us", tenth.samples,
                pool + "; whole run " + std::to_string(whole.p50 / 1e3));
  // The tail pools every sample of the run: the pool's p99 follows the few
  // stalls inside its windows, and spread up to 2.6x wider over five seeds.
  if (whole.p99) {
    report.metric("op_p99_us", *whole.p99 / 1e3, "us", whole.samples,
                  "whole run; " + pool + " " +
                      (tenth.p99 ? std::to_string(*tenth.p99 / 1e3) : tenth.note));
  } else {
    report.note("op_p99_us: " + whole.note);
  }
  if (whole.tail) {
    report.note(std::string{"op latency "} + whole.tail->label + " = " +
                std::to_string(whole.tail_value / 1e3) + " us over " +
                std::to_string(whole.samples) + " samples (not gated)");
  }
  std::string per_window = "window ops/s:";
  for (const double r : rates) {
    per_window += " " + std::to_string(static_cast<std::uint64_t>(r));
  }
  report.note(per_window);
  report.note("timed phase: " + std::to_string(total_ops) + " ops in " +
              std::to_string(total_wall) + " s; whole-run ops/s " +
              std::to_string(total_wall > 0 ? static_cast<double>(total_ops) / total_wall
                                            : 0.0));
}

// -- spans --------------------------------------------------------------------------

SpanLog::SpanLog(std::size_t threads, bool keep)
    : capacity_(keep ? kCapacityPerThread : 0), buffers_(threads), totals_(threads) {
  for (auto& b : buffers_) b.reserve(capacity_);
}

std::uint32_t SpanLog::name_id(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.push_back(name);
  for (auto& t : totals_) t.resize(names_.size());
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanLog::add(std::size_t thread, std::uint32_t name, std::uint32_t parent,
                           std::uint64_t request, std::int64_t start, std::int64_t end) {
  auto& totals = totals_[thread][name];
  ++totals.calls;
  totals.total_ns += end - start;
  auto& buffer = buffers_[thread];
  if (buffer.size() >= capacity_) return 0;
  ++totals.kept;
  buffer.push_back(Span{name, parent, request, start, end});
  // Ids are 1-based, thread-tagged in the top byte.
  return static_cast<std::uint32_t>((thread << 24) | buffer.size());
}

void SpanLog::print_summary() const {
  // Children per parent id, over kept spans of every thread.
  std::map<std::uint32_t, std::vector<Interval>> children;
  for (const auto& buffer : buffers_) {
    for (const auto& s : buffer) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::vector<std::int64_t> self_ns(names_.size(), 0);
  std::vector<std::int64_t> kept_ns(names_.size(), 0);
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    for (std::size_t i = 0; i < buffers_[t].size(); ++i) {
      const auto& s = buffers_[t][i];
      const auto id = static_cast<std::uint32_t>((t << 24) | (i + 1));
      const auto it = children.find(id);
      kept_ns[s.name] += s.end - s.start;
      self_ns[s.name] += it == children.end()
                             ? s.end - s.start
                             : self_time({s.start, s.end}, it->second);
    }
  }
  std::printf("\n%-22s %12s %12s %14s %14s\n", "span", "calls", "kept", "kept_total_s",
              "kept_self_s");
  for (std::size_t n = 0; n < names_.size(); ++n) {
    std::uint64_t calls = 0;
    std::uint64_t kept = 0;
    for (const auto& t : totals_) {
      calls += t[n].calls;
      kept += t[n].kept;
    }
    std::printf("%-22s %12" PRIu64 " %12" PRIu64 " %14.6f %14.6f\n", names_[n].c_str(), calls,
                kept, static_cast<double>(kept_ns[n]) / 1e9,
                static_cast<double>(self_ns[n]) / 1e9);
  }
}

// -- counting sink ---------------------------------------------------------------------

void CountingSink::on_event(const hours::trace::Event& event) {
  ++total_;
  ++by_type_[static_cast<std::size_t>(event.type)];
  if (event.type == hours::trace::EventType::kDrop && event.value < drops_.size()) {
    ++drops_[event.value];
  }
}

std::uint64_t CountingSink::count(hours::trace::EventType type) const {
  return by_type_[static_cast<std::size_t>(type)];
}

std::uint64_t CountingSink::drops(hours::trace::DropReason reason) const {
  return drops_[static_cast<std::size_t>(reason)];
}

void report_sink_counts(Report& report, const CountingSink& sink) {
  using hours::trace::DropReason;
  using hours::trace::EventType;
  report.metric("sim.drops.loss", static_cast<double>(sink.drops(DropReason::kLoss)), "count");
  report.metric("sim.drops.dead_recipient",
                static_cast<double>(sink.drops(DropReason::kDeadRecipient)), "count");
  report.metric("sim.drops.mid_flight_death",
                static_cast<double>(sink.drops(DropReason::kMidFlightDeath)), "count");
  report.metric("sim.drops.severed_link",
                static_cast<double>(sink.drops(DropReason::kSeveredLink)), "count");
  const std::pair<const char*, EventType> hops[] = {
      {"sim.hops.hier_hop", EventType::kHierHop},
      {"sim.hops.detour_enter", EventType::kDetourEnter},
      {"sim.hops.ring_hop", EventType::kRingHop},
      {"sim.hops.backward_hop", EventType::kBackwardHop},
      {"sim.hops.nephew_exit", EventType::kNephewExit},
  };
  for (const auto& [name, type] : hops) {
    report.metric(name, static_cast<double>(sink.count(type)), "count");
  }
}

// -- shared inner-layer timings ----------------------------------------------------------

void report_table_builds(Report& report, std::uint64_t seed) {
  hours::overlay::OverlayParams params;
  params.seed = hours::rng::mix64(seed, 5);
  const hours::overlay::ChildCountFn hundred_children = [](hours::ids::RingIndex) {
    return 100U;
  };
  report.metric("overlay.table_build_us_100",
                ns_per_call(200, [&](std::size_t i) {
                  keep(hours::overlay::build_routing_table(
                           100, static_cast<hours::ids::RingIndex>(i % 100), params,
                           hundred_children)
                           .size());
                }) / 1e3,
                "us", 200, "Algorithm 1 table, ring of 100 with 100 children each");
  report.metric("overlay.table_build_us_10000",
                ns_per_call(200, [&](std::size_t i) {
                  keep(hours::overlay::build_routing_table(
                           10'000, static_cast<hours::ids::RingIndex>(i * 37), params)
                           .size());
                }) / 1e3,
                "us", 200, "Algorithm 1 table, ring of 10,000 without children");
}

double wheel_ns(std::size_t depth, std::uint64_t seed) {
  hours::sim::Simulator sim;
  sim.set_runner([](std::uint32_t, const std::uint64_t*, std::size_t) {});
  hours::rng::Xoshiro256 rng{hours::rng::mix64(seed, 11)};
  // Transport-delivery-shaped events spread over one probe period ahead.
  const std::uint64_t args[6] = {1, 2, 3, 4, 0, 5};
  for (std::size_t i = 0; i < depth; ++i) {
    sim.schedule(1 + rng.below(1000), hours::snapshot::kTransportDelivery, args, 6);
  }
  return ns_per_call(100'000, [&](std::size_t) {
    sim.schedule(1 + rng.below(1000), hours::snapshot::kTransportDelivery, args, 6);
    keep(sim.run(0, 1));
  });
}

// -- reconciliation -------------------------------------------------------------------

void Reconciliation::report(Report& report) const {
  double explained = 0.0;
  std::printf("\nreconciliation (denominator %.6f s):\n", wall_s);
  for (const auto& t : terms) {
    if (t.count_known) {
      explained += t.cost_s * t.count;
      std::printf("  %-28s %12.3f ns/call x %14.0f calls = %10.6f s\n", t.layer.c_str(),
                  t.cost_s * 1e9, t.count, t.cost_s * t.count);
    } else {
      std::printf("  %-28s %12.3f ns/call x  count unavailable\n", t.layer.c_str(),
                  t.cost_s * 1e9);
    }
  }
  const double share = wall_s > 0.0 ? explained / wall_s : 0.0;
  std::printf("  explained %.6f s of %.6f s (share %.4f); unexplained remainder %.6f s\n",
              explained, wall_s, share, wall_s - explained);
  report.metric("explained_share", share, "ratio");
  report.metric("unexplained_s", wall_s - explained, "s");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"hours.probe_ns", "ns"},
      {"hours.hit_ratio", "ratio"},
      {"hours.publish_us", "us"},
      {"hours.evictions", "count"},
      {"hours.miss_us", "us"},
      {"hours.miss_wait_us", "us"},
      {"hours.lookup_us", "us"},
      {"hours.admit_us", "us"},
      {"hours.mirror_build_s", "s"},
      {"naming.parse_ns", "ns"},
      {"crypto.sha1_ns", "ns"},
      {"hierarchy.resolve_paths_us", "us"},
      {"hierarchy.route_us", "us"},
      {"hierarchy.hops", "hops/query"},
      {"hierarchy.overlay_hops", "hops/query"},
      {"hierarchy.backward_steps", "steps/query"},
      {"overlay.table_build_us_100", "us"},
      {"overlay.table_build_us_10000", "us"},
      {"overlay.forward_ns", "ns"},
      {"store.records_at_ns", "ns"},
      {"sim.events", "count"},
      {"sim.events_per_op", "events/op"},
      {"sim.event_ns", "ns"},
      {"sim.wheel_ns", "ns"},
      {"sim.pending_max", "count"},
      {"sim.messages", "count"},
      {"sim.drops.loss", "count"},
      {"sim.drops.dead_recipient", "count"},
      {"sim.drops.mid_flight_death", "count"},
      {"sim.drops.severed_link", "count"},
      {"sim.client.retransmissions", "count"},
      {"sim.client.failovers", "count"},
      {"sim.client.deadline_exceeded", "count"},
      {"sim.client.no_route", "count"},
      {"sim.client.useful_share", "ratio"},
      {"sim.latency_p50_ticks", "ticks"},
      {"sim.latency_p99_ticks", "ticks"},
      {"sim.route_candidates_ns", "ns"},
      {"sim.hop_timeouts", "count"},
      {"sim.hops.hier_hop", "count"},
      {"sim.hops.detour_enter", "count"},
      {"sim.hops.ring_hop", "count"},
      {"sim.hops.backward_hop", "count"},
      {"sim.hops.nephew_exit", "count"},
      {"sim.ring.probes_sent", "count"},
      {"sim.ring.repairs_sent", "count"},
      {"sim.ring.claims_sent", "count"},
      {"sim.ring.recovery_start", "count"},
      {"sim.ring.recovery_adopt", "count"},
      {"sim.ring.recovery_complete", "count"},
      {"sim.ring.quiet_periods_to_connect", "count"},
      {"liveness.rows", "count"},
      {"liveness.digests_sent", "count"},
      {"liveness.digest_entries_sent", "count"},
      {"liveness.gossip_adopted", "count"},
      {"liveness.build_digest_ns", "ns"},
      {"liveness.adopt_ns", "ns"},
      {"liveness.is_suspected_ns", "ns"},
      {"explained_share", "ratio"},
      {"unexplained_s", "s"},
  };
  return kMetrics;
}

}  // namespace perfbench
