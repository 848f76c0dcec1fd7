// serve_hot and serve_churn: closed-loop client threads resolving
// Zipf-ranked names through hours::ConcurrentResolver over a graph-backend
// HoursSystem. See perfbench/README.md for why each exists.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "hierarchy/router.hpp"
#include "hours/concurrent_resolver.hpp"
#include "ids/identifier.hpp"
#include "rng/splitmix64.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using hours::store::Record;

struct ServeShape {
  std::uint32_t zones = 0;
  std::uint32_t hosts = 0;
  std::size_t capacity = 0;
  std::uint64_t record_ttl = 0;
  /// Struck siblings around one seeded zone (0 = no strike).
  std::uint32_t strike_siblings = 0;
  /// Logical seconds advance 1 per this many resolves per thread (0 = the
  /// clock stands still).
  std::uint64_t resolves_per_second = 0;
  bool warm_every_name = false;  ///< else: fill with the top `capacity` ranks
  unsigned threads = 0;          ///< closed-loop client threads
  /// Clients of the traced run's lock-contention phase (0 = no such phase).
  unsigned contended_threads = 0;
};

constexpr ServeShape kHot{16, 1000, 32768, 86400, 0, 0, true, 3, 0};
/// Capacity 1,024 keeps about two thirds of resolves missing, so the median
/// op is a miss; at 4,096 the miss share sat near one half and p50 jumped
/// between the hit and the miss mode from seed to seed. The timed phase has
/// one client: with two, ops_per_s and op_p99_us spread 0.23 and 0.42
/// (IQR/median) over five seeds, and with three, lock-holder preemption swung
/// p99 between 0.2 and 6 ms. Lock wait is measured in the traced run's
/// two-client phase instead.
constexpr ServeShape kChurn{100, 1000, 1024, 300, 20, 200, false, 1, 2};
constexpr std::uint64_t kContendedSeconds = 3;

constexpr unsigned kShards = 16;
constexpr double kZipf = 0.9;

/// One complete serving set-up: facade, records, strike, warm cache.
struct ServeState {
  std::vector<std::string> names;
  std::vector<std::vector<Record>> expected;  ///< the installed answer per name
  std::vector<std::uint32_t> rank_to_name;
  std::unique_ptr<hours::HoursSystem> sys;
  std::unique_ptr<hours::ConcurrentResolver> resolver;  ///< destroyed before sys
  double admit_s = 0.0;
  std::string struck_zone;
  std::string setup_errors;  ///< empty when every set-up step succeeded
};

std::unique_ptr<ServeState> set_up(const ServeShape& shape, std::uint64_t seed) {
  auto state = std::make_unique<ServeState>();
  const std::size_t n = static_cast<std::size_t>(shape.zones) * shape.hosts;
  state->names.reserve(n);
  state->expected.reserve(n);
  state->rank_to_name = seeded_permutation(n, seed, 1);
  state->sys = std::make_unique<hours::HoursSystem>();
  auto& sys = *state->sys;

  const auto admit_start = now_ns();
  bool admitted = true;
  for (std::uint32_t z = 0; z < shape.zones; ++z) {
    const std::string zone = "z" + std::to_string(z);
    admitted &= sys.admit(zone).ok();
    for (std::uint32_t h = 0; h < shape.hosts; ++h) {
      std::string name = "h" + std::to_string(h) + "." + zone;
      admitted &= sys.admit(name).ok();
      Record record{"A",
                    "10." + std::to_string(z) + "." + std::to_string(h / 256) + "." +
                        std::to_string(h % 256),
                    shape.record_ttl};
      admitted &= sys.add_record(name, record).ok();
      state->expected.push_back({std::move(record)});
      state->names.push_back(std::move(name));
    }
  }
  state->admit_s = seconds_between(admit_start, now_ns());
  if (!admitted) state->setup_errors += "admission failed; ";

  if (shape.strike_siblings > 0) {
    hours::rng::Xoshiro256 rng{hours::rng::mix64(seed, 2)};
    state->struck_zone = "z" + std::to_string(rng.below(shape.zones));
    if (!sys.strike(state->struck_zone, hours::attack::Strategy::kNeighbor,
                    shape.strike_siblings)
             .ok()) {
      state->setup_errors += "strike on " + state->struck_zone + " failed; ";
    }
    // One lookup per zone materializes every overlay a miss can cross.
    for (std::uint32_t z = 0; z < shape.zones; ++z) {
      (void)sys.lookup(state->names[static_cast<std::size_t>(z) * shape.hosts]);
    }
  }

  state->resolver = std::make_unique<hours::ConcurrentResolver>(sys, shape.capacity, kShards);
  std::size_t warm_failures = 0;
  const std::size_t warm = shape.warm_every_name ? n : std::min(n, shape.capacity);
  for (std::size_t r = 0; r < warm; ++r) {
    const auto idx = state->rank_to_name[r];
    if (!state->resolver->resolve(state->names[idx], 0).answered) ++warm_failures;
  }
  if (warm_failures != 0) {
    state->setup_errors += std::to_string(warm_failures) + " unanswered while warming; ";
  }
  return state;
}

/// What a closed-loop phase left behind, merged over its client threads.
struct LoopResult {
  explicit LoopResult(std::size_t windows) : timings(windows) {}
  WindowedTimings timings;
  LatencyHistogram miss_latency;  ///< resolve calls that missed the cache
  std::int64_t miss_ns = 0;       ///< their summed wall time
  std::uint64_t ops = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t wrong = 0;
  std::uint64_t misses = 0;
  std::vector<std::uint32_t> miss_names;  ///< first misses, for inner timing
  std::int64_t start = 0;
  std::int64_t end = 0;

  [[nodiscard]] double mean_miss_us() const {
    return misses == 0 ? 0.0 : static_cast<double>(miss_ns) / static_cast<double>(misses) / 1e3;
  }

  void merge(const LoopResult& other) {
    timings.merge(other.timings);
    miss_latency.merge(other.miss_latency);
    miss_ns += other.miss_ns;
    ops += other.ops;
    unanswered += other.unanswered;
    wrong += other.wrong;
    misses += other.misses;
    miss_names.insert(miss_names.end(), other.miss_names.begin(), other.miss_names.end());
  }
};

/// Where a traced phase records one span per resolve call.
struct LoopSpans {
  SpanLog* log = nullptr;
  std::uint32_t hit = 0;
  std::uint32_t miss = 0;
  std::uint32_t parent = 0;
};

/// `threads` closed-loop clients resolve Zipf(0.9)-ranked names for
/// `seconds`. Client t samples from stream `stream + t` of the seed; its
/// logical clock starts as if it had already made `clock_ops` resolves.
LoopResult closed_loop(const ServeState& state, const ServeShape& shape, unsigned threads,
                       std::uint64_t seconds, std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t clock_ops, const LoopSpans* spans) {
  auto& resolver = *state.resolver;
  const std::size_t n = state.names.size();
  const std::size_t windows = kWindowsPerSecond * seconds;
  const auto duration = static_cast<std::int64_t>(seconds) * 1'000'000'000LL;
  const std::int64_t window = duration / static_cast<std::int64_t>(windows);
  const std::int64_t start = now_ns() + 2'000'000;  // threads spin up first
  const std::int64_t stop = start + duration;
  std::vector<LoopResult> results(threads, LoopResult{windows});
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      LoopResult& out = results[t];
      hours::workload::ZipfSampler zipf{n, kZipf, hours::rng::mix64(seed, stream + t)};
      while (now_ns() < start) {
      }
      for (;;) {
        const auto idx = state.rank_to_name[zipf.next()];
        const std::uint64_t clock = shape.resolves_per_second == 0
                                        ? 1
                                        : 1 + (clock_ops + out.ops) / shape.resolves_per_second;
        const auto t0 = now_ns();
        if (t0 >= stop) break;
        const auto answer = resolver.resolve(state.names[idx], clock);
        const auto t1 = now_ns();
        const auto w = std::min<std::size_t>(static_cast<std::size_t>((t0 - start) / window),
                                             windows - 1);
        out.timings.hist[w].record(static_cast<std::uint64_t>(t1 - t0));
        ++out.timings.ops[w];
        ++out.ops;
        if (!answer.from_cache) {
          ++out.misses;
          out.miss_latency.record(static_cast<std::uint64_t>(t1 - t0));
          out.miss_ns += t1 - t0;
          if (out.miss_names.size() < 1000) out.miss_names.push_back(idx);
        }
        if (spans != nullptr) {
          spans->log->add(t, answer.from_cache ? spans->hit : spans->miss, spans->parent,
                          (static_cast<std::uint64_t>(t) << 40) | out.ops, t0, t1);
        }
        // Correctness, outside the timed interval.
        if (!answer.answered) {
          ++out.unanswered;
        } else if (answer.records != state.expected[idx]) {
          ++out.wrong;
        }
      }
    });
  }
  for (auto& thread : pool) thread.join();
  LoopResult merged{windows};
  for (const auto& r : results) merged.merge(r);
  std::fill(merged.timings.wall_s.begin(), merged.timings.wall_s.end(),
            static_cast<double>(window) / 1e9);
  merged.start = start;
  merged.end = now_ns();
  return merged;
}

int run_serve(const ServeShape& shape, const Options& options) {
  Report report{options};
  const auto state = timed_set_ups(report, [&] { return set_up(shape, options.seed); });
  report.gate("setup", state->setup_errors.empty(), state->setup_errors);
  auto& resolver = *state->resolver;
  auto& sys = *state->sys;
  const std::size_t n = state->names.size();
  const auto stats_before = resolver.stats();

  // Traced runs count facade events; the authority mutex serializes every
  // facade call, so the single-threaded tracer is safe behind it.
  CountingSink sink;
  hours::trace::Tracer tracer;
  const unsigned threads = shape.threads;
  SpanLog spans(threads + 1, options.traced);
  const auto span_phase = spans.name_id("timed_phase");
  // The phase span's id is known before it closes: thread slot `threads`, #1.
  const LoopSpans loop_spans{&spans, spans.name_id("resolve.hit"),
                             spans.name_id("resolve.miss"), (threads << 24) | 1U};
  if (options.traced) {
    tracer.add_sink(&sink);
    sys.set_tracer(&tracer);
  }
  const auto loop = closed_loop(*state, shape, threads, options.seconds, options.seed, 100, 0,
                                options.traced ? &loop_spans : nullptr);
  spans.add(threads, span_phase, 0, 0, loop.start, loop.end);
  sys.set_tracer(nullptr);
  const auto& timings = loop.timings;
  const std::uint64_t ops = loop.ops;
  const std::uint64_t unanswered = loop.unanswered;
  const std::uint64_t wrong = loop.wrong;
  const std::uint64_t misses = loop.misses;
  auto miss_names = loop.miss_names;
  const double wall_s = seconds_between(loop.start, loop.end);

  report.set_ops(ops, unanswered + wrong);
  report_op_timings(report, timings);
  report.metric("delivered_share",
                ops == 0 ? 0.0
                         : static_cast<double>(ops - unanswered) / static_cast<double>(ops),
                "ratio", ops);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.gate("answers_match_installed_records", wrong == 0,
              std::to_string(wrong) + " answers differ from the installed A record");
  const std::size_t per_shard = (shape.capacity + kShards - 1) / kShards;
  report.gate("cached_names_within_shard_bound", resolver.cached_names() <= kShards * per_shard,
              std::to_string(resolver.cached_names()) + " cached, bound " +
                  std::to_string(kShards * per_shard));
  report.gate("ops_completed", ops > 0, std::to_string(ops) + " resolves");
  report.note(std::to_string(threads) + " closed-loop client thread(s), " +
              std::to_string(n) + " names, capacity " + std::to_string(shape.capacity) +
              (state->struck_zone.empty() ? "" : ", struck zone " + state->struck_zone) +
              "; " + std::to_string(misses) + " misses of " + std::to_string(ops) +
              " resolves");

  if (!options.traced) return report.finish();

  // -- per-layer: counters over the timed phase ---------------------------------------
  const auto stats_after = resolver.stats();
  const auto hits = stats_after.cache_hits - stats_before.cache_hits;
  const auto forwarded = (stats_after.cache_misses - stats_before.cache_misses) +
                         (stats_after.failures - stats_before.failures);
  report.metric("hours.hit_ratio",
                hits + forwarded == 0 ? 0.0
                                      : static_cast<double>(hits) /
                                            static_cast<double>(hits + forwarded),
                "ratio", hits + forwarded);
  report.metric("hours.evictions",
                static_cast<double>(stats_after.evictions - stats_before.evictions), "count");
  report.metric("hours.admit_us",
                state->admit_s * 1e6 / static_cast<double>(n + shape.zones), "us",
                n + shape.zones, "admission loop of the kept set-up, per admit+record");
  report.note("facade trace events during the timed phase: " + std::to_string(sink.total()));

  // -- per-layer: inner calls timed on this run's state and inputs ----------------------
  hours::workload::ZipfSampler zipf{n, kZipf, hours::rng::mix64(options.seed, 99)};
  std::vector<std::uint32_t> sample(20'000);
  for (auto& s : sample) s = state->rank_to_name[zipf.next()];
  if (miss_names.empty()) miss_names.assign(sample.begin(), sample.begin() + 1000);
  const std::uint64_t end_clock =
      shape.resolves_per_second == 0 ? 1 : 1 + ops / threads / shape.resolves_per_second;

  std::vector<Record> out;
  const double probe_ns = ns_per_call(sample.size(), [&](std::size_t i) {
    keep(resolver.peek(state->names[sample[i]], end_clock, &out));
  });
  report.metric("hours.probe_ns", probe_ns, "ns", sample.size(),
                "ConcurrentResolver::peek, one thread, Zipf names at the end state");

  std::vector<hours::naming::Name> parsed;
  for (const auto idx : miss_names) {
    parsed.push_back(hours::naming::Name::parse(state->names[idx]).value());
  }
  double hops = 0;
  double overlay_hops = 0;
  double backward = 0;
  std::vector<hours::hierarchy::NodePath> paths;
  const double lookup_ns = ns_per_call(
      miss_names.size(),
      [&](std::size_t i) {
        const auto result = sys.lookup(state->names[miss_names[i]]);
        keep(result.records.size());
        hops += result.query.hops;
        overlay_hops += result.query.overlay_hops;
        backward += result.query.backward_steps;
      },
      1);
  const double lookups = static_cast<double>(miss_names.size());
  report.metric("hours.lookup_us", lookup_ns / 1e3, "us", miss_names.size(),
                "HoursSystem::lookup on this run's miss names");
  report.metric("hierarchy.hops", hops / lookups, "hops/query", miss_names.size());
  report.metric("hierarchy.overlay_hops", overlay_hops / lookups, "hops/query",
                miss_names.size());
  report.metric("hierarchy.backward_steps", backward / lookups, "steps/query",
                miss_names.size());

  const double resolve_paths_ns = ns_per_call(parsed.size(), [&](std::size_t i) {
    auto p = sys.hierarchy().resolve_paths(parsed[i]);
    if (paths.size() < parsed.size() && !p.empty()) paths.push_back(p.front());
    keep(p.size());
  });
  report.metric("hierarchy.resolve_paths_us", resolve_paths_ns / 1e3, "us", parsed.size());
  hours::hierarchy::Router router{sys.hierarchy(), hours::rng::mix64(options.seed, 3)};
  const double route_ns = ns_per_call(paths.size(), [&](std::size_t i) {
    keep(router.route(paths[i]).hops);
  });
  report.metric("hierarchy.route_us", route_ns / 1e3, "us", paths.size(),
                "hierarchy::Router::route on the miss names' paths");

  report.metric("naming.parse_ns", ns_per_call(sample.size(), [&](std::size_t i) {
                  keep(hours::naming::Name::parse(state->names[sample[i]]).ok());
                }),
                "ns", sample.size());
  report.metric("crypto.sha1_ns", ns_per_call(sample.size(), [&](std::size_t i) {
                  keep(hours::ids::Identifier::from_name(state->names[sample[i]]).top64());
                }),
                "ns", sample.size());
  report.metric("store.records_at_ns", ns_per_call(parsed.size(), [&](std::size_t i) {
                  keep(sys.records().records_at(parsed[i]).size());
                }),
                "ns", parsed.size());

  // Root overlay: zone ring (with the struck block on serve_churn).
  auto& root_overlay = sys.hierarchy().overlay_of({});
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  hours::rng::Xoshiro256 pick{hours::rng::mix64(options.seed, 4)};
  while (pairs.size() < 2000) {
    const auto from = static_cast<std::uint32_t>(pick.below(root_overlay.size()));
    const auto od = static_cast<std::uint32_t>(pick.below(root_overlay.size()));
    if (root_overlay.alive(from)) pairs.emplace_back(from, od);
  }
  report.metric("overlay.forward_ns", ns_per_call(pairs.size(), [&](std::size_t i) {
                  keep(root_overlay.forward(pairs[i].first, pairs[i].second).hops);
                }),
                "ns", pairs.size(), "Overlay::forward on the zone ring");
  report_table_builds(report, options.seed);

  // Publish at this run's shard occupancy. On serve_churn the names are not
  // cached, so each publish evicts.
  const std::size_t publishes = 1000;
  std::vector<std::uint32_t> publish_names;
  for (std::size_t i = 0; publish_names.size() < publishes && i < n; ++i) {
    const auto idx = state->rank_to_name[n - 1 - i];  // least popular first
    if (shape.warm_every_name || !resolver.peek(state->names[idx], end_clock, &out)) {
      publish_names.push_back(idx);
    }
  }
  const double publish_ns = ns_per_call(
      publish_names.size(),
      [&](std::size_t i) {
        resolver.insert(state->names[publish_names[i]], end_clock,
                        state->expected[publish_names[i]]);
      },
      1);
  report.metric("hours.publish_us", publish_ns / 1e3, "us", publish_names.size(),
                "ConcurrentResolver::insert at the run's shard occupancy");

  Reconciliation rec;
  rec.wall_s = wall_s * threads;
  rec.add("hours.probe (hits)", probe_ns / 1e9, static_cast<double>(hits));
  if (misses > 0) {
    rec.add("hours.lookup (misses)", lookup_ns / 1e9, static_cast<double>(forwarded));
    rec.add("hours.publish (misses)", publish_ns / 1e9, static_cast<double>(forwarded));
  }

  // hours (authority lock): in the timed phase one client never waits for the
  // mutex, so a further phase runs two clients on the same state and clock.
  // The wait is the mean miss of that phase minus the mean miss of the timed
  // phase, whose misses do the same work unopposed. A mean, not a median:
  // std::mutex lets the releasing thread take the lock straight back, so the
  // waits pile up on few misses and the median miss shows none of them.
  if (shape.contended_threads > 0) {
    const auto contended = closed_loop(*state, shape, shape.contended_threads,
                                       kContendedSeconds, options.seed, 200, ops / threads,
                                       nullptr);
    report.gate("contended_answers_match_installed_records",
                contended.wrong == 0 && contended.unanswered == 0,
                std::to_string(contended.wrong) + " wrong, " +
                    std::to_string(contended.unanswered) + " unanswered of " +
                    std::to_string(contended.ops) + " resolves by " +
                    std::to_string(shape.contended_threads) + " clients");
    const auto tail = summarize(contended.miss_latency);
    report.metric("hours.miss_us", contended.mean_miss_us(), "us", contended.misses,
                  "mean miss with " + std::to_string(shape.contended_threads) +
                      " clients; median " + std::to_string(tail.p50 / 1e3) + ", p99 " +
                      (tail.p99 ? std::to_string(*tail.p99 / 1e3) : tail.note));
    report.metric("hours.miss_wait_us", contended.mean_miss_us() - loop.mean_miss_us(), "us",
                  contended.misses,
                  "hours.miss_us - mean miss with one client (" +
                      std::to_string(loop.mean_miss_us()) + ")");
  }
  report.note("reconciliation denominator: " + std::to_string(threads) +
              " threads x timed wall");
  rec.report(report);
  spans.print_summary();
  return report.finish();
}

}  // namespace

int run_serve_hot(const Options& options) { return run_serve(kHot, options); }
int run_serve_churn(const Options& options) { return run_serve(kChurn, options); }

}  // namespace perfbench
