// Concurrent serving throughput: hammers the ConcurrentResolver front-end
// (sharded RCU answer cache over HoursSystem) with resolver threads and
// reports queries/sec/thread across a thread-scaling curve — the "service
// under heavy traffic" measurement the ROADMAP's concurrency item asks for.
//
// Setup: a ~1k-name hierarchy with one A record per leaf, a resolver warmed
// by one pass over every name, then for each thread count in {1,2,4,8} a
// timed phase where every thread resolves uniformly random names (all cache
// hits — the lock-free read path is what scales) plus one batched phase at
// the widest count exercising resolve_batch. Thread counts above the
// machine's hardware concurrency still run (the curve shows the
// oversubscribed tail) but are excluded from enforcement.
//
// With --enforce the run compares each in-hardware thread count's
// queries/sec/thread against bench/serving_thresholds.json and exits
// nonzero below the floor — the Release CI job runs exactly that. --quick
// shrinks the name set and iteration counts for the bench-smoke ctest label.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "hours/concurrent_resolver.hpp"
#include "metrics/json_writer.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"
#include "snapshot/json.hpp"
#include "util/contracts.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// zones × hosts two-level hierarchy; every host carries one A record.
/// Returns the resolvable host names.
std::vector<std::string> build_hierarchy(hours::HoursSystem& sys, std::uint64_t zones,
                                         std::uint64_t hosts) {
  std::vector<std::string> names;
  names.reserve(zones * hosts);
  for (std::uint64_t z = 0; z < zones; ++z) {
    std::string zone = "z";
    zone += std::to_string(z);
    HOURS_ASSERT(sys.admit(zone).ok());
    for (std::uint64_t h = 0; h < hosts; ++h) {
      std::string name = "h";
      name += std::to_string(h);
      name += "." + zone;
      HOURS_ASSERT(sys.admit(name).ok());
      HOURS_ASSERT(
          sys.add_record(name, hours::store::Record{"A", std::to_string(z * hosts + h), 1'000})
              .ok());
      names.push_back(name);
    }
  }
  return names;
}

struct PhaseResult {
  unsigned threads = 0;
  std::uint64_t queries = 0;
  double wall_seconds = 0.0;
  double qps_total = 0.0;
  double qps_per_thread = 0.0;
};

/// Runs `threads` resolver threads for `iterations` lookups each against a
/// warmed cache; every lookup must answer (they are all cache hits).
PhaseResult run_phase(hours::ConcurrentResolver& resolver,
                      const std::vector<std::string>& names, unsigned threads,
                      std::uint64_t iterations) {
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const auto t_start = std::chrono::steady_clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&resolver, &names, &answered, t, iterations] {
      hours::rng::Xoshiro256 g{hours::rng::mix64(0x5E12F1, t)};
      std::uint64_t local = 0;
      for (std::uint64_t i = 0; i < iterations; ++i) {
        const auto result = resolver.resolve(names[g.below(names.size())], /*now=*/1);
        HOURS_ASSERT(result.answered);
        ++local;
      }
      answered.fetch_add(local, std::memory_order_relaxed);
    });
  }
  for (auto& thread : pool) thread.join();
  PhaseResult r;
  r.threads = threads;
  r.wall_seconds = seconds_since(t_start);
  r.queries = answered.load();
  HOURS_ASSERT(r.queries == static_cast<std::uint64_t>(threads) * iterations);
  r.qps_total = r.wall_seconds > 0.0 ? static_cast<double>(r.queries) / r.wall_seconds : 0.0;
  r.qps_per_thread = r.qps_total / threads;
  return r;
}

struct Thresholds {
  double min_qps_per_thread = 0.0;
  bool loaded = false;
};

Thresholds load_thresholds(const std::string& path) {
  Thresholds t;
  std::ifstream in{path};
  if (!in) return t;
  std::stringstream buffer;
  buffer << in.rdbuf();
  hours::snapshot::Json doc;
  std::string error;
  if (!hours::snapshot::parse_json(buffer.str(), doc, &error)) {
    std::fprintf(stderr, "serving_throughput: cannot parse %s: %s\n", path.c_str(),
                 error.c_str());
    return t;
  }
  // snapshot::Json numbers are u64-only; the floor is stored as an integer.
  const auto* field = doc.find("min_qps_per_thread");
  HOURS_ASSERT(field != nullptr && field->is_u64());
  t.min_qps_per_thread = static_cast<double>(field->as_u64());
  t.loaded = true;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using hours::metrics::JsonWriter;
  const bool quick = hours::bench::quick_mode(argc, argv);
  bool enforce = false;
  std::string thresholds_path = "serving_thresholds.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--enforce") == 0) enforce = true;
    if (std::strncmp(argv[i], "--thresholds=", 13) == 0) thresholds_path = argv[i] + 13;
  }

  const std::uint64_t zones = hours::bench::scaled(32, 8, quick);
  const std::uint64_t hosts = hours::bench::scaled(32, 8, quick);
  const std::uint64_t iterations = hours::bench::scaled(200'000, 2'000, quick);

  hours::HoursSystem sys;
  const auto names = build_hierarchy(sys, zones, hosts);
  std::printf("[serving_throughput] %zu names admitted\n", names.size());

  hours::ConcurrentResolver resolver{sys, /*capacity=*/names.size() * 2, /*shard_count=*/16};
  for (const auto& name : names) {
    const auto warmed = resolver.resolve(name, /*now=*/0);  // TTL 1000s: hot for the run
    HOURS_ASSERT(warmed.answered);
  }
  std::printf("[serving_throughput] cache warmed (%zu entries)\n", resolver.cached_names());

  const unsigned hardware = std::max(1U, std::thread::hardware_concurrency());
  const std::vector<unsigned> curve = {1, 2, 4, 8};
  std::vector<PhaseResult> phases;
  for (const unsigned threads : curve) {
    phases.push_back(run_phase(resolver, names, threads, iterations));
    const auto& phase = phases.back();
    std::printf("[serving_throughput] threads=%u qps_total=%.0f qps/thread=%.0f%s\n",
                phase.threads, phase.qps_total, phase.qps_per_thread,
                phase.threads > hardware ? " (oversubscribed)" : "");
  }

  // One batched phase at the widest in-hardware width: resolve_batch
  // amortizes the probe loop and (on misses) the authority mutex.
  const unsigned batch_threads = std::min(hardware, curve.back());
  const std::uint64_t batch_rounds = hours::bench::scaled(2'000, 50, quick);
  std::atomic<std::uint64_t> batch_answered{0};
  const auto t_batch = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < batch_threads; ++t) {
      pool.emplace_back([&resolver, &names, &batch_answered, batch_rounds] {
        std::uint64_t local = 0;
        for (std::uint64_t i = 0; i < batch_rounds; ++i) {
          const auto results = resolver.resolve_batch(names, /*now=*/1);
          for (const auto& result : results) {
            HOURS_ASSERT(result.answered);
            ++local;
          }
        }
        batch_answered.fetch_add(local, std::memory_order_relaxed);
      });
    }
    for (auto& thread : pool) thread.join();
  }
  const double batch_wall = seconds_since(t_batch);
  const double batch_qps =
      batch_wall > 0.0 ? static_cast<double>(batch_answered.load()) / batch_wall : 0.0;
  std::printf("[serving_throughput] batch threads=%u qps_total=%.0f\n", batch_threads,
              batch_qps);

  const auto stats = resolver.stats();
  JsonWriter json;
  json.begin_object();
  json.field("bench", "serving_throughput");
  json.field("quick", quick);
  json.field("names", static_cast<std::uint64_t>(names.size()));
  json.field("iterations_per_thread", iterations);
  json.field("hardware_concurrency", static_cast<std::uint64_t>(hardware));
  json.key("curve");
  json.begin_array();
  const double base_qps = phases.front().qps_total;
  for (const auto& phase : phases) {
    json.begin_object();
    json.field("threads", static_cast<std::uint64_t>(phase.threads));
    json.field("queries", phase.queries);
    json.field("wall_seconds", phase.wall_seconds, 3);
    json.field("qps_total", phase.qps_total, 0);
    json.field("qps_per_thread", phase.qps_per_thread, 0);
    json.field("scaling_vs_1", base_qps > 0.0 ? phase.qps_total / base_qps : 0.0, 2);
    json.field("oversubscribed", phase.threads > hardware);
    json.end_object();
  }
  json.end_array();
  json.field("batch_threads", static_cast<std::uint64_t>(batch_threads));
  json.field("batch_qps_total", batch_qps, 0);
  json.field("cache_hits", stats.cache_hits);
  json.field("cache_misses", stats.cache_misses);
  json.field("failures", stats.failures);
  json.field("peak_rss_mb",
             static_cast<double>(hours::bench::peak_rss_bytes()) / (1024.0 * 1024.0), 1);
  json.end_object();
  hours::bench::emit_json_report("serving_throughput", json.str());

  HOURS_ASSERT(stats.failures == 0);  // a healthy tree answers everything

  if (!enforce) return 0;
  if (quick) {
    std::fprintf(stderr, "serving_throughput: --enforce is meaningless with --quick\n");
    return 2;
  }
  const auto thresholds = load_thresholds(thresholds_path);
  if (!thresholds.loaded) {
    std::fprintf(stderr, "serving_throughput: --enforce set but no thresholds at %s\n",
                 thresholds_path.c_str());
    return 2;
  }
  int failures = 0;
  for (const auto& phase : phases) {
    if (phase.threads > hardware) continue;  // the oversubscribed tail is reported, not gated
    if (phase.qps_per_thread < thresholds.min_qps_per_thread) {
      std::fprintf(stderr, "FAIL threads=%u qps/thread %.0f < floor %.0f\n", phase.threads,
                   phase.qps_per_thread, thresholds.min_qps_per_thread);
      ++failures;
    }
  }
  if (failures == 0) std::printf("[serving_throughput] thresholds OK\n");
  return failures == 0 ? 0 : 1;
}
