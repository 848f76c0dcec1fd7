// Section 7 / related-work caching study: "caching provides only an
// opportunistic query resolution, and its effectiveness highly depends on
// the query patterns. On the contrary, HOURS assures to forward arbitrary
// queries with high probability."
//
// We drive a client resolver cache (a one-shard ConcurrentResolver) with
// Zipf-distributed queries (the web/DNS pattern of [Breslau99]/[Jung01])
// over a hierarchy under attack, and compare:
//   * cache-only   (unprotected tree + client cache)
//   * HOURS-only   (no client cache)
//   * cache+HOURS
// sweeping the Zipf exponent. Caching's answer rate collapses as the
// pattern flattens; HOURS' does not.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hours/concurrent_resolver.hpp"
#include "metrics/table_writer.hpp"
#include "workload/workload.hpp"

namespace {

using namespace hours;

HoursConfig world_config(overlay::Design design) {
  HoursConfig cfg;
  cfg.overlay.design = design;
  cfg.overlay.k = 5;
  cfg.overlay.q = 4;
  return cfg;
}

struct World {
  HoursSystem sys;
  std::vector<std::string> names;

  explicit World(overlay::Design design) : sys(world_config(design)) {
    // 20 zones x 25 hosts = 500 resolvable names.
    for (int z = 0; z < 20; ++z) {
      const std::string zone = "zone" + std::to_string(z);
      sys.admit(zone);
      for (int h = 0; h < 25; ++h) {
        std::string host = "h";
        host += std::to_string(h);
        host += "." + zone;
        sys.admit(host);
        sys.add_record(host, store::Record{"A", host, 600});
        names.push_back(host);
      }
    }
  }
};

struct Outcome {
  double answer_rate;
  double hit_rate;
  double early_rate;  ///< answer rate within the first TTL after attack onset
  double late_rate;   ///< answer rate after every pre-attack entry expired
};

enum class Mode {
  kHoursOnly,   ///< routed lookups, no client cache
  kHoursCache,  ///< routed lookups behind the client cache
  kCachePlain,  ///< client cache in front of the *unprotected* tree path
};

Outcome run(overlay::Design design, Mode mode, double zipf_s, int queries) {
  const bool use_cache = mode != Mode::kHoursOnly;
  World world{design};

  // Warm phase: the system is healthy; clients query and fill caches.
  ConcurrentResolver resolver{world.sys, 4096, /*shard_count=*/1};
  workload::ZipfSampler zipf{world.names.size(), zipf_s, 0xCAC4E};
  std::uint64_t now = 0;
  for (int i = 0; i < queries / 2; ++i) {
    (void)resolver.resolve(world.names[zipf.next()], now++);
  }

  // Attack phase: five zones go down. Without HOURS (base design cannot
  // detour two-deep here; we emulate "no HOURS" by killing the zones AND
  // the root so no detour exists) the tree path is gone.
  for (int z = 0; z < 5; ++z) world.sys.set_alive("zone" + std::to_string(z), false);

  // Score only queries whose zone is dead — the ones where protection
  // matters. The attack phase runs past the record TTL (600), so cached
  // answers for dead zones expire and cannot be refreshed: exactly the
  // "opportunistic" decay the paper points out.
  auto zone_is_dead = [](const std::string& host) {
    const auto zone = naming::Name::parse(host).value().label(1);  // "zoneZ"
    return zone.size() == 5 && zone[4] >= '0' && zone[4] < '5';
  };

  int answered = 0;
  int asked = 0;
  int scored_hits = 0;
  int early_answered = 0;
  int early_asked = 0;
  int late_answered = 0;
  int late_asked = 0;
  const std::uint64_t attack_start = now;
  constexpr std::uint64_t kTtl = 600;
  for (int i = 0; i < 2 * queries; ++i) {
    const auto& name = world.names[zipf.next()];
    if (!zone_is_dead(name)) {
      // Keep the clock and cache churning but score only dead-zone names.
      if (mode == Mode::kHoursCache) {
        (void)resolver.resolve(name, now);
      } else if (mode == Mode::kCachePlain && !resolver.peek(name, now, nullptr)) {
        // Plain tree still resolves alive zones; refresh the cache as a
        // real client would.
        const auto r = world.sys.lookup(name);
        if (r.query.delivered) resolver.insert(name, now, r.records);
      }
      ++now;
      continue;
    }
    ++asked;
    const bool early = now < attack_start + kTtl;
    int before = answered;
    switch (mode) {
      case Mode::kHoursOnly:
        if (world.sys.lookup(name).query.delivered) ++answered;
        break;
      case Mode::kHoursCache: {
        const auto r = resolver.resolve(name, now++);
        if (r.answered) ++answered;
        if (r.from_cache) ++scored_hits;
        break;
      }
      case Mode::kCachePlain: {
        // Unprotected tree (Figure 1): the query succeeds only from the
        // cache — the zone on the tree path is dead, so the hierarchy
        // cannot answer and the cache cannot be refreshed.
        if (resolver.peek(name, now, nullptr)) {
          ++answered;
          ++scored_hits;
        }
        ++now;
        break;
      }
    }
    if (early) {
      ++early_asked;
      early_answered += answered - before;
    } else {
      ++late_asked;
      late_answered += answered - before;
    }
  }
  Outcome out{};
  out.answer_rate = static_cast<double>(answered) / asked;
  out.early_rate = early_asked > 0 ? static_cast<double>(early_answered) / early_asked : 0.0;
  out.late_rate = late_asked > 0 ? static_cast<double>(late_answered) / late_asked : 0.0;
  out.hit_rate = use_cache && asked > 0
                     ? static_cast<double>(scored_hits) / static_cast<double>(asked)
                     : 0.0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using metrics::TableWriter;
  const bool quick = bench::quick_mode(argc, argv);
  const int queries = static_cast<int>(bench::scaled(20'000, 2'000, quick));

  TableWriter table{{"zipf_s", "cache_only<TTL", "cache_only>TTL", "hours_only",
                     "hours+cache", "cache_hit_rate"}};
  for (const double s : {1.2, 0.9, 0.6, 0.0}) {
    const auto plain = run(overlay::Design::kEnhanced, Mode::kCachePlain, s, queries);
    const auto hours_only = run(overlay::Design::kEnhanced, Mode::kHoursOnly, s, queries);
    const auto both = run(overlay::Design::kEnhanced, Mode::kHoursCache, s, queries);
    table.add_row({TableWriter::fmt(s, 1), TableWriter::fmt(plain.early_rate, 3),
                   TableWriter::fmt(plain.late_rate, 3),
                   TableWriter::fmt(hours_only.answer_rate, 3),
                   TableWriter::fmt(both.answer_rate, 3), TableWriter::fmt(both.hit_rate, 3)});
  }

  table.print("Section 7 — caching is opportunistic, HOURS is assured (5/20 zones dead)");
  table.write_csv(hours::bench::csv_path("caching_study"));
  std::printf("\nThe cache's contribution (hit rate) collapses as the Zipf exponent drops to\n"
              "uniform; HOURS' answer rate stays ~1.0 regardless of the query pattern.\n");
  return 0;
}
