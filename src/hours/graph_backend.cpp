#include "hours/graph_backend.hpp"

#include "hours/hours.hpp"

namespace hours {

namespace {

QueryResult failed(util::Error::Code code) {
  QueryResult r;
  r.failure = code;
  return r;
}

}  // namespace

GraphBackend::GraphBackend(HoursSystem& system, std::uint64_t initial_clock)
    : system_(system),
      router_(system.hierarchy()),
      clock_(initial_clock),
      cache_bootstrap_queries_(system.registry().counter("facade.cache_bootstrap_queries")) {}

QueryResult GraphBackend::run_route(const hierarchy::NodePath& start,
                                    const hierarchy::NodePath& dest, bool record_path) {
  hierarchy::RouteOptions opts;
  opts.entrance = system_.config().entrance;
  opts.record_path = record_path;

  const hierarchy::RouteOutcome outcome = router_.route(dest, opts, {start});

  QueryResult result;
  result.delivered = outcome.delivered;
  result.failure = outcome.failure;
  result.hops = outcome.hops;
  result.hierarchical_hops = outcome.hierarchical_hops;
  result.overlay_hops = outcome.overlay_hops;
  result.inter_overlay_hops = outcome.inter_overlay_hops;
  result.backward_steps = outcome.backward_steps;
  if (record_path) {
    result.path.reserve(outcome.path.size());
    for (const auto& p : outcome.path) {
      auto name = system_.hierarchy().name_of(p);
      result.path.push_back(name.ok() ? name.value().to_string() : hierarchy::to_string(p));
    }
  }
  return result;
}

QueryResult GraphBackend::execute(const naming::Name& dest, bool record_path) {
  auto& hierarchy = system_.hierarchy();
  const auto paths = hierarchy.resolve_paths(dest);
  if (paths.empty()) return failed(util::Error::Code::kNotFound);

  if (hierarchy.root_alive()) {
    // Mesh nodes (Section 7) have several top-down paths; try the primary
    // first and fall through alternates on failure.
    QueryResult result;
    for (std::size_t attempt = 0; attempt < paths.size(); ++attempt) {
      result = run_route({}, paths[attempt], record_path);
      result.path_attempts = static_cast<std::uint32_t>(attempt + 1);
      if (result.delivered || result.failure == util::Error::Code::kDead) break;
    }
    if (result.delivered) {
      // Clients cache "the root node or a few frequently visited level-1
      // nodes" (Section 7): remember the level-1 zone as well as the
      // destination — the zone sits in the level-1 overlay, which lies on
      // every top-down path and therefore bootstraps any future query.
      system_.cache_bootstrap(dest.to_string());
      if (dest.depth() > 1) {
        system_.cache_bootstrap(dest.label(1));
      }
    }
    return result;
  }

  // Root is down: bootstrap from cached nodes (Section 7) — any cached node
  // whose overlay lies on the destination's top-down path can start the
  // query.
  cache_bootstrap_queries_.inc();
  for (const auto& cached : system_.bootstrap_cache()) {
    auto cached_name = naming::Name::parse(cached);
    if (!cached_name.ok()) continue;
    auto start = hierarchy.resolve(cached_name.value());
    if (!start.ok() || start.value().empty()) continue;
    auto alive = hierarchy.is_alive(cached_name.value());
    if (!alive.ok() || !alive.value()) continue;
    for (std::size_t attempt = 0; attempt < paths.size(); ++attempt) {
      QueryResult result = run_route(start.value(), paths[attempt], record_path);
      if (result.delivered) {
        result.path_attempts = static_cast<std::uint32_t>(attempt + 1);
        result.used_bootstrap_cache = true;
        system_.cache_bootstrap(dest.to_string());
        return result;
      }
      if (result.failure == util::Error::Code::kDead) return result;
    }
  }
  return failed(util::Error::Code::kDead);  // no usable entry point
}

QueryResult GraphBackend::execute_from(const naming::Name& start, const naming::Name& dest,
                                       bool record_path) {
  auto start_path = system_.hierarchy().resolve(start);
  if (!start_path.ok()) return failed(start_path.error().code);
  auto dest_path = system_.hierarchy().resolve(dest);
  if (!dest_path.ok()) return failed(dest_path.error().code);
  return run_route(start_path.value(), dest_path.value(), record_path);
}

}  // namespace hours
