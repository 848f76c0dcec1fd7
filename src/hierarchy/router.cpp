#include "hierarchy/router.hpp"

#include "util/contracts.hpp"

namespace hours::hierarchy {

namespace {

/// Appends the overlay-internal path (ring indices within `parent_path`'s
/// child overlay) to the outcome's node-path trace.
void append_overlay_trace(RouteOutcome& out, const NodePath& parent_path,
                          const std::vector<ids::RingIndex>& trace, bool skip_first) {
  for (std::size_t i = skip_first ? 1 : 0; i < trace.size(); ++i) {
    out.path.push_back(child(parent_path, trace[i]));
  }
}

}  // namespace

std::optional<ids::RingIndex> Router::pick_entrance(overlay::Overlay& ov, ids::RingIndex od,
                                                    EntrancePolicy policy) {
  switch (policy) {
    case EntrancePolicy::kNearestCcwOfOd:
      return ov.nearest_alive_ccw(od);
    case EntrancePolicy::kRandomAliveChild: {
      if (ov.alive_count() == 0) return std::nullopt;
      // Rejection sampling with a fallback scan for heavily attacked rings.
      for (int attempt = 0; attempt < 64; ++attempt) {
        const auto candidate = static_cast<ids::RingIndex>(rng_.below(ov.size()));
        if (ov.alive(candidate)) return candidate;
      }
      return ov.nearest_alive_ccw(od);
    }
  }
  return std::nullopt;
}

RouteOutcome Router::route(const NodePath& dest, const RouteOptions& opts,
                           const StartPoint& start) {
  RouteOutcome out;

  // A query is answerable only if the node holding the answer survives
  // (Section 1: HOURS protects accessibility of *surviving* nodes).
  if (!model_.node_alive(dest)) {
    out.failure = util::Error::Code::kDead;
    return out;
  }

  NodePath pos = start.node;
  if (!model_.node_alive(pos)) {
    out.failure = util::Error::Code::kDead;  // bootstrap point itself is down
    return out;
  }
  if (opts.record_path) out.path.push_back(pos);

  // Each loop iteration either descends a level, ascends toward the root
  // (bounded by the start's depth), or terminates; the guard is generous.
  const std::size_t max_iterations = 4 * (dest.size() + pos.size()) + 16;

  for (std::size_t iteration = 0; iteration < max_iterations; ++iteration) {
    if (pos == dest) {
      out.delivered = true;
      return out;
    }
    if (opts.max_hops != 0 && out.hops >= opts.max_hops) {
      out.failure = util::Error::Code::kHopLimit;
      return out;
    }

    if (is_prefix(pos, dest)) {
      // Hierarchical forwarding (Algorithm 2, lines 1-7): pos is the alive
      // ancestor v_i; try the on-path child v_{i+1}.
      const ids::RingIndex next_index = dest[pos.size()];
      if (model_.child_count(pos) <= next_index) {
        out.failure = util::Error::Code::kInvalidArgument;
        return out;
      }
      overlay::Overlay& ov = model_.overlay_of(pos);

      if (ov.alive(next_index)) {
        pos = child(pos, next_index);
        out.hops += 1;
        out.hierarchical_hops += 1;
        if (opts.record_path) out.path.push_back(pos);
        if (ov.behavior(next_index) == overlay::NodeBehavior::kDropper) {
          out.failure = util::Error::Code::kDropped;
          return out;
        }
        continue;
      }

      // On-path child dead: hand the query to an alive child, from which
      // overlay forwarding will carry it toward the dead OD.
      const auto entrance = pick_entrance(ov, next_index, opts.entrance);
      if (!entrance.has_value()) {
        out.failure = util::Error::Code::kUnreachable;  // entire sibling set is down
        return out;
      }
      pos = child(pos, *entrance);
      out.hops += 1;
      out.overlay_hops += 1;
      if (opts.record_path) out.path.push_back(pos);
      if (ov.behavior(*entrance) == overlay::NodeBehavior::kDropper) {
        out.failure = util::Error::Code::kDropped;
        return out;
      }
      continue;
    }

    const NodePath pos_parent = parent(pos);
    if (!is_prefix(pos_parent, dest) || pos.size() > dest.size()) {
      // Unrelated subtree, or below the destination (possible for bootstrap
      // starts): climb while the parent survives; there is no sideways
      // detour from here because none of pos's siblings lie on the
      // destination path.
      if (!model_.node_alive(pos_parent)) {
        out.failure = util::Error::Code::kUnreachable;
        return out;
      }
      pos = pos_parent;
      out.hops += 1;
      out.hierarchical_hops += 1;
      if (opts.record_path) out.path.push_back(pos);
      continue;
    }

    // Overlay forwarding (Algorithm 3): pos is a sibling of the on-path node
    // v_i at level i = |pos|; forward toward OD = v_i inside S_i.
    const std::size_t i = pos.size();
    const ids::RingIndex od = dest[i - 1];
    const NodePath od_path = ancestor_at(dest, i);
    overlay::Overlay& ov = model_.overlay_of(pos_parent);

    overlay::ForwardOptions fopts;
    fopts.record_path = opts.record_path;
    if (opts.max_hops != 0) {
      fopts.max_hops = opts.max_hops - out.hops;  // remaining budget (>= 1 here)
    }
    if (i < dest.size()) {
      // Hint for nephew selection: ring index of the next-level OD within
      // the OD's child overlay, plus that overlay's liveness.
      fopts.next_od = dest[i];
      fopts.child_alive = &model_.overlay_of(od_path).alive_vector();
    }

    const overlay::ForwardResult res = ov.forward(pos.back(), od, fopts);
    out.hops += res.hops;
    out.overlay_hops += res.hops;
    out.backward_steps += res.backward_steps;
    if (opts.record_path) append_overlay_trace(out, pos_parent, res.path, /*skip_first=*/true);

    switch (res.kind) {
      case overlay::ExitKind::kArrivedAtOd:
        pos = od_path;  // hierarchical forwarding resumes at v_i
        continue;
      case overlay::ExitKind::kNephewExit: {
        // Inter-overlay hop: down into S_{i+1} through a nephew pointer.
        HOURS_ASSERT(i < dest.size());
        overlay::Overlay& child_ov = model_.overlay_of(od_path);
        pos = child(od_path, res.nephew);
        out.hops += 1;
        out.inter_overlay_hops += 1;
        if (opts.record_path) out.path.push_back(pos);
        if (child_ov.behavior(res.nephew) == overlay::NodeBehavior::kDropper) {
          out.failure = util::Error::Code::kDropped;
          return out;
        }
        continue;
      }
      case overlay::ExitKind::kDropped:
        out.failure = util::Error::Code::kDropped;
        return out;
      case overlay::ExitKind::kUnreachable:
        out.failure = util::Error::Code::kUnreachable;
        return out;
    }
  }

  out.failure = util::Error::Code::kHopLimit;
  return out;
}

}  // namespace hours::hierarchy
