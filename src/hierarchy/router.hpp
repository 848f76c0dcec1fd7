// Mixed hierarchical + overlay query forwarding across the whole service
// hierarchy — Section 3.3's path algebra
//
//   [ ... v_{i-2} -> S_{i-1} -> S_i(v_i) -> v_{i+1} ... ]
//
// implemented on top of Overlay::forward (Algorithm 3) and Algorithm 2's
// per-node rules:
//   * at an alive ancestor of the destination, forward to the on-path child;
//     if that child is dead, enter the child overlay at an alive child and
//     let overlay forwarding carry the query toward the dead child (OD);
//   * at a non-ancestor (a sibling of some on-path node v_i), run overlay
//     forwarding toward OD = v_i; a nephew exit drops the query one level
//     down into S_{i+1}, where forwarding continues toward v_{i+1}.
#pragma once

#include <cstdint>
#include <optional>

#include "hierarchy/model.hpp"
#include "rng/xoshiro256.hpp"
#include "util/status.hpp"

namespace hours::hierarchy {

/// How a parent picks the entrance node when the on-path child is dead.
enum class EntrancePolicy : std::uint8_t {
  /// The alive child nearest counter-clockwise of the dead OD — the parent
  /// manages all children, so it can hand the query straight to the best
  /// detour start (this is also footnote 4's choice). Default.
  kNearestCcwOfOd,
  /// A uniformly random alive child (the literal reading of Algorithm 2
  /// line 6); used to quantify the entrance-choice ablation.
  kRandomAliveChild,
};

struct RouteOptions {
  EntrancePolicy entrance = EntrancePolicy::kNearestCcwOfOd;
  bool record_path = false;
  /// Overall hop budget; 0 means unbounded (loop protection still applies
  /// per overlay). Best-effort: the budget is checked between phases and
  /// handed down to overlay forwarding, so the route fails with kHopLimit
  /// (or kUnreachable if an overlay phase exhausts its remaining share)
  /// within a few hops of the cap.
  std::uint32_t max_hops = 0;
};

/// Where a query enters the system. Default: the root. A bootstrap start
/// (Section 7, "Query Bootstrapping") may be any cached node in the overlays
/// along the destination's top-down path.
struct StartPoint {
  NodePath node;  // empty = root
};

struct RouteOutcome {
  bool delivered = false;
  util::Error::Code failure = util::Error::Code::kInternal;  ///< valid when !delivered

  std::uint32_t hops = 0;             ///< total forwarding hops
  std::uint32_t hierarchical_hops = 0;///< hops along the original tree edges
  std::uint32_t overlay_hops = 0;     ///< hops taken inside overlays (detours)
  std::uint32_t inter_overlay_hops = 0;  ///< nephew-pointer hops between levels
  std::uint32_t backward_steps = 0;
  std::vector<NodePath> path;         ///< visited nodes if opts.record_path
};

class Router {
 public:
  explicit Router(HierarchyModel& model, std::uint64_t seed = 0x524F555445ULL)
      : model_(model), rng_(seed) {}

  /// Routes a query for the node at `dest` from `start` (root by default).
  [[nodiscard]] RouteOutcome route(const NodePath& dest, const RouteOptions& opts = {},
                                   const StartPoint& start = {});

 private:
  /// Picks the entrance into `overlay` toward dead OD `od`.
  [[nodiscard]] std::optional<ids::RingIndex> pick_entrance(overlay::Overlay& ov,
                                                            ids::RingIndex od,
                                                            EntrancePolicy policy);

  HierarchyModel& model_;
  rng::Xoshiro256 rng_;
};

}  // namespace hours::hierarchy
