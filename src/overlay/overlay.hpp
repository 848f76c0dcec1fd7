// A single randomized overlay network and its intra-overlay forwarding
// (Sections 3.3 and 4.2 — Algorithms 2 and 3).
//
// The Overlay owns the ring membership (indices 0..N-1), per-node liveness
// and behavior, and the routing tables (stored eagerly, or regenerated on
// demand for multi-million-node rings). Each forwarding decision takes the
// first live candidate that the Algorithm 3 kernel (overlay/forwarding.hpp)
// offers: the overlay-destination (OD) or an alive nephew of its entry,
// then greedy clockwise, then backward steps.
//
// The base design has no backward mode: a query that cannot make clockwise
// progress fails, which is precisely the vulnerability Section 4 fixes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "overlay/params.hpp"
#include "overlay/routing_table.hpp"
#include "overlay/table_builder.hpp"

namespace hours::overlay {

/// How routing tables are materialized.
enum class TableStorage : std::uint8_t {
  kEager,  ///< built once, stored; required for per-node workload accounting
  kLazy,   ///< regenerated deterministically at each visit; O(1) memory
};

/// Per-node behavior under the Section 5.3 insider-attack model.
enum class NodeBehavior : std::uint8_t {
  kHonest,
  kDropper,    ///< silently drops queries routed through it
  kMisrouter,  ///< forwards to a uniformly random alive table entry
};

/// Why intra-overlay forwarding ended.
enum class ExitKind : std::uint8_t {
  kArrivedAtOd,  ///< reached the alive overlay-destination; hierarchical forwarding resumes
  kNephewExit,   ///< OD dead; exited via a nephew pointer into the next-level overlay
  kDropped,      ///< swallowed by a compromised (dropper) node
  kUnreachable,  ///< no alive route (base design dead-end, ring gap, or hop budget)
};

struct ForwardOptions {
  bool record_path = false;
  /// Ring index of the next-level OD within the OD's child overlay, used to
  /// pick the nephew "closest in the ID space to the next level OD-node"
  /// (Section 3.3) when `child_alive` is non-empty. Otherwise the first
  /// alive nephew in table order is taken.
  std::optional<ids::RingIndex> next_od;
  /// Liveness of the OD's children (indexed by child ring index); unset
  /// means all children alive.
  const std::vector<std::uint8_t>* child_alive = nullptr;
  /// Loop-protection hop budget; 0 means 4*N + 64.
  std::uint32_t max_hops = 0;
};

struct ForwardResult {
  ExitKind kind = ExitKind::kUnreachable;
  ids::RingIndex last_node = 0;   ///< OD / exit node / node where the query died
  ids::RingIndex nephew = 0;      ///< child ring index (valid for kNephewExit)
  std::uint32_t hops = 0;         ///< node-to-node transfers taken inside this overlay
  std::uint32_t backward_steps = 0;
  std::vector<ids::RingIndex> path;  ///< visited nodes (entrance first) if recorded

  [[nodiscard]] bool delivered_to_od() const noexcept { return kind == ExitKind::kArrivedAtOd; }
};

class Overlay {
 public:
  Overlay(std::uint32_t size, OverlayParams params,
          TableStorage storage = TableStorage::kEager, ChildCountFn child_count = {});

  [[nodiscard]] std::uint32_t size() const noexcept { return size_; }
  [[nodiscard]] const OverlayParams& params() const noexcept { return params_; }

  // -- liveness & behavior ---------------------------------------------------
  void kill(ids::RingIndex i);
  void revive(ids::RingIndex i);
  void revive_all();
  [[nodiscard]] bool alive(ids::RingIndex i) const noexcept { return alive_[i] != 0; }
  [[nodiscard]] std::uint32_t alive_count() const noexcept { return alive_count_; }

  /// Raw liveness bits indexed by ring index (1 = alive); used as the
  /// child_alive view during inter-overlay nephew selection.
  [[nodiscard]] const std::vector<std::uint8_t>& alive_vector() const noexcept { return alive_; }

  void set_behavior(ids::RingIndex i, NodeBehavior behavior);
  [[nodiscard]] NodeBehavior behavior(ids::RingIndex i) const noexcept {
    return behaviors_.empty() ? NodeBehavior::kHonest : behaviors_[i];
  }

  /// When true (default), backward forwarding assumes ring maintenance /
  /// active recovery has patched counter-clockwise pointers across failed
  /// nodes, so a backward step lands on the nearest *alive* CCW node. When
  /// false, the stored CCW pointer is followed blindly and a dead CCW
  /// neighbor dead-ends the query (the ablation in bench/ablation_recovery).
  void set_ring_repaired(bool repaired) noexcept { ring_repaired_ = repaired; }
  [[nodiscard]] bool ring_repaired() const noexcept { return ring_repaired_; }

  // -- routing tables ----------------------------------------------------------
  /// The routing table of node `i` (stored or regenerated per storage mode).
  [[nodiscard]] const RoutingTable& table(ids::RingIndex i) const;

  /// Periodic table regeneration (Section 7, "Overlay Maintenance"): every
  /// node redraws its random pointers. Liveness and behaviors are
  /// unaffected; only the random structure changes. A query that found no
  /// exit under one draw gets a fresh, independent chance after a refresh —
  /// which is how long-running deployments close the small residual failure
  /// mass of extreme neighbor attacks (EXPERIMENTS.md, Figure 10).
  void reseed(std::uint64_t new_seed);

  // -- forwarding --------------------------------------------------------------
  /// Runs Algorithm 3 from `entrance` toward overlay-destination `od`.
  /// `entrance` must be alive.
  [[nodiscard]] ForwardResult forward(ids::RingIndex entrance, ids::RingIndex od,
                                      const ForwardOptions& opts = {}) const;

  /// Nearest alive node counter-clockwise of `i` (excluding `i`), if any.
  [[nodiscard]] std::optional<ids::RingIndex> nearest_alive_ccw(ids::RingIndex i) const;

  /// Nearest alive node clockwise of `i` (excluding `i`), if any.
  [[nodiscard]] std::optional<ids::RingIndex> nearest_alive_cw(ids::RingIndex i) const;

 private:
  struct Step {
    enum class Kind : std::uint8_t { kHop, kNephewExit, kStuck } kind = Kind::kStuck;
    ids::RingIndex target = 0;       // next node (kHop) or exit nephew (kNephewExit)
    bool backward_move = false;      // this hop travels counter-clockwise
  };

  /// One Algorithm-3 decision at `node`; `backward` is the query's mode bit,
  /// flipped when greedy progress is exhausted.
  [[nodiscard]] Step decide(ids::RingIndex node, ids::RingIndex od, bool& backward,
                            const ForwardOptions& opts) const;

  std::uint32_t size_;
  OverlayParams params_;
  TableStorage storage_;
  ChildCountFn child_count_;
  std::vector<std::uint8_t> alive_;
  std::uint32_t alive_count_;
  std::vector<NodeBehavior> behaviors_;  // lazily sized on first set_behavior
  bool ring_repaired_ = true;
  std::vector<RoutingTable> tables_;       // eager storage
  mutable RoutingTable scratch_table_;     // lazy storage: last regenerated table
};

}  // namespace hours::overlay
