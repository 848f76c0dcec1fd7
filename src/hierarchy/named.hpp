// An explicit, named service hierarchy — the deployment-shaped counterpart
// of SyntheticHierarchy.
//
// Nodes are admitted by hierarchical name under their parent (Section 3.1:
// HOURS preserves delegated management; a parent enforces admission control
// over its children, which is what keeps Sybil attackers out in Section
// 5.3). Each node's overlay identifier is SHA-1(name); the parent assigns
// ring indices by sorting children identifiers and walking the circle
// clockwise, exactly as Section 3.2 prescribes.
//
// Mesh topology (Section 7): a node may register *secondary parents* at the
// same level as its primary parent. It then joins every such parent's child
// overlay as a full member ("HOURS does not prohibit a node with multiple
// parent nodes from joining multiple overlays"), which yields multiple
// top-down paths — resolve_paths() enumerates them, and HoursSystem retries
// queries across them.
//
// Every sibling set keeps a label table (open addressing on the label
// hash) and its identifier-sorted member view current through membership
// changes, so finding a name reads one or two lines of each ancestor's
// table plus the node on the path, and never re-sorts. Each node caches
// its ring index, stamped with its parent's membership epoch:
// topology_snapshot() stamps every node, and a stale stamp falls back to a
// binary search on identifier. Membership changes mark the affected
// overlays dirty; they are re-generated on next access, mirroring the
// paper's periodic routing-table regeneration (Section 7, "Overlay
// Maintenance"). Ring indices may shift when membership changes, so
// NodePaths should be re-resolved from names afterwards.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hierarchy/model.hpp"
#include "ids/identifier.hpp"
#include "naming/name.hpp"
#include "overlay/params.hpp"
#include "util/status.hpp"

namespace hours::hierarchy {

class NamedHierarchy final : public HierarchyModel {
 public:
  explicit NamedHierarchy(overlay::OverlayParams params);
  ~NamedHierarchy() override;

  /// Admits a node under its (already admitted) primary parent. The root
  /// exists implicitly. Fails on duplicates or a missing parent.
  util::Result<naming::Name> admit(naming::Name name);

  /// Mesh topology: registers `parent` as an additional parent of the
  /// (already admitted) node `name`. The secondary parent must sit at the
  /// same level as the primary parent (so every path to the node has equal
  /// length) and must not already be a parent.
  util::Result<naming::Name> admit_secondary(const naming::Name& name,
                                             const naming::Name& parent);

  /// Removes a node and its entire subtree from the hierarchy (a voluntary
  /// leave, as opposed to a DoS failure). Alias memberships are unlinked.
  util::Result<naming::Name> remove(const naming::Name& name);

  /// Resolves a name to its primary NodePath (ring indices along the path).
  [[nodiscard]] util::Result<NodePath> resolve(const naming::Name& name);

  /// All top-down paths to `name` (primary-parent path first), up to
  /// `max_paths`. More than one entry implies mesh parents somewhere on the
  /// ancestor chain.
  [[nodiscard]] std::vector<NodePath> resolve_paths(const naming::Name& name,
                                                    std::size_t max_paths = 8);

  /// Inverse of resolve (any alias path maps back to the node's one name).
  [[nodiscard]] util::Result<naming::Name> name_of(const NodePath& path);

  /// Marks a node dead/alive (DoS attack semantics: the node is unreachable
  /// but still a member; its index does not shift). Liveness is mirrored
  /// into every overlay the node belongs to.
  util::Result<naming::Name> set_alive(const naming::Name& name, bool alive);
  [[nodiscard]] util::Result<bool> is_alive(const naming::Name& name);

  /// Number of admitted nodes (excluding the root; aliases do not count).
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }

  /// One admitted node's serializable membership facts.
  struct MemberInfo {
    naming::Name name;
    bool alive = true;
    std::vector<naming::Name> secondary_parents;  ///< mesh registrations
  };

  /// Every admitted node in pre-order (a parent precedes its primary
  /// children), for snapshot serialization: re-admitting names in this
  /// order — then registering the secondary parents — reproduces the
  /// hierarchy exactly, since ring indices derive from identifier sorting,
  /// not admission order.
  [[nodiscard]] std::vector<MemberInfo> members() const;

  /// Flat BFS image of the member tree, in exactly the level order
  /// sim::HierarchySimulation assigns node ids: child_counts[i] is node i's
  /// member count, `dead` lists the BFS ids currently marked dead. Mesh
  /// alias children appear once per parent (each membership is a distinct
  /// simulation node), matching the path-enumeration the event backend used
  /// to perform — but without materializing any NodePath or name. The walk
  /// also stamps each node's cached ring index in its primary parent.
  struct TopologySnapshot {
    std::vector<std::uint32_t> child_counts;
    std::vector<std::uint32_t> dead;
  };
  [[nodiscard]] TopologySnapshot topology_snapshot();

  // -- HierarchyModel ----------------------------------------------------------
  [[nodiscard]] std::uint32_t child_count(const NodePath& path) override;
  [[nodiscard]] overlay::Overlay& overlay_of(const NodePath& path) override;
  [[nodiscard]] bool root_alive() const noexcept override;
  void set_root_alive(bool alive) noexcept override;

 private:
  struct TreeNode;

  [[nodiscard]] TreeNode* find_by_name(const naming::Name& name);
  /// The node named by the first `level` labels of `name` (the root at 0).
  [[nodiscard]] TreeNode* find_ancestor(const naming::Name& name, std::size_t level);
  [[nodiscard]] TreeNode* find_by_path(const NodePath& path);

  /// (Re)builds the child overlay if stale — the expensive step, deferred
  /// until graph routing actually visits the node.
  void refresh(TreeNode& node);

  void unlink_aliases_in_subtree(TreeNode& node);
  [[nodiscard]] static std::size_t subtree_size(const TreeNode& node);

  /// `node`'s name, rebuilt from its labels along the primary-parent chain.
  [[nodiscard]] static naming::Name full_name(const TreeNode& node);

  /// members()' pre-order walk below `node`; `labels` holds `node`'s name,
  /// root first, so each member's name is one copy of it plus a label.
  static void collect_members(const TreeNode& node, std::vector<std::string>& labels,
                              std::vector<MemberInfo>& out);

  /// resolve_paths' walk from `at` up to the root: appends each complete
  /// path to `out` until it holds `max_paths`. `suffix` holds the ring
  /// indices from `at` down to the target, deepest first.
  static void collect_paths(const TreeNode& at, NodePath& suffix, std::vector<NodePath>& out,
                            std::size_t max_paths);

  overlay::OverlayParams params_;
  std::unique_ptr<TreeNode> root_;
  std::size_t node_count_ = 0;
};

}  // namespace hours::hierarchy
