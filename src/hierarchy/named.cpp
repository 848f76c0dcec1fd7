#include "hierarchy/named.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "rng/splitmix64.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace hours::hierarchy {

namespace {

/// Sibling sets larger than this get lazily regenerated routing tables
/// (O(1) memory per overlay) instead of eager storage — the same knob
/// SyntheticSpec::eager_table_limit exposes, so million-child deployments
/// don't pay O(size * table) memory at admission time.
constexpr std::uint32_t kEagerTableLimit = 20'000;

}  // namespace

struct NamedHierarchy::TreeNode {
  using LabelEntry = std::pair<std::uint64_t, TreeNode*>;  // (label hash, owned child)

  /// This node's own label ("" for the root). Full names are rebuilt from
  /// the primary-parent chain (full_name), which no query path needs.
  std::string label;
  ids::Identifier id;
  /// This node's ring index in its primary parent, cached by index_of and
  /// valid while `index_stamp` equals that parent's `member_epoch`.
  mutable std::uint32_t ring_index = 0;
  TreeNode* parent = nullptr;                   // primary parent
  std::vector<TreeNode*> secondary_parents;     // mesh parents (Section 7)

  std::vector<std::unique_ptr<TreeNode>> owned;  // primary children, admission order
  /// `owned` keyed by label hash, sorted by hash; labels that share a hash
  /// sit adjacent and are told apart by comparing the labels themselves.
  std::vector<LabelEntry> by_label;
  /// Owned plus mesh alias children, always sorted by identifier: a
  /// member's position is its ring index (Section 3.2).
  std::vector<TreeNode*> members;
  std::unique_ptr<overlay::Overlay> child_overlay;
  /// Bumped by every change to `members`, which can shift ring indices; a
  /// child's cached index counts only while its stamp matches. 0 is never
  /// an epoch, so a fresh stamp (0) never matches. 16 bits each: with the
  /// two flags they fill what was padding, so a node's size does not grow.
  std::uint16_t member_epoch = 1;
  mutable std::uint16_t index_stamp = 0;
  bool alive = true;
  // Membership changes invalidate the overlay (expensive: routing tables);
  // it regenerates on the next routed visit, so a topology walk never
  // forces a table build.
  bool overlay_dirty = true;

  [[nodiscard]] std::uint32_t member_count() const noexcept {
    return static_cast<std::uint32_t>(members.size());
  }

  /// The owned child labelled `wanted`, or null: O(log fanout).
  [[nodiscard]] TreeNode* child(std::string_view wanted) const {
    const std::uint64_t h = util::fnv1a(wanted);
    for (auto it = std::ranges::lower_bound(by_label, h, {}, &LabelEntry::first);
         it != by_label.end() && it->first == h; ++it) {
      if (it->second->label == wanted) return it->second;
    }
    return nullptr;
  }

  /// Ring index of `member` (owned or alias). For an owned child whose
  /// cached index is current this reads the child alone; otherwise it is a
  /// binary search on identifier, and an owned child caches the result.
  [[nodiscard]] std::uint32_t index_of(const TreeNode* member) const {
    const bool owned_child = member->parent == this;
    if (owned_child && member->index_stamp == member_epoch) return member->ring_index;
    const auto it = std::ranges::lower_bound(members, member->id, {}, &TreeNode::id);
    HOURS_ASSERT(it != members.end() && *it == member);
    const auto index = static_cast<std::uint32_t>(it - members.begin());
    if (owned_child) {
      member->ring_index = index;
      member->index_stamp = member_epoch;
    }
    return index;
  }

  void insert_member(TreeNode* member) {
    members.insert(std::ranges::upper_bound(members, member->id, {}, &TreeNode::id), member);
    members_changed();
  }

  void erase_member(const TreeNode* member) {
    members.erase(members.begin() + index_of(member));
    members_changed();
  }

  /// Invalidates the overlay and every cached index in one step. Once the
  /// epoch wraps, the owned children's stamps are cleared before any epoch
  /// value comes round again, so an old stamp can never match.
  void members_changed() {
    overlay_dirty = true;
    if (++member_epoch != 0) return;
    for (const TreeNode* member : members) {
      if (member->parent == this) member->index_stamp = 0;
    }
    member_epoch = 1;
  }

  void adopt(std::unique_ptr<TreeNode> node) {
    const std::uint64_t h = util::fnv1a(node->label);
    by_label.emplace(std::ranges::upper_bound(by_label, h, {}, &LabelEntry::first), h,
                     node.get());
    insert_member(node.get());
    owned.push_back(std::move(node));
  }

  /// Unlinks and destroys the owned child `node` with its subtree.
  void disown(const TreeNode* node) {
    std::erase_if(by_label, [node](const LabelEntry& e) { return e.second == node; });
    erase_member(node);
    const auto it = std::ranges::find_if(owned, [node](const auto& c) { return c.get() == node; });
    HOURS_ASSERT(it != owned.end());
    owned.erase(it);
  }
};

NamedHierarchy::NamedHierarchy(overlay::OverlayParams params)
    : params_(params), root_(std::make_unique<TreeNode>()) {
  params_.validate();
  root_->id = ids::Identifier::from_name(naming::Name{}.to_string());
}

NamedHierarchy::~NamedHierarchy() = default;

NamedHierarchy::TreeNode* NamedHierarchy::find_by_name(const naming::Name& name) {
  return find_ancestor(name, name.depth());
}

NamedHierarchy::TreeNode* NamedHierarchy::find_ancestor(const naming::Name& name,
                                                        std::size_t level) {
  // Primary names identify nodes; the walk follows owned children only.
  TreeNode* node = root_.get();
  for (std::size_t lvl = 1; lvl <= level && node != nullptr; ++lvl) {
    node = node->child(name.label(lvl));
  }
  return node;
}

naming::Name NamedHierarchy::full_name(const TreeNode& node) {
  std::vector<std::string> labels;
  for (const TreeNode* at = &node; at->parent != nullptr; at = at->parent) {
    labels.push_back(at->label);
  }
  std::reverse(labels.begin(), labels.end());
  return naming::Name::from_labels(std::move(labels));
}

NamedHierarchy::TreeNode* NamedHierarchy::find_by_path(const NodePath& path) {
  TreeNode* node = root_.get();
  for (const auto index : path) {
    if (index >= node->members.size()) return nullptr;
    node = node->members[index];
  }
  return node;
}

void NamedHierarchy::refresh(TreeNode& node) {
  if (!node.overlay_dirty) return;

  const auto size = static_cast<std::uint32_t>(node.members.size());
  if (size > 0) {
    overlay::OverlayParams params = params_;
    params.seed = rng::mix64(params_.seed, node.id.top64());

    TreeNode* raw = &node;
    auto child_count_fn = [raw](ids::RingIndex j) -> std::uint32_t {
      HOURS_EXPECTS(j < raw->members.size());
      return raw->members[j]->member_count();
    };
    const auto storage = size > kEagerTableLimit ? overlay::TableStorage::kLazy
                                                 : overlay::TableStorage::kEager;
    node.child_overlay = std::make_unique<overlay::Overlay>(
        size, params, storage, overlay::ChildCountFn{child_count_fn});
    // Re-apply liveness: an attacked node stays a (dead) member after a
    // table refresh; only admission changes shift indices.
    for (std::uint32_t j = 0; j < size; ++j) {
      if (!node.members[j]->alive) node.child_overlay->kill(j);
    }
  } else {
    node.child_overlay.reset();
  }
  node.overlay_dirty = false;
}

util::Result<naming::Name> NamedHierarchy::admit(naming::Name name) {
  if (name.is_root()) {
    return util::Error{util::Error::Code::kInvalidArgument, "the root exists implicitly"};
  }
  TreeNode* parent_node = find_ancestor(name, name.depth() - 1);
  if (parent_node == nullptr) {
    return util::Error{util::Error::Code::kNotFound,
                       "parent not admitted: " + name.parent().to_string()};
  }
  const std::string& label = name.labels().back();
  if (parent_node->child(label) != nullptr) {
    return util::Error{util::Error::Code::kInvalidArgument,
                       "already admitted: " + name.to_string()};
  }

  auto node = std::make_unique<TreeNode>();
  node->label = label;
  node->id = ids::Identifier::from_name(name.to_string());
  node->parent = parent_node;
  parent_node->adopt(std::move(node));
  ++node_count_;
  return name;
}

util::Result<naming::Name> NamedHierarchy::admit_secondary(const naming::Name& name,
                                                           const naming::Name& parent) {
  TreeNode* node = find_by_name(name);
  if (node == nullptr) {
    return util::Error{util::Error::Code::kNotFound, "not admitted: " + name.to_string()};
  }
  TreeNode* parent_node = find_by_name(parent);
  if (parent_node == nullptr) {
    return util::Error{util::Error::Code::kNotFound, "not admitted: " + parent.to_string()};
  }
  // Same-level constraint keeps every path to a node equally long (and,
  // since depth strictly increases along paths, rules out cycles).
  if (parent.depth() + 1 != name.depth()) {
    return util::Error{util::Error::Code::kInvalidArgument,
                       "secondary parent must sit one level above the node"};
  }
  if (node->parent == parent_node ||
      std::find(node->secondary_parents.begin(), node->secondary_parents.end(), parent_node) !=
          node->secondary_parents.end()) {
    return util::Error{util::Error::Code::kInvalidArgument,
                       "already a parent: " + parent.to_string()};
  }

  node->secondary_parents.push_back(parent_node);
  parent_node->insert_member(node);
  return name;
}

std::size_t NamedHierarchy::subtree_size(const TreeNode& node) {
  std::size_t size = 1;
  for (const auto& c : node.owned) size += subtree_size(*c);
  return size;
}

void NamedHierarchy::unlink_aliases_in_subtree(TreeNode& node) {
  // The node may be an alias child elsewhere: detach those memberships.
  for (TreeNode* sp : node.secondary_parents) sp->erase_member(&node);
  node.secondary_parents.clear();
  // The node may have alias children from elsewhere: they survive, minus
  // this parent.
  for (TreeNode* member : node.members) {
    if (member->parent != &node) std::erase(member->secondary_parents, &node);
  }
  for (const auto& c : node.owned) unlink_aliases_in_subtree(*c);
}

util::Result<naming::Name> NamedHierarchy::remove(const naming::Name& name) {
  if (name.is_root()) {
    return util::Error{util::Error::Code::kInvalidArgument, "cannot remove the root"};
  }
  TreeNode* node = find_by_name(name);
  if (node == nullptr) {
    return util::Error{util::Error::Code::kNotFound, "not admitted: " + name.to_string()};
  }
  unlink_aliases_in_subtree(*node);

  node_count_ -= subtree_size(*node);

  node->parent->disown(node);
  return name;
}

util::Result<NodePath> NamedHierarchy::resolve(const naming::Name& name) {
  TreeNode* node = find_by_name(name);
  if (node == nullptr) {
    return util::Error{util::Error::Code::kNotFound, "no such node: " + name.to_string()};
  }
  NodePath path(name.depth());
  TreeNode* walk = node;
  for (std::size_t i = name.depth(); i-- > 0;) {
    path[i] = walk->parent->index_of(walk);
    walk = walk->parent;
  }
  return path;
}

std::vector<NodePath> NamedHierarchy::resolve_paths(const naming::Name& name,
                                                    std::size_t max_paths) {
  TreeNode* node = find_by_name(name);
  if (node == nullptr) return {};
  std::vector<NodePath> out;
  NodePath suffix;
  suffix.reserve(name.depth());
  collect_paths(*node, suffix, out, max_paths);
  return out;
}

void NamedHierarchy::collect_paths(const TreeNode& at, NodePath& suffix,
                                   std::vector<NodePath>& out, std::size_t max_paths) {
  if (out.size() >= max_paths) return;
  if (at.parent == nullptr) {
    // Only the root has no primary parent: the reversed suffix is a path.
    out.emplace_back(suffix.rbegin(), suffix.rend());
    return;
  }
  // Depth-first, primary parent before the mesh parents in registration
  // order, so the primary path is emitted first.
  const auto climb = [&](const TreeNode& parent) {
    suffix.push_back(parent.index_of(&at));
    collect_paths(parent, suffix, out, max_paths);
    suffix.pop_back();
  };
  climb(*at.parent);
  for (const TreeNode* parent : at.secondary_parents) {
    if (out.size() >= max_paths) return;
    climb(*parent);
  }
}

util::Result<naming::Name> NamedHierarchy::name_of(const NodePath& path) {
  TreeNode* node = find_by_path(path);
  if (node == nullptr) {
    return util::Error{util::Error::Code::kNotFound, "no node at " + to_string(path)};
  }
  return full_name(*node);
}

util::Result<naming::Name> NamedHierarchy::set_alive(const naming::Name& name, bool alive) {
  TreeNode* node = find_by_name(name);
  if (node == nullptr) {
    return util::Error{util::Error::Code::kNotFound, "not admitted: " + name.to_string()};
  }
  node->alive = alive;

  // Mirror into every built overlay the node is a member of; dirty overlays
  // pick the flag up at refresh time.
  std::vector<TreeNode*> parents;
  if (node->parent != nullptr) parents.push_back(node->parent);
  parents.insert(parents.end(), node->secondary_parents.begin(),
                 node->secondary_parents.end());
  for (TreeNode* p : parents) {
    if (p->overlay_dirty || !p->child_overlay) continue;
    const auto j = p->index_of(node);
    if (alive) {
      p->child_overlay->revive(j);
    } else {
      p->child_overlay->kill(j);
    }
  }
  return name;
}

util::Result<bool> NamedHierarchy::is_alive(const naming::Name& name) {
  const TreeNode* node = find_by_name(name);
  if (node == nullptr) {
    return util::Error{util::Error::Code::kNotFound, "not admitted: " + name.to_string()};
  }
  return node->alive;
}

std::uint32_t NamedHierarchy::child_count(const NodePath& path) {
  TreeNode* node = find_by_path(path);
  if (node == nullptr) return 0;
  return node->member_count();
}

overlay::Overlay& NamedHierarchy::overlay_of(const NodePath& path) {
  TreeNode* node = find_by_path(path);
  HOURS_EXPECTS(node != nullptr);
  refresh(*node);
  HOURS_EXPECTS(node->child_overlay != nullptr);
  return *node->child_overlay;
}

std::vector<NamedHierarchy::MemberInfo> NamedHierarchy::members() const {
  std::vector<MemberInfo> out;
  out.reserve(node_count_);
  std::vector<std::string> labels;
  collect_members(*root_, labels, out);
  return out;
}

void NamedHierarchy::collect_members(const TreeNode& node, std::vector<std::string>& labels,
                                     std::vector<MemberInfo>& out) {
  for (const auto& child : node.owned) {
    labels.push_back(child->label);
    MemberInfo info;
    info.name = naming::Name::from_labels(labels);
    info.alive = child->alive;
    info.secondary_parents.reserve(child->secondary_parents.size());
    for (const TreeNode* sp : child->secondary_parents) {
      info.secondary_parents.push_back(full_name(*sp));
    }
    out.push_back(std::move(info));
    collect_members(*child, labels, out);
    labels.pop_back();
  }
}

NamedHierarchy::TopologySnapshot NamedHierarchy::topology_snapshot() {
  TopologySnapshot snap;
  std::vector<TreeNode*> order{root_.get()};
  order.reserve(node_count_ + 1);
  snap.child_counts.reserve(node_count_ + 1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    TreeNode* node = order[i];
    snap.child_counts.push_back(node->member_count());
    if (!node->alive) snap.dead.push_back(static_cast<std::uint32_t>(i));
    for (TreeNode* member : node->members) order.push_back(member);
  }
  return snap;
}

bool NamedHierarchy::root_alive() const noexcept { return root_->alive; }

void NamedHierarchy::set_root_alive(bool alive) noexcept { root_->alive = alive; }

}  // namespace hours::hierarchy
