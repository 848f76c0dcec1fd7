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
  /// One slot of the label table: an owned child and its label's FNV-1a
  /// hash, or an empty slot (null node).
  struct LabelSlot {
    std::uint64_t hash = 0;
    TreeNode* node = nullptr;
  };

  // A resolve reads only the fields before `parent`, all in a node's first
  // 64 bytes: its cached index and label, and above the leaf its epoch and
  // label table.

  /// This node's ring index in its primary parent, valid while
  /// `index_stamp` equals that parent's `member_epoch`. A resolve caches
  /// it, and topology_snapshot stamps every owned child in one walk.
  mutable std::uint32_t ring_index = 0;
  mutable std::uint16_t index_stamp = 0;
  /// Bumped by every change to `members`, which can shift ring indices; a
  /// child's cached index counts only while its stamp matches. 0 is never
  /// an epoch, so a fresh stamp (0) never matches.
  std::uint16_t member_epoch = 1;
  /// This node's own label ("" for the root). Full names are rebuilt from
  /// the primary-parent chain (full_name), which no query path needs.
  std::string label;
  /// `owned` keyed by label hash: open addressing with linear probing over
  /// `slot_mask + 1` slots (a power of two, at most 7/8 full; null before
  /// the first child). A lookup reads from the hash's home slot to a hash
  /// match, one or two lines of this table, and compares labels only on a
  /// match, so labels that share a hash are told apart.
  std::unique_ptr<LabelSlot[]> slots;
  std::uint32_t slot_mask = 0;
  bool alive = true;
  // Membership changes invalidate the overlay (expensive: routing tables);
  // it regenerates on the next routed visit, so a topology walk never
  // forces a table build.
  bool overlay_dirty = true;
  TreeNode* parent = nullptr;  // primary parent

  ids::Identifier id;
  std::vector<TreeNode*> secondary_parents;      // mesh parents (Section 7)
  std::vector<std::unique_ptr<TreeNode>> owned;  // primary children, admission order
  /// Owned plus mesh alias children, always sorted by identifier: a
  /// member's position is its ring index (Section 3.2).
  std::vector<TreeNode*> members;
  std::unique_ptr<overlay::Overlay> child_overlay;

  [[nodiscard]] std::uint32_t member_count() const noexcept {
    return static_cast<std::uint32_t>(members.size());
  }

  /// The home slot of label hash `h`: the high half of a Fibonacci
  /// multiply, since FNV-1a's low bits depend only on the labels' low bits.
  [[nodiscard]] std::uint32_t home(std::uint64_t h) const noexcept {
    return static_cast<std::uint32_t>((h * 0x9E3779B97F4A7C15ULL) >> 32) & slot_mask;
  }

  /// The owned child labelled `wanted`, or null. The probe ends at an
  /// empty slot: the table is never full.
  [[nodiscard]] TreeNode* child(std::string_view wanted) const {
    if (!slots) return nullptr;
    const std::uint64_t h = util::fnv1a(wanted);
    for (std::uint32_t i = home(h);; i = (i + 1) & slot_mask) {
      const LabelSlot& slot = slots[i];
      if (slot.node == nullptr) return nullptr;
      if (slot.hash == h && slot.node->label == wanted) return slot.node;
    }
  }

  /// Ring index of `member` (owned or alias): owned_index for an owned
  /// child, else a binary search on identifier.
  [[nodiscard]] std::uint32_t index_of(const TreeNode* member) const {
    return member->parent == this ? owned_index(*member) : search(*member);
  }

  /// Ring index of the owned child `member`: its cached index while the
  /// stamp is current, which reads the child alone; else a binary search
  /// on identifier, cached.
  [[nodiscard]] std::uint32_t owned_index(const TreeNode& member) const {
    if (member.index_stamp == member_epoch) return member.ring_index;
    const std::uint32_t index = search(member);
    stamp(member, index);
    return index;
  }

  [[nodiscard]] std::uint32_t search(const TreeNode& member) const {
    const auto it = std::ranges::lower_bound(members, member.id, {}, &TreeNode::id);
    HOURS_ASSERT(it != members.end() && *it == &member);
    return static_cast<std::uint32_t>(it - members.begin());
  }

  /// Caches `index` as the owned child `member`'s current ring index.
  void stamp(const TreeNode& member, std::uint32_t index) const {
    member.ring_index = index;
    member.index_stamp = member_epoch;
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

  /// Puts (h, node) in the first empty slot from h's home on.
  void place(std::uint64_t h, TreeNode* node) {
    std::uint32_t i = home(h);
    while (slots[i].node != nullptr) i = (i + 1) & slot_mask;
    slots[i] = {h, node};
  }

  /// Doubles the label table (4 slots at first) and re-places its entries.
  void grow_slots() {
    const std::uint32_t old_capacity = slots ? slot_mask + 1 : 0;
    const std::uint32_t capacity = old_capacity == 0 ? 4 : 2 * old_capacity;
    const auto old = std::exchange(slots, std::make_unique<LabelSlot[]>(capacity));
    slot_mask = capacity - 1;
    for (std::uint32_t i = 0; i < old_capacity; ++i) {
      if (old[i].node != nullptr) place(old[i].hash, old[i].node);
    }
  }

  /// Empties `node`'s slot by backward shift: each later entry of the
  /// probe run moves into the hole unless its home lies after the hole, so
  /// every remaining entry stays reachable from its home.
  void unplace(const TreeNode* node) {
    std::uint32_t hole = home(util::fnv1a(node->label));
    while (slots[hole].node != node) hole = (hole + 1) & slot_mask;
    for (std::uint32_t at = (hole + 1) & slot_mask; slots[at].node != nullptr;
         at = (at + 1) & slot_mask) {
      if (((at - home(slots[at].hash)) & slot_mask) >= ((at - hole) & slot_mask)) {
        slots[hole] = slots[at];
        hole = at;
      }
    }
    slots[hole] = {};
  }

  void adopt(std::unique_ptr<TreeNode> node) {
    if ((owned.size() + 1) * 8 > (std::size_t{slot_mask} + 1) * 7) grow_slots();
    place(util::fnv1a(node->label), node.get());
    insert_member(node.get());
    owned.push_back(std::move(node));
  }

  /// Unlinks and destroys the owned child `node` with its subtree.
  void disown(const TreeNode* node) {
    unplace(node);
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
  // find_by_name's descent, reading each index from the child just found:
  // a node reached through a label table is an owned child.
  NodePath path(name.depth());
  const TreeNode* node = root_.get();
  for (std::size_t lvl = 1; lvl <= name.depth(); ++lvl) {
    const TreeNode* next = node->child(name.label(lvl));
    if (next == nullptr) {
      return util::Error{util::Error::Code::kNotFound, "no such node: " + name.to_string()};
    }
    path[lvl - 1] = node->owned_index(*next);
    node = next;
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
  // order[i] (i > 0) is member `index` of order[via]: members are appended
  // parent by parent, so `via` advances past each parent's count. Stamping
  // the owned ones here means a resolve after the mirror build never
  // searches for a ring index.
  std::size_t via = 0;
  std::uint32_t index = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    TreeNode* node = order[i];
    if (i > 0) {
      while (index == snap.child_counts[via]) {
        ++via;
        index = 0;
      }
      if (node->parent == order[via]) order[via]->stamp(*node, index);
      ++index;
    }
    snap.child_counts.push_back(node->member_count());
    if (!node->alive) snap.dead.push_back(static_cast<std::uint32_t>(i));
    for (TreeNode* member : node->members) order.push_back(member);
  }
  return snap;
}

bool NamedHierarchy::root_alive() const noexcept { return root_->alive; }

void NamedHierarchy::set_root_alive(bool alive) noexcept { root_->alive = alive; }

}  // namespace hours::hierarchy
