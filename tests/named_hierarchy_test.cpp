#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "hierarchy/named.hpp"
#include "ids/identifier.hpp"
#include "rng/xoshiro256.hpp"

namespace hours::hierarchy {
namespace {

overlay::OverlayParams params() {
  overlay::OverlayParams p;
  p.k = 3;
  p.q = 2;
  return p;
}

naming::Name name(std::string_view text) { return naming::Name::parse(text).value(); }

TEST(NamedHierarchy, AdmissionRequiresParent) {
  NamedHierarchy h{params()};
  EXPECT_FALSE(h.admit(name("www.cs.ucla")).ok());  // ucla not admitted yet
  EXPECT_TRUE(h.admit(name("ucla")).ok());
  EXPECT_TRUE(h.admit(name("cs.ucla")).ok());
  EXPECT_TRUE(h.admit(name("www.cs.ucla")).ok());
  EXPECT_EQ(h.node_count(), 3U);
}

TEST(NamedHierarchy, RejectsDuplicatesAndRoot) {
  NamedHierarchy h{params()};
  EXPECT_TRUE(h.admit(name("zone")).ok());
  EXPECT_FALSE(h.admit(name("zone")).ok());
  EXPECT_FALSE(h.admit(naming::Name{}).ok());
}

TEST(NamedHierarchy, IndicesFollowSha1Order) {
  NamedHierarchy h{params()};
  const std::vector<std::string> labels{"alpha", "beta", "gamma", "delta", "epsilon"};
  for (const auto& l : labels) ASSERT_TRUE(h.admit(name(l)).ok());

  // Expected ring order: children sorted by SHA-1 of their full names.
  std::vector<std::pair<ids::Identifier, std::string>> expected;
  for (const auto& l : labels) {
    expected.emplace_back(ids::Identifier::from_name(l), l);
  }
  std::sort(expected.begin(), expected.end());

  for (std::uint32_t i = 0; i < expected.size(); ++i) {
    const auto resolved = h.resolve(name(expected[i].second));
    ASSERT_TRUE(resolved.ok());
    EXPECT_EQ(resolved.value(), (NodePath{i})) << expected[i].second;
  }
}

TEST(NamedHierarchy, ResolveAndNameOfAreInverse) {
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(name("top")).ok());
  ASSERT_TRUE(h.admit(name("a.top")).ok());
  ASSERT_TRUE(h.admit(name("b.top")).ok());
  ASSERT_TRUE(h.admit(name("x.a.top")).ok());

  for (const char* text : {"top", "a.top", "b.top", "x.a.top"}) {
    const auto path = h.resolve(name(text));
    ASSERT_TRUE(path.ok()) << text;
    const auto back = h.name_of(path.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().to_string(), text);
  }
  EXPECT_FALSE(h.resolve(name("missing.top")).ok());
  EXPECT_FALSE(h.name_of({9, 9}).ok());
}

TEST(NamedHierarchy, LivenessByName) {
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(name("zone")).ok());
  ASSERT_TRUE(h.admit(name("srv.zone")).ok());

  EXPECT_TRUE(h.is_alive(name("srv.zone")).value());
  ASSERT_TRUE(h.set_alive(name("srv.zone"), false).ok());
  EXPECT_FALSE(h.is_alive(name("srv.zone")).value());

  // Mirrored into the overlay liveness used by the router.
  const auto path = h.resolve(name("srv.zone")).value();
  EXPECT_FALSE(h.overlay_of(parent(path)).alive(path.back()));

  ASSERT_TRUE(h.set_alive(name("srv.zone"), true).ok());
  EXPECT_TRUE(h.overlay_of(parent(path)).alive(path.back()));
  EXPECT_FALSE(h.set_alive(name("ghost.zone"), false).ok());
}

TEST(NamedHierarchy, DeadNodeStaysMemberAcrossRefresh) {
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(name("zone")).ok());
  for (const char* l : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(h.admit(name(std::string{l} + ".zone")).ok());
  }
  ASSERT_TRUE(h.set_alive(name("b.zone"), false).ok());

  // A membership change forces an overlay rebuild; the DoS'd node must stay
  // a dead member (failures are not leaves).
  ASSERT_TRUE(h.admit(name("e.zone")).ok());
  const auto path = h.resolve(name("b.zone")).value();
  EXPECT_FALSE(h.overlay_of(parent(path)).alive(path.back()));
  EXPECT_EQ(h.overlay_of(parent(path)).size(), 5U);
}

TEST(NamedHierarchy, RemoveSubtree) {
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(name("zone")).ok());
  ASSERT_TRUE(h.admit(name("a.zone")).ok());
  ASSERT_TRUE(h.admit(name("x.a.zone")).ok());
  ASSERT_TRUE(h.admit(name("y.a.zone")).ok());
  EXPECT_EQ(h.node_count(), 4U);

  ASSERT_TRUE(h.remove(name("a.zone")).ok());
  EXPECT_EQ(h.node_count(), 1U);
  EXPECT_FALSE(h.resolve(name("a.zone")).ok());
  EXPECT_FALSE(h.resolve(name("x.a.zone")).ok());
  EXPECT_FALSE(h.remove(name("a.zone")).ok());
  EXPECT_FALSE(h.remove(naming::Name{}).ok());
}

TEST(NamedHierarchy, ChildCountThroughModel) {
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(name("zone")).ok());
  ASSERT_TRUE(h.admit(name("a.zone")).ok());
  ASSERT_TRUE(h.admit(name("b.zone")).ok());
  const auto zone = h.resolve(name("zone")).value();
  EXPECT_EQ(h.child_count({}), 1U);
  EXPECT_EQ(h.child_count(zone), 2U);
  EXPECT_EQ(h.child_count({5}), 0U);  // nonexistent
}

TEST(NamedHierarchy, RootLiveness) {
  NamedHierarchy h{params()};
  EXPECT_TRUE(h.root_alive());
  h.set_root_alive(false);
  EXPECT_FALSE(h.root_alive());
}

// ---------------------------------------------------------------------------
TEST(NamedHierarchy, CachedIndexSurvivesEpochWrap) {
  // A resolve caches a node's ring index under its parent's membership
  // epoch. Here the parent's membership then changes 65,535 times (enough
  // to bring a 16-bit epoch back round) and ends with a sibling that sorts
  // before the node: a stamp that matched again would return the stale
  // index.
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(naming::Name::parse("z").value()).ok());
  const auto keep = naming::Name::parse("keep.z").value();
  ASSERT_TRUE(h.admit(keep).ok());
  // A sibling label whose identifier sorts before keep.z's.
  naming::Name temp;
  for (int i = 0; temp.is_root(); ++i) {
    std::string label{"t"};
    label += std::to_string(i);
    const auto candidate = naming::Name::from_labels({"z", label});
    if (ids::Identifier::from_name(candidate.to_string()) <
        ids::Identifier::from_name(keep.to_string())) {
      temp = candidate;
    }
  }
  ASSERT_EQ(h.resolve(keep).value(), (NodePath{0, 0}));  // cached here

  for (int i = 0; i < 32'767; ++i) {  // two membership changes each
    ASSERT_TRUE(h.admit(temp).ok());
    ASSERT_TRUE(h.remove(temp).ok());
  }
  ASSERT_TRUE(h.admit(temp).ok());
  EXPECT_EQ(h.resolve(keep).value(), (NodePath{0, 1}));
  EXPECT_EQ(h.resolve(temp).value(), (NodePath{0, 0}));
  EXPECT_EQ(h.name_of(NodePath{0, 1}).value(), keep);
}

/// `<prefix><i>.<parent>`, built by appends: g++ 12's optimizer reports
/// -Wrestrict on a `"x" + std::to_string(i) + ...` initializer.
naming::Name numbered(std::string label, int i, std::string_view parent) {
  label += std::to_string(i);
  label += '.';
  label += parent;
  return name(label);
}

/// `names`' ring indices among themselves: their ranks by identifier.
std::vector<std::uint32_t> ranks_by_identifier(const std::vector<naming::Name>& names) {
  std::vector<std::uint32_t> order(names.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::ranges::sort(order, {}, [&names](std::uint32_t i) {
    return ids::Identifier::from_name(names[i].to_string());
  });
  std::vector<std::uint32_t> rank(names.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) rank[order[r]] = r;
  return rank;
}

TEST(NamedHierarchy, SnapshotStampsGiveWayToLaterAdmissions) {
  // topology_snapshot() stamps every node's ring index. A sibling admitted
  // afterwards whose identifier sorts before all the others shifts each of
  // their indices by one: a resolve must return the shifted index, for the
  // siblings and on the path to their children, not the stamped one.
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(name("z")).ok());
  std::vector<naming::Name> kids;
  for (int i = 0; i < 12; ++i) {
    kids.push_back(numbered("k", i, "z"));
    ASSERT_TRUE(h.admit(kids.back()).ok());
  }
  const auto grandchild = name("g.k5.z");
  ASSERT_TRUE(h.admit(grandchild).ok());
  const auto rank = ranks_by_identifier(kids);
  (void)h.topology_snapshot();
  for (std::size_t i = 0; i < kids.size(); ++i) {
    ASSERT_EQ(h.resolve(kids[i]).value(), (NodePath{0, rank[i]})) << kids[i].to_string();
  }

  ids::Identifier lowest = ids::Identifier::from_name(kids[0].to_string());
  for (const auto& kid : kids) lowest = std::min(lowest, ids::Identifier::from_name(kid.to_string()));
  naming::Name first;
  for (int i = 0; first.is_root(); ++i) {
    const auto candidate = numbered("f", i, "z");
    if (ids::Identifier::from_name(candidate.to_string()) < lowest) first = candidate;
  }
  ASSERT_TRUE(h.admit(first).ok());

  EXPECT_EQ(h.resolve(first).value(), (NodePath{0, 0}));
  for (std::size_t i = 0; i < kids.size(); ++i) {
    EXPECT_EQ(h.resolve(kids[i]).value(), (NodePath{0, rank[i] + 1})) << kids[i].to_string();
  }
  EXPECT_EQ(h.resolve(grandchild).value(), (NodePath{0, rank[5] + 1, 0}));
  EXPECT_EQ(h.name_of(NodePath{0, rank[5] + 1}).value(), kids[5]);
}

TEST(NamedHierarchy, ReadmittedLabelResolvesToTheNewNode) {
  // Removing children empties their label slots, and later slots of the
  // same probe run shift back; a re-admitted label must then find the new
  // node, never the freed one (which the ASan build would also report). The
  // old nodes were dead and had a child: the new ones are alive and have
  // none.
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(name("z")).ok());
  std::vector<naming::Name> kids;
  for (int i = 0; i < 64; ++i) {
    kids.push_back(numbered("c", i, "z"));
    ASSERT_TRUE(h.admit(kids.back()).ok());
  }
  std::vector<naming::Name> kept;
  std::vector<naming::Name> gone;
  for (std::size_t i = 0; i < kids.size(); ++i) (i % 3 == 0 ? gone : kept).push_back(kids[i]);
  for (const auto& n : gone) {
    ASSERT_TRUE(h.admit(n.child("x")).ok());
    ASSERT_TRUE(h.set_alive(n, false).ok());
    ASSERT_TRUE(h.remove(n).ok());
  }
  (void)h.topology_snapshot();

  const auto check = [&h](const std::vector<naming::Name>& present) {
    const auto rank = ranks_by_identifier(present);
    for (std::size_t i = 0; i < present.size(); ++i) {
      EXPECT_EQ(h.resolve(present[i]).value(), (NodePath{0, rank[i]})) << present[i].to_string();
      EXPECT_TRUE(h.is_alive(present[i]).value()) << present[i].to_string();
    }
  };
  for (const auto& n : gone) EXPECT_FALSE(h.resolve(n).ok()) << n.to_string();
  check(kept);

  for (const auto& n : gone) ASSERT_TRUE(h.admit(n).ok()) << n.to_string();
  for (const auto& n : gone) {
    EXPECT_FALSE(h.resolve(n.child("x")).ok()) << n.to_string();
    EXPECT_FALSE(h.admit(n).ok()) << n.to_string();  // present again: a duplicate
  }
  check(kids);
  EXPECT_EQ(h.node_count(), 1 + kids.size());
}

TEST(NamedHierarchy, TwentyThousandChildrenAdmitInUnderASecond) {
  // Admission may not walk the siblings: 20,000 children under one parent
  // would then cost 2 * 10^8 node visits. The time bound holds in optimized
  // builds without sanitizers; every build checks the indices.
  NamedHierarchy h{params()};
  ASSERT_TRUE(h.admit(name("wide")).ok());
  std::vector<naming::Name> kids;
  kids.reserve(20'000);
  for (int i = 0; i < 20'000; ++i) kids.push_back(numbered("h", i, "wide"));
  const auto start = std::chrono::steady_clock::now();
  for (const auto& kid : kids) ASSERT_TRUE(h.admit(kid).ok());
  const std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  EXPECT_LT(took.count(), 1.0);
#endif
  const auto rank = ranks_by_identifier(kids);
  for (std::size_t i = 0; i < kids.size(); i += 97) {
    EXPECT_EQ(h.resolve(kids[i]).value(), (NodePath{0, rank[i]})) << kids[i].to_string();
  }
  EXPECT_EQ(h.child_count(NodePath{0}), 20'000U);
}

// Differential check of the label and identifier indexes: seeded random
// admit / admit_secondary / remove / set_alive sequences, re-admission after
// removal included, must leave every view NamedHierarchy offers equal to a
// brute-force model that scans labels linearly and fully sorts each sibling
// set by identifier on every lookup. Beyond the full comparison every 16th
// step, one random admitted name is resolved after every step, so cached
// ring indices are checked right after each membership change.
//
// Seed control, as in the fuzz harnesses:
//   HOURS_FUZZ_SEEDS=N   sweep seeds 1..N   (default 25)
//   HOURS_FUZZ_SEED=S    run exactly seed S

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

/// Flat node list in admission order (so parents precede children); the
/// root is node 0. Nothing is indexed or cached.
class ReferenceHierarchy {
 public:
  ReferenceHierarchy() : nodes_(1) {}

  bool admit(const naming::Name& n) {
    if (n.is_root() || find(n)) return false;
    const auto parent = find(n.parent());
    if (!parent) return false;
    nodes_.push_back({n, ids::Identifier::from_name(n.to_string()), *parent, {}, true, true});
    return true;
  }

  bool admit_secondary(const naming::Name& n, const naming::Name& parent) {
    const auto node = find(n);
    const auto p = find(parent);
    if (!node || !p || parent.depth() + 1 != n.depth()) return false;
    Node& child = nodes_[*node];
    if (child.parent == *p || std::ranges::find(child.secondary, *p) != child.secondary.end()) {
      return false;
    }
    child.secondary.push_back(*p);
    return true;
  }

  bool remove(const naming::Name& n) {
    const auto target = find(n);
    if (n.is_root() || !target) return false;
    std::vector<bool> gone(nodes_.size(), false);
    for (std::size_t i = *target; i < nodes_.size(); ++i) {
      if (nodes_[i].present && (i == *target || gone[nodes_[i].parent])) {
        gone[i] = true;
        nodes_[i].present = false;
      }
    }
    for (Node& node : nodes_) std::erase_if(node.secondary, [&](std::size_t p) { return gone[p]; });
    return true;
  }

  bool set_alive(const naming::Name& n, bool alive) {
    const auto node = find(n);
    if (!node) return false;
    nodes_[*node].alive = alive;
    return true;
  }
  void set_root_alive(bool alive) { nodes_[0].alive = alive; }
  [[nodiscard]] bool alive(std::size_t node) const { return nodes_[node].alive; }

  /// Linear label scan from the root over owned (primary) children.
  [[nodiscard]] std::optional<std::size_t> find(const naming::Name& n) const {
    std::size_t at = 0;
    for (std::size_t lvl = 1; lvl <= n.depth(); ++lvl) {
      const auto it = std::find_if(nodes_.begin() + 1, nodes_.end(), [&](const Node& c) {
        return c.present && c.parent == at && c.name.labels().back() == n.label(lvl);
      });
      if (it == nodes_.end()) return std::nullopt;
      at = static_cast<std::size_t>(it - nodes_.begin());
    }
    return at;
  }

  /// Owned plus alias children of `at`, fully sorted by identifier.
  [[nodiscard]] std::vector<std::size_t> members(std::size_t at) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      const Node& c = nodes_[i];
      if (c.present &&
          (c.parent == at || std::ranges::find(c.secondary, at) != c.secondary.end())) {
        out.push_back(i);
      }
    }
    std::ranges::sort(out, {}, [this](std::size_t i) { return nodes_[i].id; });
    return out;
  }

  [[nodiscard]] std::uint32_t index_of(std::size_t parent, std::size_t child) const {
    const auto m = members(parent);
    return static_cast<std::uint32_t>(std::ranges::find(m, child) - m.begin());
  }

  /// Ancestor chains depth-first, primary parent before mesh parents.
  [[nodiscard]] std::vector<NodePath> paths(const naming::Name& n, std::size_t max_paths) const {
    std::vector<NodePath> out;
    const auto node = find(n);
    if (!node) return out;
    NodePath suffix;
    const std::function<void(std::size_t)> up = [&](std::size_t at) {
      if (at == 0) {
        out.emplace_back(suffix.rbegin(), suffix.rend());
        return;
      }
      std::vector<std::size_t> parents{nodes_[at].parent};
      parents.insert(parents.end(), nodes_[at].secondary.begin(), nodes_[at].secondary.end());
      for (const std::size_t p : parents) {
        if (out.size() >= max_paths) return;
        suffix.push_back(index_of(p, at));
        up(p);
        suffix.pop_back();
      }
    };
    up(*node);
    return out;
  }

  [[nodiscard]] NamedHierarchy::TopologySnapshot topology() const {
    NamedHierarchy::TopologySnapshot snap;
    std::vector<std::size_t> order{0};
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto m = members(order[i]);
      snap.child_counts.push_back(static_cast<std::uint32_t>(m.size()));
      if (!nodes_[order[i]].alive) snap.dead.push_back(static_cast<std::uint32_t>(i));
      order.insert(order.end(), m.begin(), m.end());
    }
    return snap;
  }

  /// Pre-order over owned children in admission order.
  [[nodiscard]] std::vector<NamedHierarchy::MemberInfo> member_infos() const {
    std::vector<NamedHierarchy::MemberInfo> out;
    const std::function<void(std::size_t)> walk = [&](std::size_t at) {
      for (std::size_t i = 1; i < nodes_.size(); ++i) {
        const Node& c = nodes_[i];
        if (!c.present || c.parent != at) continue;
        NamedHierarchy::MemberInfo info{c.name, c.alive, {}};
        for (const std::size_t p : c.secondary) info.secondary_parents.push_back(nodes_[p].name);
        out.push_back(std::move(info));
        walk(i);
      }
    };
    walk(0);
    return out;
  }

  /// Admitted nodes, root excluded, in admission order.
  [[nodiscard]] std::vector<std::size_t> present() const {
    std::vector<std::size_t> out;
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].present) out.push_back(i);
    }
    return out;
  }
  [[nodiscard]] const naming::Name& name_of(std::size_t node) const { return nodes_[node].name; }

 private:
  struct Node {
    naming::Name name;
    ids::Identifier id;
    std::size_t parent = 0;              // primary parent
    std::vector<std::size_t> secondary;  // mesh parents, registration order
    bool alive = true;
    bool present = true;
  };
  std::vector<Node> nodes_;
};

/// Every view of `h` against the model: lookups by each name ever used,
/// inverse and shape lookups by each path, the BFS image and the pre-order
/// member list.
void expect_same_views(NamedHierarchy& h, const ReferenceHierarchy& ref,
                       const std::vector<naming::Name>& universe) {
  for (const auto& n : universe) {
    const auto want = ref.paths(n, 8);
    EXPECT_EQ(h.resolve_paths(n), want) << n.to_string();
    // The cut-offs below the default; not 0, where the model still emits
    // the root's path and resolve_paths emits none.
    for (const std::size_t max_paths : {1U, 2U, 3U}) {
      EXPECT_EQ(h.resolve_paths(n, max_paths), ref.paths(n, max_paths))
          << n.to_string() << " max_paths " << max_paths;
    }
    const auto resolved = h.resolve(n);
    ASSERT_EQ(resolved.ok(), !want.empty()) << n.to_string();
    if (resolved.ok()) {
      EXPECT_EQ(resolved.value(), want.front()) << n.to_string();
    }
    const auto alive = h.is_alive(n);
    ASSERT_EQ(alive.ok(), !want.empty()) << n.to_string();
    if (alive.ok()) {
      EXPECT_EQ(alive.value(), ref.alive(*ref.find(n))) << n.to_string();
    }
  }

  std::size_t admitted = 0;
  for (const std::size_t node : ref.present()) {
    ++admitted;
    const auto& n = ref.name_of(node);
    for (const auto& path : ref.paths(n, 8)) {
      const auto back = h.name_of(path);
      ASSERT_TRUE(back.ok()) << to_string(path);
      EXPECT_EQ(back.value(), n) << to_string(path);
      EXPECT_EQ(h.child_count(path), ref.members(node).size()) << n.to_string();
      // Builds the parent overlay: later set_alive calls mirror into it.
      EXPECT_EQ(h.node_alive(path), ref.alive(node)) << n.to_string();
    }
  }
  EXPECT_EQ(h.node_count(), admitted);
  const NodePath past_end{static_cast<std::uint32_t>(ref.members(0).size())};
  EXPECT_FALSE(h.name_of(past_end).ok());
  EXPECT_EQ(h.child_count(past_end), 0U);
  EXPECT_EQ(h.root_alive(), ref.alive(0));

  const auto snap = h.topology_snapshot();
  const auto want_snap = ref.topology();
  EXPECT_EQ(snap.child_counts, want_snap.child_counts);
  EXPECT_EQ(snap.dead, want_snap.dead);

  const auto infos = h.members();
  const auto want_infos = ref.member_infos();
  ASSERT_EQ(infos.size(), want_infos.size());
  for (std::size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, want_infos[i].name) << i;
    EXPECT_EQ(infos[i].alive, want_infos[i].alive) << i;
    EXPECT_EQ(infos[i].secondary_parents, want_infos[i].secondary_parents) << i;
  }
}

void run_differential_seed(std::uint64_t seed) {
  SCOPED_TRACE("reproduce with HOURS_FUZZ_SEED=" + std::to_string(seed));
  // Few labels, so siblings under different parents share labels and
  // re-admissions and duplicates are common.
  static constexpr std::array<const char*, 20> kLabels{
      "www", "mail", "ns", "db",  "ftp", "vpn", "a",  "b",  "cs", "ee",
      "lab", "git",  "me", "api", "cdn", "mx",  "ns2", "c", "d",  "web"};
  constexpr int kSteps = 240;
  constexpr int kCheckEvery = 16;

  rng::Xoshiro256 rng{seed};
  rng::Xoshiro256 probe{~seed};  // picks the per-step resolve, apart from the ops
  NamedHierarchy h{params()};
  ReferenceHierarchy ref;
  std::vector<naming::Name> universe{naming::Name{}};
  std::vector<naming::Name> removed;
  const auto pick = [&rng](const auto& v) { return v[rng.below(v.size())]; };
  const auto remember = [&universe](const naming::Name& n) {
    if (std::ranges::find(universe, n) == universe.end()) universe.push_back(n);
  };

  for (int step = 0; step < kSteps; ++step) {
    const auto present = ref.present();
    const std::uint64_t op = rng.below(100);
    if (op < 45 || present.empty()) {
      // Admit under the root or an admitted node above the leaf level;
      // sometimes a duplicate, sometimes under a missing parent.
      std::vector<naming::Name> parents{naming::Name{}};
      for (const std::size_t node : present) {
        if (ref.name_of(node).depth() < 3) parents.push_back(ref.name_of(node));
      }
      naming::Name parent = pick(parents);
      if (rng.below(20) == 0) parent = parent.child("ghost");
      const naming::Name n = parent.child(pick(kLabels));
      remember(n);
      ASSERT_EQ(h.admit(n).ok(), ref.admit(n)) << "admit " << n.to_string();
    } else if (op < 60) {
      // Mesh parent: mostly one level up (valid unless already a parent),
      // sometimes any admitted node (wrong level).
      const naming::Name& n = ref.name_of(pick(present));
      std::vector<naming::Name> candidates;
      for (const std::size_t node : present) {
        const auto& p = ref.name_of(node);
        if (rng.below(5) == 0 || p.depth() + 1 == n.depth()) candidates.push_back(p);
      }
      if (candidates.empty()) continue;
      const naming::Name p = pick(candidates);
      ASSERT_EQ(h.admit_secondary(n, p).ok(), ref.admit_secondary(n, p))
          << "admit_secondary " << n.to_string() << " under " << p.to_string();
    } else if (op < 66) {
      const naming::Name n = rng.below(10) == 0 ? pick(universe) : ref.name_of(pick(present));
      const bool ok = ref.remove(n);
      ASSERT_EQ(h.remove(n).ok(), ok) << "remove " << n.to_string();
      if (ok) removed.push_back(n);
    } else if (op < 74) {
      if (removed.empty()) continue;
      const naming::Name n = pick(removed);
      ASSERT_EQ(h.admit(n).ok(), ref.admit(n)) << "re-admit " << n.to_string();
    } else if (op < 96) {
      const naming::Name n = rng.below(10) == 0 ? pick(universe) : ref.name_of(pick(present));
      const bool alive = rng.below(2) == 0;
      ASSERT_EQ(h.set_alive(n, alive).ok(), ref.set_alive(n, alive)) << "set_alive " << n.to_string();
    } else {
      const bool alive = !h.root_alive();
      h.set_root_alive(alive);
      ref.set_root_alive(alive);
    }
    if (const auto now_present = ref.present(); !now_present.empty()) {
      const auto& n = ref.name_of(now_present[probe.below(now_present.size())]);
      const auto resolved = h.resolve(n);
      ASSERT_TRUE(resolved.ok()) << "after step " << step << ": " << n.to_string();
      ASSERT_EQ(resolved.value(), ref.paths(n, 1).front())
          << "after step " << step << ": " << n.to_string();
    }
    if (step % kCheckEvery == kCheckEvery - 1 || step == kSteps - 1) {
      SCOPED_TRACE("after step " + std::to_string(step));
      expect_same_views(h, ref, universe);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(NamedHierarchyDifferential, IndexedLookupsMatchBruteForce) {
  const std::uint64_t pinned = env_u64("HOURS_FUZZ_SEED", 0);
  const std::uint64_t count = pinned != 0 ? 1 : env_u64("HOURS_FUZZ_SEEDS", 25);
  ASSERT_GT(count, 0U) << "HOURS_FUZZ_SEEDS must be >= 1";
  for (std::uint64_t i = 0; i < count; ++i) {
    run_differential_seed(pinned != 0 ? pinned : i + 1);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace hours::hierarchy
