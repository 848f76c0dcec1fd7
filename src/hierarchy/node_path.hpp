// Node identity within a service hierarchy.
//
// A node is addressed by the sequence of ring indices on the path from the
// root: {} is the root, {7} the level-1 node with index 7 in the root's
// child overlay, {7, 123} that node's child with index 123, and so on. This
// representation lets multi-million-node hierarchies exist lazily — a node
// "exists" by virtue of its path being within the fanout bounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ids/ring.hpp"

namespace hours::hierarchy {

using NodePath = std::vector<ids::RingIndex>;

/// Level of the node (0 = root).
[[nodiscard]] inline std::size_t level(const NodePath& path) noexcept { return path.size(); }

/// Parent path; precondition: not the root.
[[nodiscard]] NodePath parent(const NodePath& path);

/// The path extended by child index `i`.
[[nodiscard]] NodePath child(const NodePath& path, ids::RingIndex i);

/// The ancestor of `path` at `lvl` (a prefix).
[[nodiscard]] NodePath ancestor_at(const NodePath& path, std::size_t lvl);

/// True if `prefix` equals `path` or is an ancestor of it.
[[nodiscard]] bool is_prefix(const NodePath& prefix, const NodePath& path) noexcept;

/// "/", "/7", "/7/123", ... for diagnostics.
[[nodiscard]] std::string to_string(const NodePath& path);

/// Per-engine salts of overlay_seed: the graph engine's synthetic
/// hierarchy and the event engine draw different tables from one base seed.
inline constexpr std::uint64_t kGraphOverlaySalt = 0x6F76657261ULL;  // "overa"
inline constexpr std::uint64_t kEventOverlaySalt = 0x6576656E74ULL;  // "event"

/// Routing-table seed of the overlay formed by the children of
/// `parent_path`: `base` mixed with `salt`, then with each path index.
[[nodiscard]] std::uint64_t overlay_seed(std::uint64_t base, std::uint64_t salt,
                                         const NodePath& parent_path);

}  // namespace hours::hierarchy
