#include "hierarchy/node_path.hpp"

#include <algorithm>

#include "rng/splitmix64.hpp"
#include "util/contracts.hpp"

namespace hours::hierarchy {

NodePath parent(const NodePath& path) {
  HOURS_EXPECTS(!path.empty());
  return NodePath{path.begin(), path.end() - 1};
}

NodePath child(const NodePath& path, ids::RingIndex i) {
  NodePath down = path;
  down.push_back(i);
  return down;
}

NodePath ancestor_at(const NodePath& path, std::size_t lvl) {
  HOURS_EXPECTS(lvl <= path.size());
  return NodePath{path.begin(), path.begin() + static_cast<std::ptrdiff_t>(lvl)};
}

bool is_prefix(const NodePath& prefix, const NodePath& path) noexcept {
  if (prefix.size() > path.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), path.begin());
}

std::string to_string(const NodePath& path) {
  if (path.empty()) return "/";
  std::string out;
  for (const auto index : path) {
    out += '/';
    out += std::to_string(index);
  }
  return out;
}

std::uint64_t overlay_seed(std::uint64_t base, std::uint64_t salt, const NodePath& parent_path) {
  std::uint64_t seed = rng::mix64(base, salt);
  for (const auto index : parent_path) seed = rng::mix64(seed, index);
  return seed;
}

}  // namespace hours::hierarchy
