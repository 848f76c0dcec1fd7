#include "hierarchy/synthetic.hpp"

#include "util/contracts.hpp"

namespace hours::hierarchy {

std::uint64_t SyntheticSpec::approx_node_count() const {
  std::uint64_t total = 1;
  std::uint64_t level_nodes = 1;
  for (const std::uint32_t f : fanout) {
    level_nodes *= f;
    total += level_nodes;
  }
  return total;
}

SyntheticHierarchy::SyntheticHierarchy(SyntheticSpec spec, overlay::OverlayParams params)
    : spec_(std::move(spec)), params_(params) {
  HOURS_EXPECTS(!spec_.fanout.empty());
  for (const std::uint32_t f : spec_.fanout) HOURS_EXPECTS(f >= 1);
}

std::uint32_t SyntheticHierarchy::child_count(const NodePath& path) const {
  if (path.size() >= spec_.fanout.size()) return 0;  // leaf level
  if (const auto it = spec_.fanout_overrides.find(path); it != spec_.fanout_overrides.end()) {
    return it->second;
  }
  return spec_.fanout[path.size()];
}

overlay::Overlay& SyntheticHierarchy::overlay_of(const NodePath& path) {
  const std::uint32_t size = child_count(path);
  HOURS_EXPECTS(size > 0);

  if (const auto it = overlays_.find(path); it != overlays_.end()) return *it->second;

  overlay::OverlayParams params = params_;
  params.seed = overlay_seed(params_.seed, kGraphOverlaySalt, path);
  const auto storage = size > spec_.eager_table_limit ? overlay::TableStorage::kLazy
                                                      : overlay::TableStorage::kEager;

  // Children of child j of `path` form the next overlay; their count feeds
  // nephew sampling in this overlay's tables.
  NodePath base = path;
  auto child_count_fn = [this, base](ids::RingIndex j) -> std::uint32_t {
    NodePath child_path = base;
    child_path.push_back(j);
    return child_count(child_path);
  };

  auto created = std::make_unique<overlay::Overlay>(size, params, storage,
                                                    overlay::ChildCountFn{child_count_fn});
  auto& slot = overlays_[path];
  slot = std::move(created);
  return *slot;
}

}  // namespace hours::hierarchy
