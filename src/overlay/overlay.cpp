#include "overlay/overlay.hpp"

#include <algorithm>

#include "overlay/forwarding.hpp"
#include "rng/splitmix64.hpp"
#include "util/contracts.hpp"

namespace hours::overlay {

Overlay::Overlay(std::uint32_t size, OverlayParams params, TableStorage storage,
                 ChildCountFn child_count)
    : size_(size),
      params_(params),
      storage_(storage),
      child_count_(std::move(child_count)),
      alive_(size, 1),
      alive_count_(size),
      scratch_table_(0, size == 0 ? 1 : size),
      misroute_rng_(rng::mix64(params.seed, 0xBADC0FFEEULL)) {
  HOURS_EXPECTS(size >= 1);
  params_.validate();
  if (storage_ == TableStorage::kEager) {
    tables_.reserve(size_);
    for (ids::RingIndex i = 0; i < size_; ++i) {
      tables_.push_back(build_routing_table(size_, i, params_, child_count_));
    }
  }
}

void Overlay::kill(ids::RingIndex i) {
  HOURS_EXPECTS(i < size_);
  if (alive_[i] != 0) {
    alive_[i] = 0;
    --alive_count_;
  }
}

void Overlay::revive(ids::RingIndex i) {
  HOURS_EXPECTS(i < size_);
  if (alive_[i] == 0) {
    alive_[i] = 1;
    ++alive_count_;
  }
}

void Overlay::revive_all() {
  std::fill(alive_.begin(), alive_.end(), static_cast<std::uint8_t>(1));
  alive_count_ = size_;
}

void Overlay::set_behavior(ids::RingIndex i, NodeBehavior behavior) {
  HOURS_EXPECTS(i < size_);
  if (behaviors_.empty()) behaviors_.assign(size_, NodeBehavior::kHonest);
  behaviors_[i] = behavior;
}

void Overlay::reseed(std::uint64_t new_seed) {
  params_.seed = new_seed;
  if (storage_ == TableStorage::kEager) {
    tables_.clear();
    tables_.reserve(size_);
    for (ids::RingIndex i = 0; i < size_; ++i) {
      tables_.push_back(build_routing_table(size_, i, params_, child_count_));
    }
  }
  // Lazy storage regenerates from params_.seed on every access.
}

const RoutingTable& Overlay::table(ids::RingIndex i) const {
  HOURS_EXPECTS(i < size_);
  if (storage_ == TableStorage::kEager) return tables_[i];
  scratch_table_ = build_routing_table(size_, i, params_, child_count_);
  return scratch_table_;
}

std::optional<ids::RingIndex> Overlay::nearest_alive_ccw(ids::RingIndex i) const {
  HOURS_EXPECTS(i < size_);
  for (std::uint32_t step = 1; step < size_; ++step) {
    const ids::RingIndex candidate = ids::counter_clockwise_step(i, step, size_);
    if (alive(candidate)) return candidate;
  }
  return std::nullopt;
}

std::optional<ids::RingIndex> Overlay::nearest_alive_cw(ids::RingIndex i) const {
  HOURS_EXPECTS(i < size_);
  for (std::uint32_t step = 1; step < size_; ++step) {
    const ids::RingIndex candidate = ids::clockwise_step(i, step, size_);
    if (alive(candidate)) return candidate;
  }
  return std::nullopt;
}

Overlay::Step Overlay::decide(ids::RingIndex node, ids::RingIndex od, bool& backward,
                              const ForwardOptions& opts) const {
  Step step;
  const RoutingTable& t = table(node);

  // Compromised misrouter: ignores the algorithm, picks a random alive entry
  // (Section 5.3 — mis-routing insider).
  if (behavior(node) == NodeBehavior::kMisrouter) {
    std::vector<ids::RingIndex> alive_entries;
    for (const auto& e : t.entries()) {
      if (alive(e.sibling)) alive_entries.push_back(e.sibling);
    }
    if (alive_entries.empty()) return step;  // stuck
    step.kind = Step::Kind::kHop;
    step.target = alive_entries[misroute_rng_.below(alive_entries.size())];
    return step;
  }

  const bool order_nephews = opts.child_alive != nullptr && !opts.child_alive->empty();
  const Decision decision{
      .table = t,
      .od = od,
      .design = params_.design,
      .next_od = order_nephews ? opts.next_od : std::nullopt,
      .child_ring = order_nephews ? static_cast<std::uint32_t>(opts.child_alive->size()) : 0,
      .backward_from = ids::counter_clockwise_step(node, 1, size_),
      // Without repair only the stored counter-clockwise pointer is known,
      // and a dead neighbor there dead-ends the query.
      .reach = ring_repaired_ ? size_ - 1 : 1,
  };
  offer_candidates(decision, backward, [&](Offer kind, ids::RingIndex index) {
    const bool live = kind == Offer::kNephew
                          ? opts.child_alive == nullptr || index >= opts.child_alive->size() ||
                                (*opts.child_alive)[index] != 0
                          : alive(index);
    if (!live) return Verdict::kSkip;
    step.kind = kind == Offer::kNephew ? Step::Kind::kNephewExit : Step::Kind::kHop;
    step.target = index;
    step.backward_move = kind == Offer::kBackward;
    return Verdict::kStop;
  });
  return step;
}

ForwardResult Overlay::forward(ids::RingIndex entrance, ids::RingIndex od,
                               const ForwardOptions& opts) const {
  HOURS_EXPECTS(entrance < size_ && od < size_);
  HOURS_EXPECTS(alive(entrance));

  ForwardResult result;
  const std::uint32_t max_hops =
      opts.max_hops != 0 ? opts.max_hops : 4 * size_ + 64;

  ids::RingIndex node = entrance;
  bool backward = false;
  if (opts.record_path) result.path.push_back(node);

  if (behavior(node) == NodeBehavior::kDropper) {
    result.kind = ExitKind::kDropped;
    result.last_node = node;
    return result;
  }

  while (true) {
    if (node == od) {
      result.kind = ExitKind::kArrivedAtOd;
      result.last_node = node;
      return result;
    }

    const Step step = decide(node, od, backward, opts);

    switch (step.kind) {
      case Step::Kind::kStuck:
        result.kind = ExitKind::kUnreachable;
        result.last_node = node;
        return result;
      case Step::Kind::kNephewExit:
        result.kind = ExitKind::kNephewExit;
        result.last_node = node;
        result.nephew = step.target;
        return result;
      case Step::Kind::kHop:
        if (result.hops >= max_hops) {
          result.kind = ExitKind::kUnreachable;
          result.last_node = node;
          return result;
        }
        node = step.target;
        result.hops += 1;
        if (step.backward_move) result.backward_steps += 1;
        if (opts.record_path) result.path.push_back(node);
        if (behavior(node) == NodeBehavior::kDropper) {
          result.kind = ExitKind::kDropped;
          result.last_node = node;
          return result;
        }
        break;
    }
  }
}

}  // namespace hours::overlay
