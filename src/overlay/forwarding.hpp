// Algorithm 3's next-hop order at one overlay member (Sections 3.3, 4.2):
// the one forwarding kernel that the graph engine (Overlay::forward) and
// both event engines (HierarchySimulation, RingSimulation) consume. At a
// member holding a query toward the overlay-destination (OD), it offers:
//
//   1. the OD, when the member's table holds it, then that entry's nephew
//      pointers (lines 1-7);
//   2. forward mode only: greedy clockwise, the entries strictly before the
//      OD, closest to the OD first (lines 10-13); overshooting can never be
//      closer on the clockwise metric;
//   3. if forward mode kept nothing, the query flips to backward mode
//      (line 14); then, in the enhanced design only, up to `reach`
//      counter-clockwise siblings (lines 17-19).
//
// The consumer answers each offer: skip it (dead or suspected), keep it
// (the event engines' try-lists hold every unsuspected offer) or stop (the
// graph engine takes the first live one). Liveness stays with the consumer.
// No offer repeats: greedy entries lie strictly before the OD, nephews live
// in the child overlay, and the backward walk skips an OD rule 1 offered.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "ids/ring.hpp"
#include "overlay/params.hpp"
#include "overlay/routing_table.hpp"

namespace hours::overlay {

/// Which rule produced an offer. Nephew indices are in the OD's child
/// overlay; all others are sibling indices.
enum class Offer : std::uint8_t { kOd, kNephew, kGreedy, kBackward };

/// The consumer's answer to one offer.
enum class Verdict : std::uint8_t { kSkip, kKeep, kStop };

struct Decision {
  const RoutingTable& table;  ///< the deciding member's table
  ids::RingIndex od = 0;
  Design design = Design::kEnhanced;
  bool nephews = true;  ///< rule 1 offers the OD entry's nephews
  /// When set, nephews come closest first by clockwise distance to this
  /// index in a child overlay of `child_ring` members ("the nephew that is
  /// closest, in the ID space, to the next level OD-node", Section 3.3);
  /// otherwise in table order.
  std::optional<ids::RingIndex> next_od = std::nullopt;
  std::uint32_t child_ring = 0;
  /// Rule 3 offers `reach` siblings counter-clockwise from `backward_from`.
  ids::RingIndex backward_from = 0;
  std::uint32_t reach = 1;
};

/// Rule 2's walk: the entries of `table` strictly closer than `distance`
/// clockwise of its owner, farthest first, until `offer(sibling)` returns
/// true (then returns true).
template <typename Fn>
bool greedy_walk(const RoutingTable& table, std::uint32_t distance, Fn&& offer) {
  const auto& entries = table.entries();
  // Unsigned wrap below position 0 ends the walk.
  for (std::size_t pos = table.last_before_distance(distance); pos < entries.size(); --pos) {
    if (offer(entries[pos].sibling)) return true;
  }
  return false;
}

/// Calls `consume(Offer, index) -> Verdict` for each candidate in order
/// until one returns kStop, and flips `backward`, the query's mode bit, when
/// forward mode kept nothing.
template <typename Consume>
void offer_candidates(const Decision& d, bool& backward, Consume&& consume) {
  bool kept = false;
  const auto give = [&](Offer kind, ids::RingIndex index) {
    const Verdict verdict = consume(kind, index);
    kept = kept || verdict != Verdict::kSkip;
    return verdict == Verdict::kStop;
  };

  const TableEntry* const entry = d.table.find(d.od);
  if (entry != nullptr) {
    if (give(Offer::kOd, d.od)) return;
    if (d.nephews) {
      std::vector<ids::RingIndex> nephews = entry->nephews;
      if (d.next_od.has_value()) {
        // Child indices follow identifier order, so clockwise index
        // distance is ID-space closeness. Nephews are distinct: no ties.
        std::sort(nephews.begin(), nephews.end(), [&d](ids::RingIndex a, ids::RingIndex b) {
          return ids::clockwise_distance(a, *d.next_od, d.child_ring) <
                 ids::clockwise_distance(b, *d.next_od, d.child_ring);
        });
      }
      for (const ids::RingIndex nephew : nephews) {
        if (give(Offer::kNephew, nephew)) return;
      }
    }
  }

  if (!backward) {
    const std::uint32_t d_od =
        ids::clockwise_distance(d.table.owner(), d.od, d.table.ring_size());
    if (greedy_walk(d.table, d_od, [&give](ids::RingIndex s) { return give(Offer::kGreedy, s); })) {
      return;
    }
    if (kept) return;
    backward = true;
  }

  if (d.design != Design::kEnhanced) return;  // the base design has no backward pointers
  ids::RingIndex index = d.backward_from;
  for (std::uint32_t step = 0; step < d.reach; ++step) {
    if ((entry == nullptr || index != d.od) && give(Offer::kBackward, index)) return;
    index = ids::counter_clockwise_step(index, 1, d.table.ring_size());
  }
}

}  // namespace hours::overlay
