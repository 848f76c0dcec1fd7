#include "liveness/liveness.hpp"

#include <algorithm>

namespace hours::liveness {

std::vector<NodeId> LivenessView::active_in(NodeId observer, NodeId lo, NodeId hi,
                                            Ticks now) const {
  std::vector<NodeId> peers;
  const auto last = key(observer, hi);
  for (auto it = rows_.lower_bound(key(observer, lo)); it != rows_.end() && it->first <= last;
       ++it) {
    if (active(it->second, now)) {
      peers.push_back(static_cast<NodeId>(it->first & 0xFFFFFFFFULL));
    }
  }
  return peers;
}

Ticks LivenessView::active_set(NodeId observer, Ticks now, std::vector<NodeId>& out) const {
  out.clear();
  Ticks until = kNeverExpires;
  for_each_observer(observer, [&](NodeId peer, const Entry& entry) {
    if (!active(entry, now)) return;
    out.push_back(peer);
    until = std::min(until, entry.expiry);
  });
  return until;
}

std::vector<DigestEntry> LivenessView::build_digest(NodeId observer, Ticks now) const {
  std::vector<DigestEntry> digest;
  for_each_observer(observer, [&](NodeId peer, const Entry& entry) {
    if (!active(entry, now) || !within_horizon(entry.since, now)) return;
    digest.push_back(DigestEntry{peer, entry.since});
  });
  // Freshest evidence first; peer ascending breaks ties so the selection is
  // deterministic for a fixed map state.
  std::sort(digest.begin(), digest.end(), [](const DigestEntry& a, const DigestEntry& b) {
    if (a.since != b.since) return a.since > b.since;
    return a.peer < b.peer;
  });
  if (digest.size() > config_.digest_budget) digest.resize(config_.digest_budget);
  return digest;
}

std::size_t LivenessView::append_digest(NodeId observer, Ticks now,
                                        std::vector<std::uint64_t>& out) const {
  const auto digest = build_digest(observer, now);
  for (const auto& entry : digest) {
    out.push_back(entry.peer);
    out.push_back(entry.since);
  }
  return digest.size();
}

}  // namespace hours::liveness
