// Described events: the data form of every scheduled event and continuation.
//
// A described event is a (kind, args) pair from the closed registry in
// event_kinds.hpp and nothing else. The simulator runs it through the
// runner that claimed its kind's block — one dispatcher for the live path,
// the restored path and transport ack/timeout continuations — so restoring
// a snapshot cannot behave differently from never having stopped. There is
// no other event form: every subsystem that schedules work (protocols,
// fault injector, query client, attacker, ring scenario runner) owns a
// block.
//
// Kind 0 (kNoContinuation) is not an event: it marks an acked send that
// runs nothing on its ack or its timeout.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hours::snapshot {

struct Described {
  std::uint32_t kind = 0;
  std::vector<std::uint64_t> args;

  bool operator==(const Described& other) const = default;
};

/// A described event borrowed for one call: its kind and its argument words
/// in the caller's storage. Callees that keep it copy the words.
struct DescribedView {
  std::uint32_t kind = 0;
  std::span<const std::uint64_t> args;

  constexpr DescribedView() = default;
  constexpr DescribedView(std::uint32_t k, std::span<const std::uint64_t> a) noexcept
      : kind(k), args(a) {}
  // Implicit: an owned event lends itself for the call.
  DescribedView(const Described& event) noexcept  // NOLINT(google-explicit-constructor)
      : kind(event.kind), args(event.args) {}
};

}  // namespace hours::snapshot
