// Closed registry of described-event kinds (see described.hpp).
//
// Kinds are grouped by owning subsystem in 0x100 blocks. The owner claims
// its block's runner on the simulator at construction
// (Simulator::set_runner(kind, runner)); a snapshot participant reports
// the blocks it owns through Participant::owns(). The numeric values are
// part of the snapshot wire format — never renumber an existing kind, add
// new ones at the end of the owning block and bump kSnapshotVersion
// (snapshot.hpp) when semantics change.
//
// Each kind's row in kKindSpecs gives its name and its fixed argument
// prefix: the words every event of the kind carries, which its runner reads
// without checking. An event with fewer words is malformed, and so is one
// with more when the kind has no variable tail; snapshot validation and a
// transport's restore refuse both (check_event_args, snapshot.hpp). Lengths
// inside the words (a message's path length, a digest frame) are the
// decoder's to check. docs/PROTOCOL.md's snapshot appendix gives every
// layout.
#pragma once

#include <cstdint>
#include <string_view>

namespace hours::snapshot {

/// Kind 0 means "no continuation": an acked send with nothing to run on its
/// ack or its timeout. It is never the kind of a queued event.
inline constexpr std::uint32_t kNoContinuation = 0;

// -- transport (sim/transport.hpp) ----------------------------------------------------
inline constexpr std::uint32_t kTransportDelivery = 0x100;    ///< [to, from, token, inc, is_ack, payload...]
inline constexpr std::uint32_t kTransportAckTimeout = 0x101;  ///< [token]

// -- ring protocol (sim/ring_protocol.cpp) --------------------------------------------
inline constexpr std::uint32_t kRingProbeTimer = 0x200;       ///< [i]
inline constexpr std::uint32_t kRingCwProbeAck = 0x201;       ///< [i]
inline constexpr std::uint32_t kRingCwProbeTimeout = 0x202;   ///< [i, succ]
inline constexpr std::uint32_t kRingCcwProbeAck = 0x203;      ///< [i]
inline constexpr std::uint32_t kRingCcwProbeTimeout = 0x204;  ///< [i, ccw]
inline constexpr std::uint32_t kRingRecoveredAck = 0x205;     ///< [i, peer]
inline constexpr std::uint32_t kRingAdvanceAck = 0x206;       ///< [i, candidate]
inline constexpr std::uint32_t kRingAdvanceTimeout = 0x207;   ///< [i, candidate, remaining...]
inline constexpr std::uint32_t kRingCcwSilenceCheck = 0x208;  ///< [i]
inline constexpr std::uint32_t kRingRepairTimeout = 0x209;    ///< [at, origin, rid, tried, remaining...]
inline constexpr std::uint32_t kRingQueryStart = 0x20A;       ///< [from, msg(6)]
inline constexpr std::uint32_t kRingQueryHopTimeout = 0x20B;  ///< [at, tried, msg(6), remaining...]

// -- hierarchy protocol (sim/hierarchy_protocol.cpp) ----------------------------------
inline constexpr std::uint32_t kHierQueryStart = 0x300;      ///< [start, msg...]
inline constexpr std::uint32_t kHierAttemptTimeout = 0x301;  ///< [at, tried, msg..., remaining...]

// -- fault injector (sim/fault_injector.cpp) ------------------------------------------
inline constexpr std::uint32_t kFaultAction = 0x400;  ///< [index into build_schedule()]

// -- query client (sim/query_client.cpp) ----------------------------------------------
inline constexpr std::uint32_t kClientAdvance = 0x500;      ///< [qid]
inline constexpr std::uint32_t kClientDeadline = 0x501;     ///< [qid]
inline constexpr std::uint32_t kClientRetransmit = 0x502;   ///< [qid]
inline constexpr std::uint32_t kClientHopAck = 0x503;       ///< [qid]
inline constexpr std::uint32_t kClientHopTimeout = 0x504;   ///< [qid]

// -- adaptive attacker (sim/adaptive_attacker.cpp) ------------------------------------
inline constexpr std::uint32_t kAttackerStrike = 0x600;  ///< [target...]
inline constexpr std::uint32_t kAttackerRevive = 0x601;  ///< [downed...]

// -- ring scenario runner (scenario/runner.cpp, run_ring) -----------------------------
inline constexpr std::uint32_t kScenarioSample = 0x700;  ///< []
inline constexpr std::uint32_t kScenarioSubmit = 0x701;  ///< []

/// One registered kind: its diagnostic name and argument layout.
struct KindSpec {
  std::uint32_t kind = 0;
  std::string_view name;
  std::uint32_t args = 0;  ///< the fixed argument prefix, in words
  bool tail = false;       ///< whether more words may follow the prefix
};

inline constexpr KindSpec kKindSpecs[] = {
    {kTransportDelivery, "transport_delivery", 5, true},
    {kTransportAckTimeout, "transport_ack_timeout", 1, false},
    {kRingProbeTimer, "ring_probe_timer", 1, false},
    {kRingCwProbeAck, "ring_cw_probe_ack", 1, false},
    {kRingCwProbeTimeout, "ring_cw_probe_timeout", 2, false},
    {kRingCcwProbeAck, "ring_ccw_probe_ack", 1, false},
    {kRingCcwProbeTimeout, "ring_ccw_probe_timeout", 2, false},
    {kRingRecoveredAck, "ring_recovered_ack", 2, false},
    {kRingAdvanceAck, "ring_advance_ack", 2, false},
    {kRingAdvanceTimeout, "ring_advance_timeout", 2, true},
    {kRingCcwSilenceCheck, "ring_ccw_silence_check", 1, false},
    {kRingRepairTimeout, "ring_repair_timeout", 4, true},
    {kRingQueryStart, "ring_query_start", 7, false},
    {kRingQueryHopTimeout, "ring_query_hop_timeout", 8, true},
    {kHierQueryStart, "hier_query_start", 5, true},
    {kHierAttemptTimeout, "hier_attempt_timeout", 6, true},
    {kFaultAction, "fault_action", 1, false},
    {kClientAdvance, "client_advance", 1, false},
    {kClientDeadline, "client_deadline", 1, false},
    {kClientRetransmit, "client_retransmit", 1, false},
    {kClientHopAck, "client_hop_ack", 1, false},
    {kClientHopTimeout, "client_hop_timeout", 1, false},
    {kAttackerStrike, "attacker_strike", 1, true},
    {kAttackerRevive, "attacker_revive", 0, true},
    {kScenarioSample, "scenario_sample", 0, false},
    {kScenarioSubmit, "scenario_submit", 0, false},
};

/// The 0x100 block `kind` belongs to; each block has one owning subsystem.
[[nodiscard]] constexpr std::uint32_t kind_block(std::uint32_t kind) noexcept {
  return kind >> 8;
}

/// The registry row of `kind`, or null when `kind` is not registered
/// (kNoContinuation included: it names no event).
[[nodiscard]] constexpr const KindSpec* kind_spec(std::uint32_t kind) noexcept {
  for (const KindSpec& spec : kKindSpecs) {
    if (spec.kind == kind) return &spec;
  }
  return nullptr;
}

/// Stable lowercase name for diagnostics and snapshot validation; empty
/// view when `kind` is not in the registry.
[[nodiscard]] constexpr std::string_view event_kind_name(std::uint32_t kind) noexcept {
  const KindSpec* spec = kind_spec(kind);
  return spec != nullptr ? spec->name : std::string_view{};
}

}  // namespace hours::snapshot
