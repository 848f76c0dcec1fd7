// Closed registry of described-event kinds (see described.hpp).
//
// Kinds are grouped by owning subsystem in 0x100 blocks. The owner claims
// its block's runner on the simulator at construction
// (Simulator::set_runner(kind, runner)) and reports it through
// Participant::owns(). The numeric values are part of the snapshot wire
// format — never renumber an existing kind, add new ones at the end of
// the owning block and bump kSnapshotVersion (snapshot.hpp) when semantics
// change. The arg vector layout for every kind is specified in
// docs/PROTOCOL.md's snapshot appendix.
#pragma once

#include <cstdint>
#include <string_view>

namespace hours::snapshot {

inline constexpr std::uint32_t kOpaque = 0;  ///< closure event, unserializable

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
inline constexpr std::uint32_t kRingQueryStart = 0x20A;       ///< [from, msg...]
inline constexpr std::uint32_t kRingQueryHopTimeout = 0x20B;  ///< [at, tried, msg..., remaining...]

// -- hierarchy protocol (sim/hierarchy_protocol.cpp) ----------------------------------
inline constexpr std::uint32_t kHierQueryStart = 0x300;      ///< [start, msg...]
inline constexpr std::uint32_t kHierAttemptTimeout = 0x301;  ///< [at, tried, msg..., remaining...]

// -- fault injector (sim/fault_injector.cpp) ------------------------------------------
inline constexpr std::uint32_t kFaultAction = 0x400;  ///< [index into build_schedule()]

/// The 0x100 block `kind` belongs to; each block has one owning subsystem.
[[nodiscard]] constexpr std::uint32_t kind_block(std::uint32_t kind) noexcept {
  return kind >> 8;
}

/// Stable lowercase name for diagnostics and snapshot validation; empty
/// view when `kind` is not in the registry (kOpaque included: an opaque
/// event has no wire form, so its appearance in a snapshot is invalid).
[[nodiscard]] constexpr std::string_view event_kind_name(std::uint32_t kind) noexcept {
  switch (kind) {
    case kTransportDelivery: return "transport_delivery";
    case kTransportAckTimeout: return "transport_ack_timeout";
    case kRingProbeTimer: return "ring_probe_timer";
    case kRingCwProbeAck: return "ring_cw_probe_ack";
    case kRingCwProbeTimeout: return "ring_cw_probe_timeout";
    case kRingCcwProbeAck: return "ring_ccw_probe_ack";
    case kRingCcwProbeTimeout: return "ring_ccw_probe_timeout";
    case kRingRecoveredAck: return "ring_recovered_ack";
    case kRingAdvanceAck: return "ring_advance_ack";
    case kRingAdvanceTimeout: return "ring_advance_timeout";
    case kRingCcwSilenceCheck: return "ring_ccw_silence_check";
    case kRingRepairTimeout: return "ring_repair_timeout";
    case kRingQueryStart: return "ring_query_start";
    case kRingQueryHopTimeout: return "ring_query_hop_timeout";
    case kHierQueryStart: return "hier_query_start";
    case kHierAttemptTimeout: return "hier_attempt_timeout";
    case kFaultAction: return "fault_action";
    default: return {};
  }
}

}  // namespace hours::snapshot
