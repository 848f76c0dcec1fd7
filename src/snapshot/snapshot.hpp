// Snapshot document shell: versioning, structural validation, file IO.
//
// A snapshot is one JSON document:
//
//   {
//     "magic": "hours-snapshot",
//     "version": 1,
//     "sections": {
//       "sim":   { "now": T, "next_id": N, "events": [[at, id, kind, args...], ...] },
//       "ring":  { ... },       // one object per registered Participant
//       "faults": { ... },
//       ...
//     }
//   }
//
// Version policy: `version` is bumped whenever an existing field changes
// meaning or layout (adding a new optional field or a new event kind at the
// end of a range does not bump it). Readers reject any version greater
// than their own — snapshots are forward-compatible to read, never to
// write. See docs/PROTOCOL.md appendix C for the full field catalogue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "snapshot/json.hpp"

namespace hours::snapshot {

inline constexpr std::string_view kSnapshotMagic = "hours-snapshot";
inline constexpr std::uint64_t kSnapshotVersion = 1;

/// Fresh document with magic/version set and an empty sections object.
[[nodiscard]] Json make_document();

/// Structural validation: magic, supported version, sections an object of
/// objects, and — when a "sim" section is present — a well-formed event
/// list (u64 triples-plus-args, registered kinds with their argument
/// prefixes, ids below next_id). Returns "" when valid, else the first
/// problem found.
[[nodiscard]] std::string validate_document(const Json& doc);

/// "name (kind)" for a registered kind, "unregistered kind N" otherwise.
[[nodiscard]] std::string kind_label(std::uint32_t kind);

/// "" when `count` argument words fit `kind`'s layout in the registry
/// (event_kinds.hpp): at least its fixed prefix, and no more unless the
/// kind has a tail. Kinds outside the registry are not checked here.
[[nodiscard]] std::string check_event_args(std::uint32_t kind, std::size_t count);

/// Writes `doc` to `path` (atomic enough for our purposes: whole-file
/// write). Returns "" on success.
[[nodiscard]] std::string write_file(const std::string& path, const Json& doc);

/// Reads and parses a snapshot file; does not validate beyond JSON syntax.
[[nodiscard]] std::string read_file(const std::string& path, Json& out);

}  // namespace hours::snapshot
