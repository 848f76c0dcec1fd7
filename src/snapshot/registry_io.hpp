// Registry <-> snapshot JSON conversion.
//
// Counters serialize as exact u64s. Histograms serialize as their per-value
// bins plus the total count — the integer-exact representation — rather
// than any derived floating statistic: restoring replays the bins through
// Histogram::add(), which reconstructs the moment accumulators in a fixed
// (ascending-value) order. The derived mean can therefore differ from the
// original in its last bits, but every quantity a snapshot is compared on
// (bins, counts) is exact, and the serialized form itself is byte-stable.
#pragma once

#include <string>

#include "snapshot/json.hpp"
#include "snapshot/reader.hpp"
#include "trace/registry.hpp"

namespace hours::snapshot {

[[nodiscard]] Json registry_to_json(const trace::Registry& registry);

/// Resets `registry` and applies the saved values, keeping a failure in
/// `state`. Existing handles stay valid (names persist across
/// Registry::reset()).
void registry_from_json(trace::Registry& registry, const Reader& state);

}  // namespace hours::snapshot
