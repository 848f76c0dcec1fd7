// The snapshot form of a record list: [type, value, ttl] rows, shared by the
// system section's records and the resolver section's cache.
#pragma once

#include <vector>

#include "snapshot/json.hpp"
#include "snapshot/reader.hpp"
#include "store/record_store.hpp"

namespace hours {

[[nodiscard]] snapshot::Json records_json(const std::vector<store::Record>& records);

/// The records `rows` holds, keeping a failure in `rows`.
[[nodiscard]] std::vector<store::Record> read_records(const snapshot::Reader& rows);

}  // namespace hours
