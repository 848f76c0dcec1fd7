// The data plane of the lookup service.
//
// An open service hierarchy exists to serve *answers* — DNS resource
// records, LDAP entries, PKI certificates. Each node holds the records for
// the portion of the name space it manages (Section 2's naming model); a
// query is useful only if it reaches the node holding the answer, which is
// precisely the accessibility property HOURS protects.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "naming/name.hpp"

namespace hours::store {

/// One record, shaped loosely after a DNS RR: a type tag, an opaque value
/// and a time-to-live governing client-side caching (Section 7).
struct Record {
  std::string type;   ///< e.g. "A", "CERT", "ENTRY"
  std::string value;
  std::uint64_t ttl = 3600;

  friend bool operator==(const Record&, const Record&) = default;
};

/// Records hashed by the owning name's presentation string (`to_string()`,
/// "." for the root), so a lookup hashes one string and compares one.
/// Name order exists only in the view a snapshot save builds.
class RecordStore {
 public:
  /// Adds a record under `name` (the owning node's name).
  void add(const naming::Name& name, Record record);

  /// Removes all records of `type` under `name`; returns how many.
  std::size_t remove(const naming::Name& name, const std::string& type);

  /// All records held at `name` (empty if none).
  [[nodiscard]] const std::vector<Record>& records_at(const naming::Name& name) const;

  /// The same, keyed by text `Name::parse` accepts: a name's presentation
  /// string, or "" for the root. Allocates nothing.
  [[nodiscard]] const std::vector<Record>& records_at(std::string_view name) const;

  /// Records of one type at `name`.
  [[nodiscard]] std::vector<Record> records_at(const naming::Name& name,
                                               const std::string& type) const;

  [[nodiscard]] std::size_t total_records() const noexcept { return total_; }

  /// Every (name, records) pair ordered by naming::Name (root-first labels,
  /// which is not the order of the presentation strings), built on each
  /// call for snapshot serialization.
  [[nodiscard]] std::vector<std::pair<naming::Name, const std::vector<Record>*>> in_name_order()
      const;

 private:
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const noexcept {
      return std::hash<std::string_view>{}(key);
    }
  };

  std::unordered_map<std::string, std::vector<Record>, KeyHash, std::equal_to<>> by_key_;
  std::size_t total_ = 0;
  static const std::vector<Record> kEmpty;
};

}  // namespace hours::store
