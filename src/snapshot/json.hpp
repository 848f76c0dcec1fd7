// Minimal deterministic JSON value for snapshot files.
//
// Snapshots need a self-describing, versionable, diff-friendly format; they
// do not need the full JSON data model. This value type supports exactly
// four shapes — unsigned 64-bit integers, strings, arrays, and objects with
// sorted keys — and its writer is byte-deterministic: the same value always
// serializes to the same text, so snapshot equality can be checked with
// string comparison (the equivalence oracle depends on this).
//
// Floating-point state is stored as IEEE-754 bit patterns in u64 fields
// (see bits_from_double below): printing and re-parsing decimal doubles is
// a classic source of silent round-trip drift, and a snapshot must restore
// *exactly* the bits the run was using.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace hours::snapshot {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json, std::less<>>;

  Json() : value_(std::uint64_t{0}) {}
  Json(std::uint64_t v) : value_(v) {}  // NOLINT(google-explicit-constructor)
  Json(std::string s) : value_(std::move(s)) {}  // NOLINT
  Json(std::string_view s) : value_(std::string(s)) {}  // NOLINT
  Json(const char* s) : value_(std::string(s)) {}  // NOLINT
  Json(Array a) : value_(std::move(a)) {}  // NOLINT
  Json(Object o) : value_(std::move(o)) {}  // NOLINT

  // The moves are defined out of line: inlined into every caller, the
  // variant's implicit move makes g++ 12's optimizer report libstdc++
  // internals as maybe-uninitialized.
  Json(const Json&) = default;
  Json& operator=(const Json&) = default;
  Json(Json&& other) noexcept;
  Json& operator=(Json&& other) noexcept;
  ~Json() = default;

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] bool is_u64() const noexcept {
    return std::holds_alternative<std::uint64_t>(value_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const noexcept { return std::holds_alternative<Array>(value_); }
  [[nodiscard]] bool is_object() const noexcept { return std::holds_alternative<Object>(value_); }

  // Accessors assert the active alternative (programming error otherwise).
  [[nodiscard]] std::uint64_t as_u64() const { return std::get<std::uint64_t>(value_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const Array& items() const { return std::get<Array>(value_); }
  [[nodiscard]] Array& items() { return std::get<Array>(value_); }
  [[nodiscard]] const Object& fields() const { return std::get<Object>(value_); }
  [[nodiscard]] Object& fields() { return std::get<Object>(value_); }

  /// Object field lookup; null when absent or when this is not an object.
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Object field insertion/access (creates the field, default 0).
  Json& operator[](std::string_view key);

  /// Array append.
  void push(Json v) { std::get<Array>(value_).push_back(std::move(v)); }

  bool operator==(const Json& other) const = default;

  /// Deterministic pretty-printed serialization (2-space indent, sorted
  /// object keys, '\n'-terminated).
  [[nodiscard]] std::string dump() const;

 private:
  void write(std::string& out, int indent) const;

  std::variant<std::uint64_t, std::string, Array, Object> value_;
};

/// Parses text produced by Json::dump() (and any JSON restricted to the
/// same subset: non-negative integers, strings, arrays, objects). Returns
/// true on success; on failure fills `error` (when non-null) with a
/// position-annotated reason.
[[nodiscard]] bool parse_json(std::string_view text, Json& out, std::string* error = nullptr);

/// Exact double <-> u64 bridges for storing floating-point state.
[[nodiscard]] inline std::uint64_t bits_from_double(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}
[[nodiscard]] inline double double_from_bits(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

}  // namespace hours::snapshot
