// Checked reads of snapshot documents: the one place that decides how a
// snapshot field is checked and how a bad one is reported.
//
// A Reader is a view of one JSON value at a path such as
// `ring.nodes[3].cw_succ`. Each typed read checks presence, type, length
// and range. The first failure of a view, or of any view derived from it,
// is kept in the error string its root view was given ("ring.rng[0] is not
// a u64"); a failed read returns zero or an empty value, and later
// failures are dropped. A restore path therefore reads its section straight
// through and returns the error once: a hostile document gets one located
// error instead of an abort.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "snapshot/json.hpp"

namespace hours::snapshot {

class Reader {
 public:
  /// The root view of `value`, named `path`, keeping its first failure in
  /// `error`. Both must outlive every view derived from this one.
  Reader(const Json& value, std::string path, std::string& error)
      : Reader(&value, std::move(path), &error) {}

  /// True while the root keeps no failure.
  [[nodiscard]] bool ok() const noexcept { return error_->empty(); }
  /// Keeps "<path> <what>", as in "resolver.capacity must be >= 1".
  void fail(std::string_view what) const;
  /// Keeps "<path>: <reason>", as in "sim.events[3]: <reason>".
  void reject(std::string_view reason) const;

  /// Object field `key` ("<path>.<key> missing" when absent).
  [[nodiscard]] Reader field(std::string_view key) const;
  /// True when this is an object holding `key`: an optional field.
  [[nodiscard]] bool has(std::string_view key) const;
  /// Object field `name` of a document's sections, as a new root path.
  [[nodiscard]] Reader section(std::string_view name) const;
  /// An object's keys, ascending.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Array item `i` ("<path>[i] missing" past the end).
  [[nodiscard]] Reader at(std::size_t i) const;
  [[nodiscard]] std::size_t size() const;
  /// `n` when the array holds exactly `n` items, else 0.
  [[nodiscard]] std::size_t size(std::size_t n) const;

  /// A u64 no greater than `max`.
  [[nodiscard]] std::uint64_t u64(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] std::uint32_t u32(
      std::uint32_t max = std::numeric_limits<std::uint32_t>::max()) const {
    return static_cast<std::uint32_t>(u64(max));
  }
  /// A u64 that is 0 or 1.
  [[nodiscard]] bool flag() const { return u64(1) != 0; }
  [[nodiscard]] const std::string& str() const;
  /// A double stored as its IEEE-754 bit pattern (bits_from_double).
  [[nodiscard]] double bits() const { return double_from_bits(u64()); }
  /// An array of u64 words: of any length, or of exactly `n` (`n` zeros
  /// after a failure).
  [[nodiscard]] std::vector<std::uint64_t> words() const;
  [[nodiscard]] std::vector<std::uint64_t> words(std::size_t n) const;
  /// A 4-word generator state (rng::Xoshiro256::State).
  [[nodiscard]] std::array<std::uint64_t, 4> rng_state() const;

  /// True when the value equals `expected`, as a configuration echo must.
  [[nodiscard]] bool matches(const Json& expected) const;
  /// The value itself (an empty object after a failure).
  [[nodiscard]] const Json& json() const;

 private:
  Reader(const Json* value, std::string path, std::string* error)
      : value_(value), path_(std::move(path)), error_(error) {}

  void keep(std::string message) const;
  /// True when the value is of `kind`; else a failure ("<path> is not <kind>").
  [[nodiscard]] bool holds(bool (Json::*is)() const noexcept, std::string_view kind) const;
  /// A view of `found` at `path`, failing "<path> missing" when it is null.
  [[nodiscard]] Reader child(const Json* found, std::string path) const;

  const Json* value_;  ///< null after a failure on this view's path
  std::string path_;
  std::string* error_;
};

}  // namespace hours::snapshot
