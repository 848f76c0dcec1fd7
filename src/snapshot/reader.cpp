#include "snapshot/reader.hpp"

namespace hours::snapshot {

void Reader::keep(std::string message) const {
  if (error_->empty()) *error_ = std::move(message);
}

void Reader::fail(std::string_view what) const { keep(path_ + " " + std::string(what)); }

void Reader::reject(std::string_view reason) const { keep(path_ + ": " + std::string(reason)); }

bool Reader::holds(bool (Json::*is)() const noexcept, std::string_view kind) const {
  if (value_ == nullptr) return false;
  if (!(value_->*is)()) fail("is not " + std::string(kind));
  return (value_->*is)();
}

Reader Reader::child(const Json* found, std::string path) const {
  Reader out{found, std::move(path), error_};
  if (found == nullptr && value_ != nullptr) out.fail("missing");
  return out;
}

Reader Reader::field(std::string_view key) const {
  return child(holds(&Json::is_object, "an object") ? value_->find(key) : nullptr,
               path_ + "." + std::string(key));
}

bool Reader::has(std::string_view key) const {
  return value_ != nullptr && value_->is_object() && value_->find(key) != nullptr;
}

Reader Reader::section(std::string_view name) const {
  const Json* found = holds(&Json::is_object, "an object") ? value_->find(name) : nullptr;
  if (found == nullptr) keep("snapshot has no section \"" + std::string(name) + "\"");
  return Reader{found, std::string(name), error_};
}

std::vector<std::string> Reader::keys() const {
  std::vector<std::string> out;
  if (!holds(&Json::is_object, "an object")) return out;
  for (const auto& [key, value] : value_->fields()) out.push_back(key);
  return out;
}

Reader Reader::at(std::size_t i) const {
  return child(i < size() ? &value_->items()[i] : nullptr, path_ + "[" + std::to_string(i) + "]");
}

std::size_t Reader::size() const {
  return holds(&Json::is_array, "an array") ? value_->items().size() : 0;
}

std::size_t Reader::size(std::size_t n) const {
  const std::size_t count = size();
  if (count == n) return n;
  if (value_ != nullptr) fail("has " + std::to_string(count) + " items, want " + std::to_string(n));
  return 0;
}

std::uint64_t Reader::u64(std::uint64_t max) const {
  if (!holds(&Json::is_u64, "a u64")) return 0;
  if (value_->as_u64() <= max) return value_->as_u64();
  fail("is " + std::to_string(value_->as_u64()) + ", outside [0, " + std::to_string(max) + "]");
  return 0;
}

const std::string& Reader::str() const {
  static const std::string kEmpty;
  return holds(&Json::is_string, "a string") ? value_->as_string() : kEmpty;
}

std::vector<std::uint64_t> Reader::words() const {
  std::vector<std::uint64_t> out(size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!value_->items()[i].is_u64()) {
      at(i).fail("is not a u64");
      return {};
    }
    out[i] = value_->items()[i].as_u64();
  }
  return out;
}

std::vector<std::uint64_t> Reader::words(std::size_t n) const {
  std::vector<std::uint64_t> out = size(n) == n ? words() : std::vector<std::uint64_t>{};
  out.resize(n);
  return out;
}

std::array<std::uint64_t, 4> Reader::rng_state() const {
  const std::vector<std::uint64_t> w = words(4);
  return {w[0], w[1], w[2], w[3]};
}

bool Reader::matches(const Json& expected) const {
  return value_ != nullptr && *value_ == expected;
}

const Json& Reader::json() const {
  static const Json kNothing = Json::object();
  return value_ != nullptr ? *value_ : kNothing;
}

}  // namespace hours::snapshot
