#include "naming/name.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/strings.hpp"

namespace hours::naming {

util::Result<Name> Name::parse(std::string_view text) {
  if (text.empty() || text == ".") return Name{};
  auto parts = util::split(text, '.');
  for (const auto& part : parts) {
    if (part.empty()) {
      return util::Error{util::Error::Code::kInvalidArgument,
                         "empty label in name: '" + std::string{text} + "'"};
    }
  }
  std::reverse(parts.begin(), parts.end());  // presentation order is leaf-first
  return Name{std::move(parts)};
}

Name Name::from_labels(std::vector<std::string> root_first_labels) {
  return Name{std::move(root_first_labels)};
}

const std::string& Name::label(std::size_t level) const {
  HOURS_EXPECTS(level >= 1 && level <= labels_.size());
  return labels_[level - 1];
}

Name Name::parent() const {
  HOURS_EXPECTS(!is_root());
  std::vector<std::string> up{labels_.begin(), labels_.end() - 1};
  return Name{std::move(up)};
}

Name Name::ancestor_at(std::size_t level) const {
  HOURS_EXPECTS(level <= depth());
  std::vector<std::string> up{labels_.begin(), labels_.begin() + static_cast<std::ptrdiff_t>(level)};
  return Name{std::move(up)};
}

Name Name::child(std::string_view label) const {
  HOURS_EXPECTS(!label.empty());
  std::vector<std::string> down = labels_;
  down.emplace_back(label);
  return Name{std::move(down)};
}

bool Name::is_prefix_of(const Name& other) const noexcept {
  if (depth() > other.depth()) return false;
  return std::equal(labels_.begin(), labels_.end(), other.labels_.begin());
}

std::string Name::to_string() const {
  if (is_root()) return ".";
  std::size_t size = labels_.size() - 1;  // the dots
  for (const auto& part : labels_) size += part.size();
  std::string out;
  out.reserve(size);
  for (auto it = labels_.rbegin(); it != labels_.rend(); ++it) {
    if (it != labels_.rbegin()) out.push_back('.');
    out += *it;
  }
  return out;
}

}  // namespace hours::naming
