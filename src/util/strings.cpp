#include "util/strings.hpp"

#include <algorithm>
#include <cctype>

namespace hours::util {

std::vector<std::string> split(std::string_view input, char sep) {
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(std::count(input.begin(), input.end(), sep)) + 1);
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = input.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      return out;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.push_back(sep);
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view input) {
  std::string out{input};
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string hex_encode(const unsigned char* data, std::size_t size) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(size * 2);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xF]);
  }
  return out;
}

}  // namespace hours::util
