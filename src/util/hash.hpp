// FNV-1a, the library's one non-cryptographic string hash. It is stable
// across platforms and builds, so whatever it keys stays reproducible:
// ConcurrentResolver's shard and bucket choice, NamedHierarchy's child-label
// index, and the byte fingerprints tests pin documents with.
#pragma once

#include <cstdint>
#include <string_view>

namespace hours::util {

[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace hours::util
