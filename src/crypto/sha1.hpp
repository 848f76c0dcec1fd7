// SHA-1 implemented from scratch per RFC 3174 / FIPS 180-1.
//
// The paper derives each node's overlay identifier by hashing its name with a
// "publicly known hash function such as SHA-1" (Section 3.2). No external
// crypto library is assumed, so we carry our own implementation, verified
// against the RFC test vectors in tests/crypto_test.cpp.
//
// SHA-1 is used here purely as the paper's public name->ID map; it is not a
// security boundary of this codebase.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace hours::crypto {

/// A 20-byte SHA-1 digest.
using Sha1Digest = std::array<std::uint8_t, 20>;

/// Incremental SHA-1 hasher.
///
/// Usage:
///   Sha1 h;
///   h.update(data, size);
///   Sha1Digest d = h.finish();
///
/// `finish()` may be called exactly once; the object is then exhausted.
class Sha1 {
 public:
  Sha1() noexcept { reset(); }

  /// Re-initializes to the empty-message state.
  void reset() noexcept;

  /// Absorbs `size` bytes.
  void update(const void* data, std::size_t size) noexcept;
  void update(std::string_view text) noexcept { update(text.data(), text.size()); }

  /// Pads, finalizes and returns the digest.
  [[nodiscard]] Sha1Digest finish() noexcept;

 private:
  /// Absorbs one 64-byte block. Every admitted node's identifier is
  /// SHA-1(name) (Section 3.2), and a name is nearly always one block, so
  /// building a million-node hierarchy costs a million of these. The block
  /// is shaped for that: a 16-word rolling message schedule instead of 80
  /// words, the five working variables in locals whose roles rotate each
  /// round instead of being moved, and the 80 rounds unrolled at compile
  /// time, so the compiler keeps the working variables in registers. It is
  /// plain C++ (no intrinsics, no CPU dispatch), one path on every platform.
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 5> state_{};
  std::uint64_t total_bytes_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

/// One-shot convenience: SHA-1 of `text`.
[[nodiscard]] Sha1Digest sha1(std::string_view text) noexcept;

/// Digest as lowercase hex (for tests and diagnostics).
[[nodiscard]] std::string to_hex(const Sha1Digest& digest);

}  // namespace hours::crypto
