#include "crypto/sha1.hpp"

#include <cstring>
#include <utility>

#include "util/strings.hpp"

namespace hours::crypto {

namespace {

constexpr std::uint32_t rotl(std::uint32_t value, unsigned bits) noexcept {
  return (value << bits) | (value >> (32U - bits));
}

/// Round T of the 80. The caller rotates the working variables' roles
/// instead of moving their values: this round's `e` receives the new `a`,
/// and its `b` becomes the next round's `c`. From round 16 on, W[t]
/// overwrites W[t-16], which no later round reads. The boolean functions
/// are FIPS 180-1's Ch, Parity and Maj in forms with one operation fewer.
template <unsigned T>
inline void sha1_round(std::uint32_t a, std::uint32_t& b, std::uint32_t c, std::uint32_t d,
                       std::uint32_t& e, std::uint32_t (&w)[16]) noexcept {
  if constexpr (T >= 16) {
    w[T % 16] = rotl(w[(T + 13) % 16] ^ w[(T + 8) % 16] ^ w[(T + 2) % 16] ^ w[T % 16], 1);
  }
  if constexpr (T < 20) {
    e += (d ^ (b & (c ^ d))) + 0x5A827999U;
  } else if constexpr (T < 40) {
    e += (b ^ c ^ d) + 0x6ED9EBA1U;
  } else if constexpr (T < 60) {
    e += ((b & c) | (d & (b | c))) + 0x8F1BBCDCU;
  } else {
    e += (b ^ c ^ d) + 0xCA62C1D6U;
  }
  e += rotl(a, 5) + w[T % 16];
  b = rotl(b, 30);
}

/// Rounds T to T+4: after five rotations every variable holds its role again.
template <unsigned T>
inline void five_rounds(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c, std::uint32_t& d,
                        std::uint32_t& e, std::uint32_t (&w)[16]) noexcept {
  sha1_round<T>(a, b, c, d, e, w);
  sha1_round<T + 1>(e, a, b, c, d, w);
  sha1_round<T + 2>(d, e, a, b, c, w);
  sha1_round<T + 3>(c, d, e, a, b, w);
  sha1_round<T + 4>(b, c, d, e, a, w);
}

}  // namespace

void Sha1::reset() noexcept {
  state_ = {0x67452301U, 0xEFCDAB89U, 0x98BADCFEU, 0x10325476U, 0xC3D2E1F0U};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) noexcept {
  std::uint32_t w[16];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[t * 4]) << 24) |
           (static_cast<std::uint32_t>(block[t * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[t * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[t * 4 + 3]);
  }
  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  std::uint32_t e = state_[4];
  [&]<unsigned... Group>(std::integer_sequence<unsigned, Group...>) {
    (five_rounds<Group * 5>(a, b, c, d, e, w), ...);
  }(std::make_integer_sequence<unsigned, 16>{});
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += size;

  if (buffered_ != 0) {
    const std::size_t take = std::min(size, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    size -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }

  while (size >= 64) {
    process_block(bytes);
    bytes += 64;
    size -= 64;
  }

  if (size != 0) {
    std::memcpy(buffer_.data(), bytes, size);
    buffered_ = size;
  }
}

Sha1Digest Sha1::finish() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;

  // Pad in place: 0x80, zeros up to 56 bytes mod 64 (through a second
  // block when fewer than 8 bytes remain), then the 64-bit big-endian bit
  // length.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  process_block(buffer_.data());
  buffered_ = 0;

  Sha1Digest digest{};
  for (int i = 0; i < 5; ++i) {
    digest[static_cast<std::size_t>(i * 4)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 24);
    digest[static_cast<std::size_t>(i * 4 + 1)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 16);
    digest[static_cast<std::size_t>(i * 4 + 2)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)] >> 8);
    digest[static_cast<std::size_t>(i * 4 + 3)] = static_cast<std::uint8_t>(state_[static_cast<std::size_t>(i)]);
  }
  return digest;
}

Sha1Digest sha1(std::string_view text) noexcept {
  Sha1 hasher;
  hasher.update(text);
  return hasher.finish();
}

std::string to_hex(const Sha1Digest& digest) {
  return util::hex_encode(digest.data(), digest.size());
}

}  // namespace hours::crypto
