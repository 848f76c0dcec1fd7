// SHA-1 correctness against the RFC 3174 / FIPS 180-1 test vectors, plus
// incremental-update equivalence and boundary-size messages.
#include "crypto/sha1.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/hash.hpp"

namespace hours::crypto {
namespace {

TEST(Sha1, Rfc3174Vector1) {
  EXPECT_EQ(to_hex(sha1("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, Rfc3174Vector2) {
  EXPECT_EQ(to_hex(sha1("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, Rfc3174Vector3MillionA) {
  Sha1 hasher;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) hasher.update(chunk);
  EXPECT_EQ(to_hex(hasher.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, Rfc3174Vector4Repeated) {
  // "0123456701234567..." repeated 10 times (RFC 3174 test 4).
  Sha1 hasher;
  for (int i = 0; i < 10; ++i) hasher.update("0123456701234567012345670123456701234567012345670123456701234567");
  EXPECT_EQ(to_hex(hasher.finish()), "dea356a2cddd90c7a7ecedc5ebb563934f460452");
}

TEST(Sha1, EmptyMessage) {
  EXPECT_EQ(to_hex(sha1("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string message =
      "The quick brown fox jumps over the lazy dog, repeatedly, across block "
      "boundaries of the SHA-1 compression function. ";
  for (std::size_t split = 0; split <= message.size(); split += 7) {
    Sha1 hasher;
    hasher.update(message.substr(0, split));
    hasher.update(message.substr(split));
    EXPECT_EQ(hasher.finish(), sha1(message)) << "split at " << split;
  }
}

TEST(Sha1, BlockBoundarySizes) {
  // 55/56/57 and 63/64/65 bytes exercise the padding edge cases.
  for (const std::size_t size : {55U, 56U, 57U, 63U, 64U, 65U, 119U, 128U}) {
    const std::string message(size, 'x');
    Sha1 incremental;
    for (const char c : message) incremental.update(&c, 1);
    EXPECT_EQ(incremental.finish(), sha1(message)) << "size " << size;
  }
}

TEST(Sha1, ResetReusesObject) {
  Sha1 hasher;
  hasher.update("garbage");
  hasher.reset();
  hasher.update("abc");
  EXPECT_EQ(to_hex(hasher.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha1("node-a.example"), sha1("node-b.example"));
}

TEST(Crypto, Sha1DigestsArePinned) {
  // One input of every length 0..300, so the padding's 55/56/64/119/120-byte
  // boundaries are all crossed; bytes run through all 256 values. The
  // FNV-1a hash of the concatenated digests was recorded from the
  // byte-at-a-time padding implementation.
  std::string input;
  std::string digests;
  for (std::size_t length = 0; length <= 300; ++length) {
    const auto digest = sha1(input);
    digests.append(digest.begin(), digest.end());
    input.push_back(static_cast<char>((length * 131 + 7) & 0xFF));
  }
  EXPECT_EQ(util::fnv1a(digests), 0x9fb2b7ca51f80200ULL);
}

}  // namespace
}  // namespace hours::crypto
