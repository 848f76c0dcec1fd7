#include <gtest/gtest.h>

#include "util/hash.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace hours::util {
namespace {

TEST(Strings, SplitBasic) {
  const auto parts = split("a.b.c", '.');
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a..c", '.');
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("alone", '.');
  ASSERT_EQ(parts.size(), 1U);
  EXPECT_EQ(parts[0], "alone");
}

TEST(Strings, SplitEmptyInput) {
  const auto parts = split("", '.');
  ASSERT_EQ(parts.size(), 1U);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, JoinInvertsSplit) {
  const std::vector<std::string> parts{"www", "cs", "ucla"};
  EXPECT_EQ(join(parts, '.'), "www.cs.ucla");
  EXPECT_EQ(split(join(parts, '.'), '.'), parts);
}

TEST(Strings, JoinEmpty) { EXPECT_EQ(join({}, '.'), ""); }

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("MiXeD.Case"), "mixed.case"); }

TEST(Strings, HexEncode) {
  const unsigned char bytes[] = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(hex_encode(bytes, sizeof(bytes)), "00deadbeefff");
}

TEST(Hash, Fnv1aMatchesPublishedVectors) {
  // The 64-bit FNV-1a reference values: shard assignment and snapshot
  // fingerprints depend on these never changing.
  static_assert(fnv1a("") == 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Result, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r{Error{Error::Code::kNotFound, "missing"}};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Error::Code::kNotFound);
  EXPECT_EQ(r.error().message, "missing");
}

TEST(Result, MoveOutValue) {
  Result<std::string> r{std::string{"payload"}};
  const std::string taken = std::move(r).value();
  EXPECT_EQ(taken, "payload");
}

TEST(Result, ErrorCodeNames) {
  EXPECT_STREQ(to_string(Error::Code::kUnreachable), "unreachable");
  EXPECT_STREQ(to_string(Error::Code::kDropped), "dropped");
  EXPECT_STREQ(to_string(Error::Code::kDead), "dead");
  EXPECT_STREQ(to_string(Error::Code::kHopLimit), "hop_limit");
}

}  // namespace
}  // namespace hours::util
