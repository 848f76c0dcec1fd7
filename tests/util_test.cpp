#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "rng/xoshiro256.hpp"
#include "util/flat_index.hpp"
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

TEST(FlatIndex, MatchesMapUnderRandomInsertAndErase) {
  // Random keys from a small range collide and form probe runs that wrap
  // the table, so erase's backward shift moves entries across them; the
  // table grows in the insert-heavy phases. A std::map is the oracle.
  rng::Xoshiro256 rng{0xF1A7ULL};
  FlatIndex index;
  std::map<std::uint64_t, std::uint32_t> model;
  for (int step = 0; step < 200'000; ++step) {
    const bool insert_heavy = (step / 25'000) % 2 == 0;
    const std::uint64_t key = 1 + rng.below(8'000);
    const auto it = model.find(key);
    if (rng.below(4) < (insert_heavy ? 3U : 1U)) {
      if (it != model.end()) continue;
      const auto value = static_cast<std::uint32_t>(rng.below(1U << 31));
      index.insert(key, value);
      model.emplace(key, value);
    } else {
      const std::uint32_t erased = index.erase(key);
      if (it == model.end()) {
        ASSERT_EQ(erased, FlatIndex::kMissing) << "step " << step;
      } else {
        ASSERT_EQ(erased, it->second) << "step " << step;
        model.erase(it);
      }
    }
    ASSERT_EQ(index.size(), model.size());
    if (step % 1'000 == 0) {
      for (const auto& [k, v] : model) ASSERT_EQ(index.find(k), v) << "step " << step;
      ASSERT_EQ(index.find(8'001), FlatIndex::kMissing);
    }
  }
  index.clear();
  EXPECT_EQ(index.size(), 0U);
  EXPECT_EQ(index.find(model.begin()->first), FlatIndex::kMissing);
}

}  // namespace
}  // namespace hours::util
