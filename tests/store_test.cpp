#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "rng/xoshiro256.hpp"
#include "store/record_store.hpp"

namespace hours::store {
namespace {

naming::Name name(std::string_view text) { return naming::Name::parse(text).value(); }

TEST(RecordStore, AddAndFetch) {
  RecordStore store;
  store.add(name("www.example.com"), {"A", "192.0.2.1", 300});
  store.add(name("www.example.com"), {"A", "192.0.2.2", 300});
  store.add(name("www.example.com"), {"TXT", "hello", 60});

  EXPECT_EQ(store.records_at(name("www.example.com")).size(), 3U);
  EXPECT_EQ(store.records_at(name("www.example.com"), "A").size(), 2U);
  EXPECT_EQ(store.records_at(name("www.example.com"), "MX").size(), 0U);
  EXPECT_EQ(store.total_records(), 3U);
}

TEST(RecordStore, MissingNameIsEmpty) {
  RecordStore store;
  EXPECT_TRUE(store.records_at(name("ghost")).empty());
}

TEST(RecordStore, RemoveByType) {
  RecordStore store;
  store.add(name("x.y"), {"A", "1.2.3.4", 300});
  store.add(name("x.y"), {"A", "5.6.7.8", 300});
  store.add(name("x.y"), {"CERT", "...", 300});

  EXPECT_EQ(store.remove(name("x.y"), "A"), 2U);
  EXPECT_EQ(store.total_records(), 1U);
  EXPECT_EQ(store.records_at(name("x.y")).size(), 1U);
  EXPECT_EQ(store.remove(name("x.y"), "A"), 0U);
  EXPECT_EQ(store.remove(name("nope"), "A"), 0U);
}

TEST(RecordStore, RemovingLastRecordDropsName) {
  RecordStore store;
  store.add(name("a.b"), {"A", "v", 1});
  EXPECT_EQ(store.remove(name("a.b"), "A"), 1U);
  EXPECT_TRUE(store.records_at(name("a.b")).empty());
  EXPECT_EQ(store.total_records(), 0U);
}

TEST(RecordStore, DistinctNamesAreIsolated) {
  RecordStore store;
  store.add(name("a.z"), {"A", "1", 1});
  store.add(name("b.z"), {"A", "2", 1});
  EXPECT_EQ(store.records_at(name("a.z"))[0].value, "1");
  EXPECT_EQ(store.records_at(name("b.z"))[0].value, "2");
}

// Differential check of the hashed store: seeded add / remove traces, with
// every lookup and the snapshot view compared after each step against an
// ordered map keyed by Name, whose order the snapshot must follow. The
// names mix labels past std::string's small-buffer size (heap-held keys),
// the root, label permutations ("a.b" and "b.a") and pairs whose text
// order differs from their Name order ("a.y", "b.x"); a small name set
// makes names empty out and refill.
//
// Seed control, as in the fuzz harnesses:
//   HOURS_FUZZ_SEEDS=N   sweep seeds 1..N   (default 25)
//   HOURS_FUZZ_SEED=S    run exactly seed S

std::uint64_t env_u64(const char* var, std::uint64_t fallback) {
  const char* raw = std::getenv(var);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::strtoull(raw, nullptr, 10);
}

using Model = std::map<naming::Name, std::vector<Record>>;

/// What one seed's trace exercised, summed over the sweep.
struct Coverage {
  std::uint64_t refills = 0;    ///< adds under a name that had emptied
  std::uint64_t root_adds = 0;
  std::uint64_t heap_key_adds = 0;
};

void expect_same_store(const RecordStore& store, const Model& model,
                       const std::vector<naming::Name>& universe) {
  std::size_t total = 0;
  for (const auto& [n, held] : model) total += held.size();
  EXPECT_EQ(store.total_records(), total);
  for (const auto& n : universe) {
    const auto it = model.find(n);
    const std::vector<Record> want = it == model.end() ? std::vector<Record>{} : it->second;
    const std::string text = n.to_string();
    EXPECT_EQ(store.records_at(n), want) << text;
    EXPECT_EQ(&store.records_at(std::string_view{text}), &store.records_at(n)) << text;
    std::vector<Record> typed;
    for (const auto& r : want) {
      if (r.type == "A") typed.push_back(r);
    }
    EXPECT_EQ(store.records_at(n, "A"), typed) << text;
  }
  EXPECT_EQ(&store.records_at(""), &store.records_at(naming::Name{}));

  const auto view = store.in_name_order();
  ASSERT_EQ(view.size(), model.size());
  auto it = model.begin();
  for (const auto& [n, held] : view) {
    EXPECT_EQ(n, it->first) << n.to_string();
    EXPECT_EQ(*held, it->second) << n.to_string();
    ++it;
  }
}

void run_store_seed(std::uint64_t seed, Coverage& coverage) {
  SCOPED_TRACE("reproduce with HOURS_FUZZ_SEED=" + std::to_string(seed));
  static constexpr std::array<const char*, 6> kLabels{
      "a", "b", "x", "y", "a-label-longer-than-sso", "another-label-kept-on-the-heap"};
  static constexpr std::array<const char*, 3> kTypes{"A", "TXT", "CERT"};
  constexpr int kSteps = 200;

  // The root, every one-label name and every two-label name.
  std::vector<naming::Name> universe{naming::Name{}};
  for (const char* top : kLabels) universe.push_back(naming::Name{}.child(top));
  for (const char* top : kLabels) {
    for (const char* leaf : kLabels) universe.push_back(naming::Name{}.child(top).child(leaf));
  }

  rng::Xoshiro256 rng{seed};
  // Each trace works on a few names, so a name empties and refills many
  // times: the root, a permutation pair, a pair ordered one way as text and
  // the other as Names, a heap-held key, and three names drawn at random.
  std::vector<naming::Name> hot{naming::Name{}, name("a.b"), name("b.a"), name("a.y"),
                                name("b.x"), name("another-label-kept-on-the-heap.a")};
  for (int i = 0; i < 3; ++i) hot.push_back(universe[rng.below(universe.size())]);
  std::map<naming::Name, bool> emptied;

  RecordStore store;
  Model model;
  for (int step = 0; step < kSteps; ++step) {
    const naming::Name& n = hot[rng.below(hot.size())];
    const std::string type = kTypes[rng.below(kTypes.size())];
    if (rng.below(100) < 55) {
      Record record{type, std::to_string(step), rng.below(1000)};
      if (emptied[n]) ++coverage.refills;
      emptied[n] = false;
      if (n.is_root()) ++coverage.root_adds;
      if (n.to_string().size() > 15) ++coverage.heap_key_adds;
      store.add(n, record);
      model[n].push_back(std::move(record));
    } else {
      std::size_t want = 0;
      if (const auto it = model.find(n); it != model.end()) {
        want = static_cast<std::size_t>(
            std::erase_if(it->second, [&](const Record& r) { return r.type == type; }));
        if (it->second.empty()) {
          model.erase(it);
          emptied[n] = true;
        }
      }
      ASSERT_EQ(store.remove(n, type), want) << "remove " << type << " at " << n.to_string();
    }
    SCOPED_TRACE("after step " + std::to_string(step));
    expect_same_store(store, model, universe);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(RecordStoreModel, MatchesOrderedMapReference) {
  const std::uint64_t pinned = env_u64("HOURS_FUZZ_SEED", 0);
  const std::uint64_t count = pinned != 0 ? 1 : env_u64("HOURS_FUZZ_SEEDS", 25);
  ASSERT_GT(count, 0U) << "HOURS_FUZZ_SEEDS must be >= 1";
  Coverage coverage;
  for (std::uint64_t i = 0; i < count; ++i) {
    run_store_seed(pinned != 0 ? pinned : i + 1, coverage);
    if (HasFailure()) return;
  }
  if (pinned == 0) {
    EXPECT_GT(coverage.refills, 0U);
    EXPECT_GT(coverage.root_adds, 0U);
    EXPECT_GT(coverage.heap_key_adds, 0U);
  }
}

}  // namespace
}  // namespace hours::store
