// PointMemoTable (interpret/point_memo.h) against std::unordered_map:
// random insert / find / overwrite / erase / clear streams must leave both
// holding the same entries. Besides the production hash, the streams run
// under two degenerate hashes: one that sends every key to one of four
// homes (long collision chains, so erasures land mid-chain and
// backward-shift deletion must move later entries), and one whose homes
// are the table's last three entries (every chain longer than three wraps
// past the end).

#include "interpret/point_memo.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/rng.h"

namespace openapi::interpret {
namespace {

struct FourHomesHash {
  uint64_t operator()(const PointKey& key) const { return key.first % 4; }
};

struct LastEntriesHash {
  uint64_t operator()(const PointKey& key) const {
    return ~uint64_t{0} - key.first % 3;
  }
};

struct ReferenceHash {
  size_t operator()(const PointKey& key) const {
    return static_cast<size_t>(key.first * 31 + key.second);
  }
};

using Reference = std::unordered_map<PointKey, size_t, ReferenceHash>;

template <typename Hash>
void ExpectSameEntries(const PointMemoTable<Hash>& table,
                       const Reference& reference,
                       const std::vector<PointKey>& universe) {
  ASSERT_EQ(table.size(), reference.size());
  for (const PointKey& key : universe) {
    const size_t* got = table.Find(key);
    auto want = reference.find(key);
    if (want == reference.end()) {
      ASSERT_EQ(got, nullptr) << key.first << "," << key.second;
    } else {
      ASSERT_NE(got, nullptr) << key.first << "," << key.second;
      ASSERT_EQ(*got, want->second);
    }
  }
}

/// Runs `ops` random operations over a universe of `keys` keys, checking
/// every result against the reference and the full contents every 64 ops.
template <typename Hash>
void RunStream(uint64_t seed, size_t keys, size_t ops) {
  util::Rng rng(seed);
  std::vector<PointKey> universe;
  for (size_t i = 0; i < keys; ++i) {
    // Distinct keys; the low `first` values spread over every home of
    // the degenerate hashes.
    universe.push_back({i, util::Rng::MixSeed(seed, i)});
  }
  PointMemoTable<Hash> table;
  Reference reference;
  size_t peak = 0;
  for (size_t op = 0; op < ops; ++op) {
    const PointKey& key = universe[rng.Index(keys)];
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.45) {
      const size_t value = op;
      auto [filed, inserted] = table.Emplace(key, value);
      auto [want, want_inserted] = reference.emplace(key, value);
      ASSERT_EQ(inserted, want_inserted);
      ASSERT_EQ(*filed, want->second);
      if (!inserted && roll < 0.1) {
        *filed = value;  // overwrite through the returned entry
        want->second = value;
      }
    } else if (roll < 0.7) {
      const size_t* got = table.Find(key);
      auto want = reference.find(key);
      ASSERT_EQ(got != nullptr, want != reference.end());
      if (got != nullptr) {
        ASSERT_EQ(*got, want->second);
      }
    } else if (roll < 0.998) {
      ASSERT_EQ(table.Erase(key), reference.erase(key) > 0);
    } else {
      table.Clear();
      reference.clear();
      ASSERT_EQ(table.capacity(), 0u);
    }
    ASSERT_EQ(table.size(), reference.size());
    ASSERT_LE(4 * table.size(), 3 * table.capacity());
    peak = std::max(peak, table.size());
    if (op % 64 == 0) ExpectSameEntries(table, reference, universe);
  }
  ExpectSameEntries(table, reference, universe);
  // The stream grew the table well past its first size.
  EXPECT_GT(peak, 48u);
}

TEST(PointMemoTableTest, MatchesUnorderedMapWithTheProductionHash) {
  RunStream<PointKeyHash>(1, 300, 20000);
  RunStream<PointKeyHash>(2, 4000, 40000);
}

TEST(PointMemoTableTest, MatchesUnorderedMapUnderForcedCollisions) {
  RunStream<FourHomesHash>(3, 200, 20000);
}

TEST(PointMemoTableTest, MatchesUnorderedMapWhenChainsWrapPastTheEnd) {
  RunStream<LastEntriesHash>(4, 200, 20000);
}

TEST(PointMemoTableTest, EraseInTheMiddleOfAWrappedChainKeepsTheRest) {
  // Six keys, all homed on the last three entries of a 16-entry table:
  // the chain wraps to the front. Erasing each position in turn must
  // leave every other key findable.
  for (size_t victim = 0; victim < 6; ++victim) {
    PointMemoTable<LastEntriesHash> table;
    for (uint64_t i = 0; i < 6; ++i) table.Emplace({i, 7 * i}, i);
    ASSERT_EQ(table.capacity(), 16u);
    ASSERT_TRUE(table.Erase({victim, 7 * victim}));
    EXPECT_FALSE(table.Erase({victim, 7 * victim}));
    for (uint64_t i = 0; i < 6; ++i) {
      const size_t* got = table.Find({i, 7 * i});
      if (i == victim) {
        EXPECT_EQ(got, nullptr);
      } else {
        ASSERT_NE(got, nullptr) << "victim " << victim << " key " << i;
        EXPECT_EQ(*got, i);
      }
    }
    EXPECT_EQ(table.size(), 5u);
  }
}

TEST(PointMemoTableTest, EmptyTableFindsAndErasesNothing) {
  PointMemoTable<> table;
  EXPECT_EQ(table.Find({1, 2}), nullptr);
  EXPECT_FALSE(table.Erase({1, 2}));
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
  EXPECT_TRUE(table.Emplace({1, 2}, 5).second);
  EXPECT_FALSE(table.Emplace({1, 2}, 6).second);
  EXPECT_EQ(*table.Find({1, 2}), 5u);
}

}  // namespace
}  // namespace openapi::interpret
