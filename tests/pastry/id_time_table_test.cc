// IdTimeTable against a std::unordered_map oracle: random operation
// sequences plus the probing edge cases (shared home slots, runs that wrap
// past the end of the array, backward-shift deletion from mid-run, growth
// across several doublings, and reuse after Clear).
#include "src/pastry/id_time_table.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "src/common/rng.h"

namespace past {
namespace {

using Oracle = std::unordered_map<U128, SimTime, U128Hash>;

// `count` distinct random keys whose probe runs start at `home` in a table of
// `capacity` slots (and so at home % c for every smaller power of two c).
std::vector<U128> KeysWithHome(Rng* rng, size_t capacity, size_t home, int count) {
  std::vector<U128> keys;
  while (static_cast<int>(keys.size()) < count) {
    U128 k = rng->NextU128();
    if (IdTimeTable::HomeSlot(k, capacity) == home) {
      keys.push_back(k);
    }
  }
  return keys;
}

void ExpectMatches(const IdTimeTable& table, const Oracle& oracle,
                   const std::vector<U128>& universe) {
  ASSERT_EQ(table.size(), oracle.size());
  for (const U128& k : universe) {
    const SimTime* got = table.Find(k);
    auto it = oracle.find(k);
    if (it == oracle.end()) {
      EXPECT_EQ(got, nullptr) << k.ToHex();
    } else {
      ASSERT_NE(got, nullptr) << k.ToHex();
      EXPECT_EQ(*got, it->second) << k.ToHex();
    }
  }
}

TEST(IdTimeTableTest, EmptyTableHasNoSlots) {
  IdTimeTable t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), 0u);
  EXPECT_EQ(t.MemoryUsage(), 0u);
  EXPECT_EQ(t.Find(U128(1, 2)), nullptr);
  EXPECT_FALSE(t.Erase(U128(1, 2)));
  t.Clear();
  EXPECT_EQ(t.capacity(), 0u);
}

TEST(IdTimeTableTest, SetOverwriteEraseFind) {
  IdTimeTable t;
  t.Set(U128(0, 7), 100);
  ASSERT_NE(t.Find(U128(0, 7)), nullptr);
  EXPECT_EQ(*t.Find(U128(0, 7)), 100);
  t.Set(U128(0, 7), 250);  // overwrite keeps one entry
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.Find(U128(0, 7)), 250);
  t.Set(U128(7, 0), 0);  // zero and negative times are ordinary values
  t.Set(U128(7, 7), -5);
  EXPECT_EQ(*t.Find(U128(7, 0)), 0);
  EXPECT_EQ(*t.Find(U128(7, 7)), -5);
  EXPECT_TRUE(t.Erase(U128(0, 7)));
  EXPECT_FALSE(t.Erase(U128(0, 7)));
  EXPECT_EQ(t.Find(U128(0, 7)), nullptr);
  EXPECT_EQ(t.size(), 2u);
}

TEST(IdTimeTableTest, KeysSharingAHomeSlotStayReachable) {
  Rng rng(11);
  // Five keys on one home slot fill a run of five in the 8-slot table.
  std::vector<U128> keys = KeysWithHome(&rng, 8, 3, 5);
  IdTimeTable t;
  Oracle oracle;
  for (size_t i = 0; i < keys.size(); ++i) {
    t.Set(keys[i], static_cast<SimTime>(i));
    oracle[keys[i]] = static_cast<SimTime>(i);
  }
  ASSERT_EQ(t.capacity(), 8u);
  ExpectMatches(t, oracle, keys);
  // Erase from the middle of the run: the tail must shift back over the hole.
  ASSERT_TRUE(t.Erase(keys[2]));
  oracle.erase(keys[2]);
  ExpectMatches(t, oracle, keys);
  ASSERT_TRUE(t.Erase(keys[0]));
  oracle.erase(keys[0]);
  ExpectMatches(t, oracle, keys);
  ASSERT_TRUE(t.Erase(keys[4]));
  oracle.erase(keys[4]);
  ExpectMatches(t, oracle, keys);
}

TEST(IdTimeTableTest, ProbeRunsWrapPastTheEnd) {
  Rng rng(12);
  // Three keys homed on the last slot occupy slots 7, 0 and 1; two keys homed
  // on slot 0 land behind them at 2 and 3. Erasing the run's head must pull
  // each follower back, across the wrap, no further than its own home.
  std::vector<U128> last = KeysWithHome(&rng, 8, 7, 3);
  std::vector<U128> first = KeysWithHome(&rng, 8, 0, 2);
  std::vector<U128> all = last;
  all.insert(all.end(), first.begin(), first.end());
  for (int erase_at = 0; erase_at < 5; ++erase_at) {
    IdTimeTable t;
    Oracle oracle;
    for (size_t i = 0; i < all.size(); ++i) {
      t.Set(all[i], static_cast<SimTime>(10 * i));
      oracle[all[i]] = static_cast<SimTime>(10 * i);
    }
    ASSERT_EQ(t.capacity(), 8u);
    const U128 victim = all[static_cast<size_t>(erase_at)];
    ASSERT_TRUE(t.Erase(victim));
    oracle.erase(victim);
    ExpectMatches(t, oracle, all);
    // The hole is reusable and the table keeps matching.
    t.Set(victim, 99);
    oracle[victim] = 99;
    ExpectMatches(t, oracle, all);
  }
}

TEST(IdTimeTableTest, GrowsAcrossSeveralDoublings) {
  Rng rng(13);
  IdTimeTable t;
  Oracle oracle;
  std::vector<U128> keys;
  size_t doublings = 0;
  size_t last_capacity = 0;
  for (int i = 0; i < 3000; ++i) {
    U128 k = rng.NextU128();
    keys.push_back(k);
    t.Set(k, i);
    oracle[k] = i;
    const size_t cap = t.capacity();
    ASSERT_EQ(cap & (cap - 1), 0u) << "capacity must be a power of two";
    ASSERT_LE(t.size() * 4, cap * 3) << "load factor above 3/4";
    EXPECT_EQ(t.MemoryUsage(), cap * 24);
    if (cap != last_capacity) {
      if (last_capacity != 0) {
        EXPECT_EQ(cap, last_capacity * 2);
        ++doublings;
      }
      last_capacity = cap;
      ExpectMatches(t, oracle, keys);
    }
  }
  EXPECT_GE(doublings, 8u);  // 8 -> 4096
  ExpectMatches(t, oracle, keys);
  // Shrinking back by erasure never reallocates.
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(t.Erase(keys[i]));
    oracle.erase(keys[i]);
  }
  EXPECT_EQ(t.capacity(), last_capacity);
  ExpectMatches(t, oracle, keys);
}

TEST(IdTimeTableTest, ClearThenReuse) {
  Rng rng(14);
  IdTimeTable t;
  std::vector<U128> keys;
  for (int i = 0; i < 40; ++i) {
    keys.push_back(rng.NextU128());
    t.Set(keys.back(), i);
  }
  const size_t cap = t.capacity();
  t.Clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), cap);  // the slot array is kept
  Oracle oracle;
  ExpectMatches(t, oracle, keys);
  for (size_t i = 0; i < keys.size(); i += 3) {
    t.Set(keys[i], 1000 + static_cast<SimTime>(i));
    oracle[keys[i]] = 1000 + static_cast<SimTime>(i);
  }
  ExpectMatches(t, oracle, keys);
  EXPECT_EQ(t.capacity(), cap);
}

// Random set / overwrite / erase / find / clear sequences over a key universe
// built from clusters that share home slots (one cluster on the last slot, so
// runs wrap) plus unclustered keys. Every result and the size are checked
// against the oracle after each operation, and every key every 500.
TEST(IdTimeTableTest, DifferentialAgainstUnorderedMap) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 7919);
    std::vector<U128> universe;
    // Homes picked at 256 slots collide at every capacity the table reaches,
    // and the last one is always the array's final slot.
    const size_t kHomes[] = {0, 1, 100, 254, 255};
    for (size_t home : kHomes) {
      std::vector<U128> cluster = KeysWithHome(&rng, 256, home, 6);
      universe.insert(universe.end(), cluster.begin(), cluster.end());
    }
    for (int i = 0; i < 170; ++i) {
      universe.push_back(rng.NextU128());
    }
    IdTimeTable t;
    Oracle oracle;
    for (int op = 0; op < 20000; ++op) {
      const U128& k = universe[rng.PickIndex(universe.size())];
      const uint64_t dice = rng.UniformU64(1000);
      if (dice < 500) {
        const SimTime v = static_cast<SimTime>(rng.UniformU64(1u << 30));
        t.Set(k, v);
        oracle[k] = v;
      } else if (dice < 850) {
        ASSERT_EQ(t.Erase(k), oracle.erase(k) == 1) << "seed " << seed << " op " << op;
      } else if (dice < 999) {
        const SimTime* got = t.Find(k);
        auto it = oracle.find(k);
        ASSERT_EQ(got != nullptr, it != oracle.end()) << "seed " << seed << " op " << op;
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
      } else {
        t.Clear();
        oracle.clear();
      }
      ASSERT_EQ(t.size(), oracle.size()) << "seed " << seed << " op " << op;
      if (op % 500 == 0) {
        ExpectMatches(t, oracle, universe);
      }
    }
    ExpectMatches(t, oracle, universe);
  }
}

}  // namespace
}  // namespace past
