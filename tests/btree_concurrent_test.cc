// Concurrent B+-tree stress across all synchronization policies: disjoint
// writers, racing updaters, reader/writer consistency, insert/remove churn,
// and skewed-hotspot mixes. All tests finish with a structural check.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "index/btree.h"

namespace optiql {
namespace {

using OlcTree = BTree<uint64_t, uint64_t, BTreeOlcPolicy>;
using OptiQlTree = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>;
using OptiQlNorTree = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQLNor>>;
using OptiQlAorTree =
    BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL, /*kAor=*/true>>;
using McsRwTree = BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<McsRwLock>>;
using PthreadTree =
    BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<SharedMutexLock>>;

template <class Tree>
class BTreeConcurrentTest : public ::testing::Test {};

// Leaf-lock names in test ids (BTreeConcurrentTest/McsRw....) so ctest
// output is readable; McsRw and Pthread are the reader-writer leaf trees.
struct TreeNames {
  template <class T>
  static std::string GetName(int) {
    if (std::is_same_v<T, OlcTree>) return "Olc";
    if (std::is_same_v<T, OptiQlTree>) return "OptiQl";
    if (std::is_same_v<T, OptiQlNorTree>) return "OptiQlNor";
    if (std::is_same_v<T, OptiQlAorTree>) return "OptiQlAor";
    if (std::is_same_v<T, McsRwTree>) return "McsRw";
    if (std::is_same_v<T, PthreadTree>) return "Pthread";
    return "Unknown";
  }
};

using TreeTypes = ::testing::Types<OlcTree, OptiQlTree, OptiQlNorTree,
                                   OptiQlAorTree, McsRwTree, PthreadTree>;
TYPED_TEST_SUITE(BTreeConcurrentTest, TreeTypes, TreeNames);

TYPED_TEST(BTreeConcurrentTest, DisjointConcurrentInserts) {
  TypeParam tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 3000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kPerThread + i;
        ASSERT_TRUE(tree.Insert(key, key + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(tree.Size(), kThreads * kPerThread);
  tree.CheckInvariants();
  for (uint64_t key = 0; key < kThreads * kPerThread; ++key) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(key, out)) << key;
    ASSERT_EQ(out, key + 1);
  }
}

TYPED_TEST(BTreeConcurrentTest, RacingInsertsOfSameKeysExactlyOneWins) {
  TypeParam tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kKeys = 2000;
  std::atomic<uint64_t> wins{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      uint64_t local_wins = 0;
      for (uint64_t key = 0; key < kKeys; ++key) {
        if (tree.Insert(key, key)) ++local_wins;
      }
      wins.fetch_add(local_wins, std::memory_order_acq_rel);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wins.load(), kKeys);  // Each key inserted exactly once.
  EXPECT_EQ(tree.Size(), kKeys);
  tree.CheckInvariants();
}

TYPED_TEST(BTreeConcurrentTest, ReadersSeeConsistentValuesUnderUpdates) {
  // Values are encoded so a reader can detect mixed/teared states:
  // value = key * kStamp + generation. Readers check value % kStamp-ness.
  TypeParam tree;
  constexpr uint64_t kKeys = 256;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree.Insert(k, k * 1000));
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<uint64_t>(r) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t key = rng.NextBounded(kKeys);
        uint64_t out = 0;
        if (tree.Lookup(key, out)) {
          // Every write keeps value ≡ key*1000 (mod 1000 == generation
          // bumps of +kKeys*1000 preserve divisibility relation below).
          if (out % 1000 != 0 || out / 1000 % kKeys != key % kKeys) {
            torn.store(true, std::memory_order_release);
          }
        } else {
          torn.store(true, std::memory_order_release);  // Keys never vanish.
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      Xoshiro256 rng(static_cast<uint64_t>(w) + 100);
      for (int i = 0; i < 8000; ++i) {
        const uint64_t key = rng.NextBounded(kKeys);
        // New value stays in the valid encoding:
        // value/1000 ≡ key (mod kKeys) and value % 1000 == 0.
        ASSERT_TRUE(
            tree.Update(key, (key + kKeys * rng.NextBounded(1000)) * 1000));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(torn.load());
  tree.CheckInvariants();
}

TYPED_TEST(BTreeConcurrentTest, InsertRemoveChurn) {
  TypeParam tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kSpacePerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, t] {
      // Each thread churns its own key range (deterministic counts),
      // while splits interleave across ranges in shared leaves.
      const uint64_t base = static_cast<uint64_t>(t) * kSpacePerThread;
      Xoshiro256 rng(static_cast<uint64_t>(t) + 7);
      std::set<uint64_t> mine;
      for (int i = 0; i < 6000; ++i) {
        const uint64_t key = base + rng.NextBounded(kSpacePerThread);
        if (rng.NextBounded(2) == 0) {
          ASSERT_EQ(tree.Insert(key, key), mine.insert(key).second);
        } else {
          ASSERT_EQ(tree.Remove(key), mine.erase(key) == 1);
        }
      }
      // Final per-thread verification.
      for (uint64_t k = base; k < base + kSpacePerThread; ++k) {
        uint64_t out = 0;
        ASSERT_EQ(tree.Lookup(k, out), mine.count(k) == 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  tree.CheckInvariants();
}

TYPED_TEST(BTreeConcurrentTest, SkewedHotspotMixedWorkload) {
  // 80/20-style hotspot: all threads hammer a few hot leaves with a mix of
  // lookups and updates — the scenario where OptiQL matters most.
  TypeParam tree;
  constexpr uint64_t kKeys = 512;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));

  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<bool> wrong{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) * 31 + 5);
      for (int i = 0; i < 5000; ++i) {
        // 80% of ops target the first 16 keys.
        const uint64_t key = rng.NextBounded(10) < 8
                                 ? rng.NextBounded(16)
                                 : rng.NextBounded(kKeys);
        if (rng.NextBounded(2) == 0) {
          ASSERT_TRUE(tree.Update(key, key + (i << 16)));
        } else {
          uint64_t out = 0;
          if (!tree.Lookup(key, out) || (out & 0xFFFF) != key) {
            wrong.store(true, std::memory_order_release);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(wrong.load());
  EXPECT_EQ(tree.Size(), kKeys);
  tree.CheckInvariants();
}

TYPED_TEST(BTreeConcurrentTest, ConcurrentScansDuringInserts) {
  TypeParam tree;
  for (uint64_t k = 0; k < 1000; k += 2) ASSERT_TRUE(tree.Insert(k, k));
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};

  std::thread scanner([&] {
    std::vector<std::pair<uint64_t, uint64_t>> out;
    while (!stop.load(std::memory_order_acquire)) {
      tree.Scan(100, 50, out);
      uint64_t prev = 0;
      bool first = true;
      for (const auto& [k, v] : out) {
        if (!first && k <= prev) bad.store(true, std::memory_order_release);
        if (v != k) bad.store(true, std::memory_order_release);
        prev = k;
        first = false;
      }
    }
  });

  std::thread inserter([&] {
    for (uint64_t k = 1; k < 1000; k += 2) {
      ASSERT_TRUE(tree.Insert(k, k));
    }
  });
  inserter.join();
  stop.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_FALSE(bad.load());
  EXPECT_EQ(tree.Size(), 1000u);
  tree.CheckInvariants();
}

}  // namespace
}  // namespace optiql
