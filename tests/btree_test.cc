// B+-tree correctness, typed across every synchronization policy: basic
// CRUD, split cascades, scans, an oracle fuzz against std::map, and
// structural invariants.
#include "index/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"

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
class BTreeTest : public ::testing::Test {};

// Names the typed instantiations after their leaf lock (BTreeTest/Olc....)
// so ctest output is readable and --gtest_filter can select variants.
// McsRw and Pthread are the reader-writer leaf trees (BTreeRwLeafPolicy).
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
TYPED_TEST_SUITE(BTreeTest, TreeTypes, TreeNames);

TYPED_TEST(BTreeTest, EmptyTreeLookupMisses) {
  TypeParam tree;
  uint64_t out = 0;
  EXPECT_FALSE(tree.Lookup(42, out));
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.Height(), 1);
}

TYPED_TEST(BTreeTest, SingleInsertLookup) {
  TypeParam tree;
  EXPECT_TRUE(tree.Insert(42, 4200));
  uint64_t out = 0;
  ASSERT_TRUE(tree.Lookup(42, out));
  EXPECT_EQ(out, 4200u);
  EXPECT_FALSE(tree.Lookup(41, out));
  EXPECT_FALSE(tree.Lookup(43, out));
  EXPECT_EQ(tree.Size(), 1u);
}

TYPED_TEST(BTreeTest, DuplicateInsertRejected) {
  TypeParam tree;
  EXPECT_TRUE(tree.Insert(7, 1));
  EXPECT_FALSE(tree.Insert(7, 2));
  uint64_t out = 0;
  ASSERT_TRUE(tree.Lookup(7, out));
  EXPECT_EQ(out, 1u);  // Original value retained.
  EXPECT_EQ(tree.Size(), 1u);
}

TYPED_TEST(BTreeTest, UpdateExistingKey) {
  TypeParam tree;
  ASSERT_TRUE(tree.Insert(7, 1));
  EXPECT_TRUE(tree.Update(7, 99));
  uint64_t out = 0;
  ASSERT_TRUE(tree.Lookup(7, out));
  EXPECT_EQ(out, 99u);
}

TYPED_TEST(BTreeTest, UpdateMissingKeyFails) {
  TypeParam tree;
  EXPECT_FALSE(tree.Update(7, 99));
  ASSERT_TRUE(tree.Insert(7, 1));
  EXPECT_FALSE(tree.Update(8, 99));
}

TYPED_TEST(BTreeTest, UpsertInsertsThenOverwrites) {
  TypeParam tree;
  tree.Upsert(5, 50);
  uint64_t out = 0;
  ASSERT_TRUE(tree.Lookup(5, out));
  EXPECT_EQ(out, 50u);
  tree.Upsert(5, 51);
  ASSERT_TRUE(tree.Lookup(5, out));
  EXPECT_EQ(out, 51u);
  EXPECT_EQ(tree.Size(), 1u);
}

TYPED_TEST(BTreeTest, RemoveSemantics) {
  TypeParam tree;
  EXPECT_FALSE(tree.Remove(3));
  ASSERT_TRUE(tree.Insert(3, 30));
  EXPECT_TRUE(tree.Remove(3));
  uint64_t out = 0;
  EXPECT_FALSE(tree.Lookup(3, out));
  EXPECT_FALSE(tree.Remove(3));
  EXPECT_EQ(tree.Size(), 0u);
  // Reinsertion works after removal.
  EXPECT_TRUE(tree.Insert(3, 31));
  ASSERT_TRUE(tree.Lookup(3, out));
  EXPECT_EQ(out, 31u);
}

TYPED_TEST(BTreeTest, SequentialInsertCausesSplits) {
  TypeParam tree;
  constexpr uint64_t kKeys = 2000;  // >> leaf capacity: multi-level tree.
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree.Insert(k, k * 10));
  }
  EXPECT_GT(tree.Height(), 2);
  EXPECT_EQ(tree.Size(), kKeys);
  tree.CheckInvariants();
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(k, out)) << "key " << k;
    EXPECT_EQ(out, k * 10);
  }
}

TYPED_TEST(BTreeTest, ReverseInsertOrder) {
  TypeParam tree;
  constexpr uint64_t kKeys = 1500;
  for (uint64_t k = kKeys; k > 0; --k) {
    ASSERT_TRUE(tree.Insert(k, k));
  }
  tree.CheckInvariants();
  for (uint64_t k = 1; k <= kKeys; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(k, out));
    EXPECT_EQ(out, k);
  }
}

TYPED_TEST(BTreeTest, RandomInsertOrder) {
  TypeParam tree;
  std::vector<uint64_t> keys(3000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i * 7 + 1;
  std::mt19937_64 shuffle_rng(12345);
  std::shuffle(keys.begin(), keys.end(), shuffle_rng);
  for (uint64_t k : keys) ASSERT_TRUE(tree.Insert(k, ~k));
  tree.CheckInvariants();
  for (uint64_t k : keys) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(k, out));
    EXPECT_EQ(out, ~k);
  }
  uint64_t out = 0;
  EXPECT_FALSE(tree.Lookup(0, out));
  EXPECT_FALSE(tree.Lookup(2, out));  // Not a multiple-of-7-plus-1.
}

TYPED_TEST(BTreeTest, ScanAscendingFromKey) {
  TypeParam tree;
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree.Insert(k * 2, k));  // Even keys only.
  }
  std::vector<std::pair<uint64_t, uint64_t>> out;
  // Start between keys: 101 -> first key is 102.
  EXPECT_EQ(tree.Scan(101, 10, out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, 102 + 2 * i);
    EXPECT_EQ(out[i].second, (102 + 2 * i) / 2);
  }
  // Scan past the end clips.
  EXPECT_EQ(tree.Scan(990, 100, out), 5u);
  // Scan from before the first key.
  EXPECT_EQ(tree.Scan(0, 3, out), 3u);
  EXPECT_EQ(out[0].first, 0u);
}

TYPED_TEST(BTreeTest, ScanEmptyAndZeroLimit) {
  TypeParam tree;
  std::vector<std::pair<uint64_t, uint64_t>> out;
  EXPECT_EQ(tree.Scan(0, 10, out), 0u);
  ASSERT_TRUE(tree.Insert(1, 1));
  EXPECT_EQ(tree.Scan(0, 0, out), 0u);
}

TYPED_TEST(BTreeTest, OracleFuzzAgainstStdMap) {
  TypeParam tree;
  std::map<uint64_t, uint64_t> oracle;
  Xoshiro256 rng(987654321);
  constexpr int kOps = 12000;
  constexpr uint64_t kKeySpace = 700;  // Dense => plenty of collisions.

  for (int i = 0; i < kOps; ++i) {
    const uint64_t key = rng.NextBounded(kKeySpace);
    const uint64_t value = rng.Next();
    switch (rng.NextBounded(5)) {
      case 0: {  // Insert
        const bool inserted = tree.Insert(key, value);
        const bool expected = oracle.emplace(key, value).second;
        ASSERT_EQ(inserted, expected) << "insert " << key;
        break;
      }
      case 1: {  // Update
        const bool updated = tree.Update(key, value);
        auto it = oracle.find(key);
        ASSERT_EQ(updated, it != oracle.end()) << "update " << key;
        if (it != oracle.end()) it->second = value;
        break;
      }
      case 2: {  // Remove
        const bool removed = tree.Remove(key);
        ASSERT_EQ(removed, oracle.erase(key) == 1) << "remove " << key;
        break;
      }
      case 3: {  // Lookup
        uint64_t out = 0;
        const bool found = tree.Lookup(key, out);
        auto it = oracle.find(key);
        ASSERT_EQ(found, it != oracle.end()) << "lookup " << key;
        if (found) {
          ASSERT_EQ(out, it->second);
        }
        break;
      }
      case 4: {  // Short scan
        std::vector<std::pair<uint64_t, uint64_t>> got;
        tree.Scan(key, 5, got);
        auto it = oracle.lower_bound(key);
        for (const auto& kv : got) {
          ASSERT_NE(it, oracle.end());
          ASSERT_EQ(kv.first, it->first);
          ASSERT_EQ(kv.second, it->second);
          ++it;
        }
        // The scan must return min(5, remaining).
        const size_t remaining = static_cast<size_t>(
            std::distance(oracle.lower_bound(key), oracle.end()));
        ASSERT_EQ(got.size(), std::min<size_t>(5, remaining));
        break;
      }
    }
  }
  EXPECT_EQ(tree.Size(), oracle.size());
  tree.CheckInvariants();
  for (const auto& [key, value] : oracle) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(key, out));
    ASSERT_EQ(out, value);
  }
}

TYPED_TEST(BTreeTest, HeightGrowsLogarithmically) {
  TypeParam tree;
  for (uint64_t k = 0; k < 5000; ++k) ASSERT_TRUE(tree.Insert(k, k));
  // Fanout ~14 on 256-byte nodes: 5000 keys fit within height 5.
  EXPECT_LE(tree.Height(), 6);
  EXPECT_GE(tree.Height(), 3);
}

TEST(BTreeLayoutTest, NodeCapacitiesMatchPaperFanout) {
  // Paper §7.3: 256-byte nodes lead to a fanout of 14.
  EXPECT_EQ(OlcTree::LeafCapacity(), 14u);
  EXPECT_EQ(OlcTree::InnerCapacity(), 14u);
  // OptiQL leaves carry the same 8-byte lock word => same capacity.
  EXPECT_EQ(OptiQlTree::LeafCapacity(), 14u);
}

TEST(BTreeLayoutTest, LargerNodesIncreaseFanout) {
  using Tree1K = BTree<uint64_t, uint64_t, BTreeOlcPolicy, 1024>;
  using Tree4K = BTree<uint64_t, uint64_t, BTreeOlcPolicy, 4096>;
  EXPECT_GT(Tree1K::LeafCapacity(), OlcTree::LeafCapacity());
  EXPECT_GT(Tree4K::LeafCapacity(), Tree1K::LeafCapacity());
}

// Node-size sweep: the same fuzz on several node geometries (exercises
// different split frequencies and fanouts).
template <size_t kNodeBytes>
void RunNodeSizeFuzz() {
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>, kNodeBytes> tree;
  std::map<uint64_t, uint64_t> oracle;
  Xoshiro256 rng(kNodeBytes);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t key = rng.NextBounded(400);
    if (rng.NextBounded(2) == 0) {
      ASSERT_EQ(tree.Insert(key, key), oracle.emplace(key, key).second);
    } else {
      ASSERT_EQ(tree.Remove(key), oracle.erase(key) == 1);
    }
  }
  ASSERT_EQ(tree.Size(), oracle.size());
  tree.CheckInvariants();
}

TEST(BTreeNodeSizeTest, Fuzz256) { RunNodeSizeFuzz<256>(); }
TEST(BTreeNodeSizeTest, Fuzz512) { RunNodeSizeFuzz<512>(); }
TEST(BTreeNodeSizeTest, Fuzz1024) { RunNodeSizeFuzz<1024>(); }
TEST(BTreeNodeSizeTest, Fuzz4096) { RunNodeSizeFuzz<4096>(); }

}  // namespace
}  // namespace optiql
