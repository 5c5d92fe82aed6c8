// Additional B+-tree coverage: AOR-specific behaviour, alternative
// key/value types, boundary geometries, long scans across many leaves,
// upsert sweeps, concurrent AOR readers-vs-writers consistency, and
// restart accounting across every level of the descent.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "btree_test_peer.h"
#include "common/random.h"
#include "index/btree.h"

namespace optiql {
namespace {

using AorTree =
    BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL, /*kAor=*/true>>;

TEST(BTreeAorTest, SingleThreadedSemanticsUnchanged) {
  AorTree tree;
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(tree.Insert(k, k));
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(tree.Update(k, k * 2));
  for (uint64_t k = 0; k < 1000; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(k, out));
    ASSERT_EQ(out, k * 2);
  }
  for (uint64_t k = 0; k < 1000; k += 2) ASSERT_TRUE(tree.Remove(k));
  EXPECT_EQ(tree.Size(), 500u);
  tree.CheckInvariants();
}

TEST(BTreeAorTest, ReadersStayConsistentUnderAorUpdates) {
  // AOR keeps the opportunistic window open through the in-leaf search;
  // readers must still never validate a half-applied update.
  AorTree tree;
  constexpr uint64_t kKeys = 128;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k << 20));
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<uint64_t>(r) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t key = rng.NextBounded(kKeys);
        uint64_t out = 0;
        if (!tree.Lookup(key, out) || (out >> 20) != key) {
          bad.store(true, std::memory_order_release);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      Xoshiro256 rng(static_cast<uint64_t>(w) + 50);
      for (int i = 0; i < 8000; ++i) {
        const uint64_t key = rng.NextBounded(kKeys);
        ASSERT_TRUE(tree.Update(key, (key << 20) | (i & 0xFFFFF)));
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(bad.load());
  tree.CheckInvariants();
}

TEST(BTreeTypesTest, SignedKeysAndStructValues) {
  struct Payload {
    int64_t a;
    int64_t b;
    bool operator==(const Payload& other) const {
      return a == other.a && b == other.b;
    }
  };
  BTree<int64_t, Payload, BTreeOptiQlPolicy<OptiQL>> tree;
  for (int64_t k = -500; k < 500; ++k) {
    ASSERT_TRUE(tree.Insert(k, Payload{k, -k}));
  }
  tree.CheckInvariants();
  for (int64_t k = -500; k < 500; ++k) {
    Payload out{};
    ASSERT_TRUE(tree.Lookup(k, out));
    EXPECT_EQ(out, (Payload{k, -k}));
  }
  Payload out{};
  EXPECT_FALSE(tree.Lookup(-501, out));
  EXPECT_FALSE(tree.Lookup(500, out));
}

TEST(BTreeTypesTest, NarrowKeysWithWidePayloadGeometry) {
  // 32-bit keys + 32-byte payloads change the node geometry completely.
  struct Wide {
    uint64_t words[4];
  };
  using Tree = BTree<uint32_t, Wide, BTreeOlcPolicy, 512>;
  Tree tree;
  EXPECT_GE(Tree::LeafCapacity(), 2u);
  for (uint32_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree.Insert(k, Wide{{k, k + 1, k + 2, k + 3}}));
  }
  tree.CheckInvariants();
  for (uint32_t k = 0; k < 2000; ++k) {
    Wide out{};
    ASSERT_TRUE(tree.Lookup(k, out));
    ASSERT_EQ(out.words[3], k + 3);
  }
}

TEST(BTreeGeometryTest, MinimumViableNodeSizeStillWorks) {
  // A node size too small for the header forces the floor capacity of 2:
  // splits on nearly every insert; the tree degenerates but stays correct.
  using TinyTree = BTree<uint64_t, uint64_t, BTreeOlcPolicy, 64>;
  EXPECT_EQ(TinyTree::LeafCapacity(), 2u);
  TinyTree tree;
  for (uint64_t k = 0; k < 300; ++k) ASSERT_TRUE(tree.Insert(k, k));
  tree.CheckInvariants();
  EXPECT_EQ(tree.Size(), 300u);
  for (uint64_t k = 0; k < 300; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(k, out));
  }
}

TEST(BTreeScanTest, ScanSpansManyLeavesExactly) {
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k + 7));
  std::vector<std::pair<uint64_t, uint64_t>> out;
  // A scan crossing hundreds of leaves (capacity 14 per leaf).
  EXPECT_EQ(tree.Scan(100, 3000, out), 3000u);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i].first, 100 + i);
    ASSERT_EQ(out[i].second, 100 + i + 7);
  }
  // Full-table scan clips at the end.
  EXPECT_EQ(tree.Scan(0, kKeys + 100, out), kKeys);
}

TEST(BTreeScanTest, ScanAfterRemovesSkipsDeletedKeys) {
  BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
  for (uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(tree.Insert(k, k));
  for (uint64_t k = 50; k < 150; ++k) ASSERT_TRUE(tree.Remove(k));
  std::vector<std::pair<uint64_t, uint64_t>> out;
  EXPECT_EQ(tree.Scan(40, 20, out), 20u);
  // 40..49 then 150..159.
  for (int i = 0; i < 10; ++i) ASSERT_EQ(out[static_cast<size_t>(i)].first, 40u + i);
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(out[static_cast<size_t>(10 + i)].first, 150u + i);
  }
  tree.CheckInvariants();
}

TEST(BTreeUpsertTest, MixedUpsertSweep) {
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQLNor>> tree;
  Xoshiro256 rng(31337);
  std::map<uint64_t, uint64_t> oracle;
  for (int i = 0; i < 8000; ++i) {
    const uint64_t key = rng.NextBounded(600);
    const uint64_t value = rng.Next();
    tree.Upsert(key, value);
    oracle[key] = value;
  }
  EXPECT_EQ(tree.Size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(key, out));
    ASSERT_EQ(out, value);
  }
  tree.CheckInvariants();
}

TEST(BTreeStatsTest, SplitCountersTrackStructuralChanges) {
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  auto stats = tree.GetStats();
  EXPECT_EQ(stats.leaf_splits, 0u);
  EXPECT_EQ(stats.inner_splits, 0u);
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(tree.Insert(k, k));
  stats = tree.GetStats();
  // 3000 keys at 7-14 per leaf (half-full after splits) => hundreds of
  // leaf splits and at least a few inner splits.
  EXPECT_GT(stats.leaf_splits, 100u);
  EXPECT_GT(stats.inner_splits, 2u);
  tree.ResetStats();
  stats = tree.GetStats();
  EXPECT_EQ(stats.leaf_splits, 0u);
  EXPECT_EQ(stats.read_restarts, 0u);
}

TEST(BTreeStatsTest, RwLeafPolicyCountsSplitsToo) {
  BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<McsRwLock>> tree;
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(tree.Insert(k, k));
  EXPECT_GT(tree.GetStats().leaf_splits, 30u);
}

TEST(BTreeBulkLoadTest, LoadsSortedPairsAndStaysQueryable) {
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  for (uint64_t k = 0; k < 10000; ++k) pairs.emplace_back(k * 3, k);
  tree.BulkLoad(pairs);
  EXPECT_EQ(tree.Size(), pairs.size());
  tree.CheckInvariants();
  uint64_t out = 0;
  for (uint64_t k = 0; k < 10000; k += 97) {
    ASSERT_TRUE(tree.Lookup(k * 3, out));
    ASSERT_EQ(out, k);
  }
  EXPECT_FALSE(tree.Lookup(1, out));
  // The tree is fully mutable afterwards.
  ASSERT_TRUE(tree.Insert(1, 111));
  ASSERT_TRUE(tree.Remove(0));
  ASSERT_TRUE(tree.Update(3, 999));
  tree.CheckInvariants();
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  EXPECT_EQ(tree.Scan(0, 3, scanned), 3u);
  EXPECT_EQ(scanned[0].first, 1u);
}

TEST(BTreeBulkLoadTest, TinyAndEmptyLoads) {
  BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
  tree.BulkLoad({});  // No-op.
  EXPECT_EQ(tree.Size(), 0u);
  tree.BulkLoad({{5, 50}});
  EXPECT_EQ(tree.Size(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  uint64_t out = 0;
  ASSERT_TRUE(tree.Lookup(5, out));
  EXPECT_EQ(out, 50u);
  tree.CheckInvariants();
}

TEST(BTreeBulkLoadTest, AwkwardSizesNeverOrphanChildren) {
  // Sizes chosen to hit the tail-adjustment path at each inner level.
  for (uint64_t n : {1u, 2u, 12u, 13u, 14u, 15u, 168u, 169u, 170u, 2367u}) {
    BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (uint64_t k = 0; k < n; ++k) pairs.emplace_back(k, k);
    tree.BulkLoad(pairs);
    ASSERT_EQ(tree.Size(), n);
    tree.CheckInvariants();
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(n - 1, out));
  }
}

TEST(BTreeHeightTest, RootLeafThenGrowth) {
  BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
  EXPECT_EQ(tree.Height(), 1);  // Single root leaf.
  for (uint64_t k = 0; k < 14; ++k) ASSERT_TRUE(tree.Insert(k, k));
  EXPECT_EQ(tree.Height(), 1);  // Still fits.
  ASSERT_TRUE(tree.Insert(14, 14));  // Root leaf splits.
  EXPECT_EQ(tree.Height(), 2);
  tree.CheckInvariants();
}

// A reader that restarts at an inner level counts the restart, not only
// one at the leaf. With height >= 3 the root is not the leaf's parent, so
// cycling the root's lock only ever fails inner-level validations: the
// reads below must report read restarts within the deadline.
template <class Tree, class Read>
uint64_t ReadRestartsUnderRootLockCycling(Tree& tree, uint64_t keys,
                                          Read read) {
  tree.ResetStats();
  std::atomic<bool> stop{false};
  std::thread locker([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      BTreeTestPeer::CycleRootLock(tree);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (uint64_t k = 0; tree.GetStats().read_restarts == 0 &&
                       std::chrono::steady_clock::now() < deadline;
       k = (k + 1) % keys) {
    EXPECT_TRUE(read(k));
  }
  stop.store(true, std::memory_order_relaxed);
  locker.join();
  return tree.GetStats().read_restarts;
}

TEST(BTreeRestartTest, TxnReadCountsInnerLevelRestarts) {
  using Tree = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>;
  constexpr uint64_t kKeys = 4096;
  Tree tree;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));
  ASSERT_GE(tree.Height(), 3);
  EXPECT_GT(ReadRestartsUnderRootLockCycling(tree, kKeys,
                                             [&](uint64_t k) {
                                               EpochGuard guard;
                                               Tree::TxnReadResult r;
                                               tree.TxnRead(k, r);
                                               return r.found &&
                                                      r.value == k;
                                             }),
            0u);
}

TEST(BTreeRestartTest, RwLeafLookupCountsInnerLevelRestarts) {
  using Tree = BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<McsRwLock>>;
  constexpr uint64_t kKeys = 4096;
  Tree tree;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));
  ASSERT_GE(tree.Height(), 3);
  EXPECT_GT(ReadRestartsUnderRootLockCycling(tree, kKeys,
                                             [&](uint64_t k) {
                                               uint64_t out = 0;
                                               return tree.Lookup(k, out) &&
                                                      out == k;
                                             }),
            0u);
}

}  // namespace
}  // namespace optiql
