// Delete-time rebalancing: node counts shrink with removals, a fully
// drained tree collapses back to a single leaf, concurrent churn keeps the
// node count bounded without losing keys, and unlinked nodes flow through
// the epoch layer. Exercised across every leaf discipline: OLC, OptiQL
// (with and without AOR) and both reader-writer leaf locks. The last suite
// drives left-sibling leaf merges under live shared-mode scans, the lock
// order hazard of reader-writer leaves.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "index/btree.h"
#include "sync/epoch.h"

namespace optiql {
namespace {

using OlcTree = BTree<uint64_t, uint64_t, BTreeOlcPolicy>;
using OptiQlTree = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>;
using OptiQlAorTree =
    BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL, /*kAor=*/true>>;
using McsRwTree = BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<McsRwLock>>;
using PthreadTree =
    BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<SharedMutexLock>>;

template <class Tree>
class BTreeChurnTest : public ::testing::Test {};

// Leaf-lock names in test ids (BTreeChurnTest/McsRw....) so ctest output
// is readable; McsRw and Pthread are the reader-writer leaf trees.
struct ChurnTreeNames {
  template <class T>
  static std::string GetName(int) {
    if (std::is_same_v<T, OlcTree>) return "Olc";
    if (std::is_same_v<T, OptiQlTree>) return "OptiQl";
    if (std::is_same_v<T, OptiQlAorTree>) return "OptiQlAor";
    if (std::is_same_v<T, McsRwTree>) return "McsRw";
    if (std::is_same_v<T, PthreadTree>) return "Pthread";
    return "Unknown";
  }
};

using ChurnTreeTypes = ::testing::Types<OlcTree, OptiQlTree, OptiQlAorTree,
                                        McsRwTree, PthreadTree>;
TYPED_TEST_SUITE(BTreeChurnTest, ChurnTreeTypes, ChurnTreeNames);

TYPED_TEST(BTreeChurnTest, RemoveShrinksNodeCount) {
  TypeParam tree;
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k + 1));
  const size_t full_nodes = tree.NodeCount();

  // Drop 90% of the population; merges must shed a matching share of the
  // nodes instead of leaving a husk of near-empty leaves.
  for (uint64_t k = 0; k < kKeys; ++k) {
    if (k % 10 != 0) {
      ASSERT_TRUE(tree.Remove(k));
    }
  }
  tree.CheckInvariants();
  EXPECT_LT(tree.NodeCount(), full_nodes / 2);

  const auto stats = tree.GetStats();
  EXPECT_GT(stats.leaf_merges, 0u);
  EXPECT_GT(stats.nodes_retired, 0u);
  for (uint64_t k = 0; k < kKeys; k += 10) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(k, out)) << k;
    ASSERT_EQ(out, k + 1);
  }
}

TYPED_TEST(BTreeChurnTest, RemovingEverythingCollapsesToSingleLeaf) {
  TypeParam tree;
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));
  EXPECT_GT(tree.Height(), 1);
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Remove(k));

  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_EQ(tree.Height(), 1);
  tree.CheckInvariants();
  EXPECT_GT(tree.GetStats().root_collapses, 0u);
}

TYPED_TEST(BTreeChurnTest, ConcurrentChurnBoundedNodesNoLostKeys) {
  TypeParam tree;
  constexpr int kThreads = 4;
  constexpr uint64_t kRange = 4000;  // Disjoint per-thread key ranges.
  constexpr int kOpsPerThread = 30000;

  std::vector<std::set<uint64_t>> oracle(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tree, &oracle, t] {
      Xoshiro256 rng(0x9E3779B9ULL + static_cast<uint64_t>(t));
      std::set<uint64_t>& mine = oracle[static_cast<size_t>(t)];
      const uint64_t base = static_cast<uint64_t>(t) * kRange;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = base + rng.NextBounded(kRange);
        if (rng.NextBounded(2) == 0) {
          if (tree.Insert(key, key * 2 + 1)) {
            ASSERT_TRUE(mine.insert(key).second);
          } else {
            ASSERT_TRUE(mine.count(key) == 1);
          }
        } else {
          if (tree.Remove(key)) {
            ASSERT_EQ(mine.erase(key), 1u);
          } else {
            ASSERT_TRUE(mine.count(key) == 0);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  tree.CheckInvariants();

  size_t live_keys = 0;
  for (int t = 0; t < kThreads; ++t) {
    live_keys += oracle[static_cast<size_t>(t)].size();
    const uint64_t base = static_cast<uint64_t>(t) * kRange;
    for (uint64_t k = base; k < base + kRange; ++k) {
      uint64_t out = 0;
      const bool found = tree.Lookup(k, out);
      ASSERT_EQ(found, oracle[static_cast<size_t>(t)].count(k) == 1) << k;
      if (found) {
        ASSERT_EQ(out, k * 2 + 1);
      }
    }
  }
  EXPECT_EQ(tree.Size(), live_keys);

  // With merges active, leaves sit near or above quarter occupancy, so the
  // node count is within a small factor of the minimum; without them the
  // churn above strands far more near-empty nodes.
  const size_t quarter = std::max<size_t>(1, TypeParam::LeafCapacity() / 4);
  const size_t bound = 2 * (kThreads * kRange / quarter + 16);
  EXPECT_LE(tree.NodeCount(), bound);
}

TYPED_TEST(BTreeChurnTest, SecondChurnWindowReachesSteadyState) {
  // Two identical single-threaded churn windows over a fixed population:
  // the node count after the second must not drift past the first by more
  // than a small slack — the "steady state" the merges exist to provide.
  TypeParam tree;
  constexpr uint64_t kKeys = 8000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));

  auto churn = [&tree](uint64_t seed) {
    Xoshiro256 rng(seed);
    for (int i = 0; i < 60000; ++i) {
      const uint64_t key = rng.NextBounded(kKeys);
      if (rng.NextBounded(2) == 0) {
        tree.Insert(key, key);
      } else {
        tree.Remove(key);
      }
    }
  };
  churn(1);
  const size_t after_first = tree.NodeCount();
  churn(2);
  const size_t after_second = tree.NodeCount();
  tree.CheckInvariants();
  EXPECT_LE(after_second, after_first + after_first / 4 + 16);
}

TYPED_TEST(BTreeChurnTest, ScansUnderChurnSeeStableKeysExactlyOnce) {
  // Regression test for the scan/rotation race: delete-time rotations move
  // keys between adjacent leaves with only version bumps (no obsolete
  // marker), so a scan that hands over to the next leaf without
  // re-validating the current one can miss a rotated key or return it
  // twice. A skeleton of untouched keys must appear in every scan exactly
  // once, in order, no matter how the volatile keys around it churn.
  // A small tree keeps every scan revisiting the same few leaf boundaries
  // while contiguous remove/reinsert waves drive rotations across them (a
  // drained leaf next to a still-full one, where a merge cannot fit), so a
  // handover racing a rotation is actually reachable within test time.
  TypeParam tree;
  constexpr uint64_t kKeys = 256;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));

  std::atomic<bool> stop{false};
  constexpr int kChurners = 3;
  std::vector<std::thread> churners;
  for (int t = 0; t < kChurners; ++t) {
    churners.emplace_back([&tree, &stop, t] {
      Xoshiro256 rng(0xC0FFEEULL + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t base = rng.NextBounded(kKeys - 16);
        for (uint64_t k = base; k < base + 16; ++k) {
          if (k % 4 != 0) tree.Remove(k);  // Never touch the skeleton.
        }
        for (uint64_t k = base; k < base + 16; ++k) {
          if (k % 4 != 0) tree.Insert(k, k);
        }
      }
    });
  }

  // Native builds finish all rounds in about a second; the deadline keeps
  // sanitizer jobs bounded at the cost of running fewer rounds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (int round = 0; round < 400000; ++round) {
    if ((round & 1023) == 0 && std::chrono::steady_clock::now() > deadline) {
      break;
    }
    tree.Scan(0, kKeys + 16, out);
    for (size_t i = 1; i < out.size(); ++i) {
      ASSERT_LT(out[i - 1].first, out[i].first);  // Sorted, no duplicates.
    }
    size_t stable_seen = 0;
    for (const auto& kv : out) {
      if (kv.first % 4 == 0) ++stable_seen;
    }
    ASSERT_EQ(stable_seen, kKeys / 4);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : churners) t.join();
  tree.CheckInvariants();
}

TYPED_TEST(BTreeChurnTest, RetiredNodesFlowThroughEpochReclamation) {
  EpochManager& epochs = EpochManager::Instance();
  const uint64_t retired_before = epochs.TotalRetired();
  {
    TypeParam tree;
    constexpr uint64_t kKeys = 5000;
    for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Insert(k, k));
    for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(tree.Remove(k));
    const auto stats = tree.GetStats();
    EXPECT_GT(stats.nodes_retired, 0u);
    EXPECT_EQ(epochs.TotalRetired() - retired_before, stats.nodes_retired);
  }
  // Single-threaded here, so the full drain is safe; afterwards nothing
  // this thread retired may remain pending.
  epochs.ReclaimAllUnsafe();
  EXPECT_GT(epochs.TotalRetired() - retired_before, 0u);
  EXPECT_EQ(epochs.RetiredCount(), 0u);
}

// --- Reader-writer leaves: left-sibling merges under shared-mode scans ---

template <class Tree>
class BTreeRwLeafScanMergeTest : public ::testing::Test {};

using RwLeafTreeTypes = ::testing::Types<McsRwTree, PthreadTree>;
TYPED_TEST_SUITE(BTreeRwLeafScanMergeTest, RwLeafTreeTypes, ChurnTreeNames);

// A shared-mode scan holds a leaf while it blocks on the leaf's right
// neighbour, and a remove that underflows the last leaf under a parent
// rebalances it with its LEFT sibling. A rebalance that kept its leaf while
// blocking on that sibling would deadlock against such a scan. A small tree
// keeps every scan crossing the top leaves while removers drain and refill
// them, so the two meet constantly; a watchdog turns a hang into a failure
// instead of a ctest timeout.
TYPED_TEST(BTreeRwLeafScanMergeTest, LeftSiblingMergesUnderScansDoNotDeadlock) {
  TypeParam tree;
  const uint64_t leaf_cap = TypeParam::LeafCapacity();
  const uint64_t keys = 4 * leaf_cap;
  for (uint64_t k = 0; k < keys; ++k) ASSERT_TRUE(tree.Insert(k, k));

  constexpr int kScanners = 2;
  constexpr int kRemovers = 2;
  std::atomic<bool> stop{false};
  std::atomic<int> finished{0};
  std::atomic<uint64_t> bad_scans{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kScanners; ++t) {
    threads.emplace_back([&] {
      std::vector<std::pair<uint64_t, uint64_t>> out;
      while (!stop.load(std::memory_order_acquire)) {
        tree.Scan(0, keys + 16, out);
        // Every key that is a multiple of 4 is never removed.
        uint64_t stable_seen = 0;
        for (size_t i = 0; i < out.size(); ++i) {
          if (i > 0 && out[i - 1].first >= out[i].first) {
            bad_scans.fetch_add(1, std::memory_order_relaxed);
          }
          if (out[i].first % 4 == 0) ++stable_seen;
        }
        if (stable_seen != keys / 4) {
          bad_scans.fetch_add(1, std::memory_order_relaxed);
        }
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  for (int t = 0; t < kRemovers; ++t) {
    threads.emplace_back([&] {
      const uint64_t lo = keys - 2 * leaf_cap;
      while (!stop.load(std::memory_order_acquire)) {
        for (uint64_t k = lo; k < keys; ++k) {
          if (k % 4 != 0) tree.Remove(k);
        }
        for (uint64_t k = lo; k < keys; ++k) {
          if (k % 4 != 0) tree.Insert(k, k);
        }
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }

  std::this_thread::sleep_for(std::chrono::seconds(1));
  stop.store(true, std::memory_order_release);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (finished.load(std::memory_order_acquire) < kScanners + kRemovers) {
    if (std::chrono::steady_clock::now() > deadline) {
      // The blocked threads can never be joined; end the process.
      std::fprintf(stderr, "deadlock: %d of %d threads still blocked\n",
                   kScanners + kRemovers - finished.load(),
                   kScanners + kRemovers);
      std::_Exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad_scans.load(), 0u);
  EXPECT_GT(tree.GetStats().leaf_merges, 0u);
  tree.CheckInvariants();
}

}  // namespace
}  // namespace optiql
