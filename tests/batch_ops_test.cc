// Batched operation surface (index/index_ops.h + the native interleaved
// paths): batched results must be indistinguishable from executing the
// same ops one at a time, in batch order — including misses, duplicate
// keys inside one batch, and every dispatch arm (B+-tree/ART lane
// machines, ShardedStore's routed lane ring across shards, and the generic
// fallback used by the reader-writer leaf tree and the test-only MapIndex).
//
// Instantiations exercising optimistic reads are named to match the TSan
// exclusion globs (Olc / OptiQl / BTree) in tests/CMakeLists.txt; the
// MapIndex instantiation deliberately is not, so the generic batched
// fallback stays under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "index/art.h"
#include "index/btree.h"
#include "index/index_ops.h"
#include "map_index.h"
#include "store/sharded_store.h"

namespace optiql {
namespace {

using BTreeOlcT = BTree<uint64_t, uint64_t, BTreeOlcPolicy>;
using BTreeOptiQlT = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>;
using BTreeRwLeafT = BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<McsRwLock>>;
using ArtOlcT = ArtTree<ArtOlcPolicy>;
using ArtOptiQlT = ArtTree<ArtOptiQlPolicy<OptiQL>>;
using ShardedOlcT = ShardedStore<BTreeOlcT>;

using BatchCases = ::testing::Types<BTreeOlcT, BTreeOptiQlT, ArtOlcT,
                                    ArtOptiQlT, ShardedOlcT, BTreeRwLeafT,
                                    MapIndex>;

struct BatchCaseNames {
  template <class T>
  static std::string GetName(int) {
    if (std::is_same_v<T, BTreeOlcT>) return "BTreeOlc";
    if (std::is_same_v<T, BTreeOptiQlT>) return "BTreeOptiQl";
    if (std::is_same_v<T, ArtOlcT>) return "ArtOlc";
    if (std::is_same_v<T, ArtOptiQlT>) return "ArtOptiQl";
    if (std::is_same_v<T, ShardedOlcT>) return "ShardedBTreeOlc";
    // The RW-leaf tree keeps the test id of the lock-coupling tree it
    // replaced, so its result history stays continuous.
    if (std::is_same_v<T, BTreeRwLeafT>) return "BTreeRwLeafMcsRw";
    if (std::is_same_v<T, MapIndex>) return "MapIndex";
    return "Unknown";
  }
};

template <class T>
class BatchOpsTest : public ::testing::Test {};
TYPED_TEST_SUITE(BatchOpsTest, BatchCases, BatchCaseNames);

// Batch capability bookkeeping: each arm of IndexLookupBatch must stay
// wired to the type it was built for (a concept silently un-matching
// would quietly demote a native path to the loop fallback).
TYPED_TEST(BatchOpsTest, BatchCapabilityProfile) {
  using Index = TypeParam;
  if constexpr (std::is_same_v<Index, ArtOlcT> ||
                std::is_same_v<Index, ArtOptiQlT>) {
    static_assert(HasLookupBatchIntOp<Index>);
  } else if constexpr (std::is_same_v<Index, BTreeRwLeafT> ||
                       std::is_same_v<Index, MapIndex>) {
    static_assert(!HasLookupBatchOp<Index> && !HasLookupBatchIntOp<Index>);
  } else {
    static_assert(HasLookupBatchOp<Index>);
  }
  // The routed lane ring a ShardedStore's LookupBatch runs on: only the
  // versioned B+-trees provide it; every other shard type takes the store's
  // per-key loop.
  static_assert(HasRoutedLookupBatchOp<Index> ==
                (std::is_same_v<Index, BTreeOlcT> ||
                 std::is_same_v<Index, BTreeOptiQlT>));
  static_assert(HasInsertBatchOp<Index> == std::is_same_v<Index, ShardedOlcT>);
  static_assert(HasUpsertBatchOp<Index> == std::is_same_v<Index, ShardedOlcT>);
}

// Batched lookups vs a loop-of-singles oracle: hits, misses and duplicate
// keys inside one batch, across batch sizes from empty through several
// interleave groups' worth.
TYPED_TEST(BatchOpsTest, DifferentialLookupBatch) {
  TypeParam index;
  constexpr uint64_t kSpace = 900;
  for (uint64_t k = 0; k < kSpace; k += 3) {  // Every 3rd key present.
    ASSERT_TRUE(IndexInsert(index, k, k + 1));
  }

  Xoshiro256 rng(0xBA7C41ULL);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{64},
                         size_t{257}}) {
    std::vector<uint64_t> keys(n);
    for (size_t i = 0; i < n; ++i) {
      // ~1/8 duplicates of an earlier position in the same batch.
      if (i > 0 && rng.NextBounded(8) == 0) {
        keys[i] = keys[rng.NextBounded(i)];
      } else {
        keys[i] = rng.NextBounded(kSpace);  // Mix of hits and misses.
      }
    }
    std::vector<uint64_t> values(n, ~uint64_t{0});
    std::vector<uint8_t> found(n, 2);
    const size_t hits = IndexLookupBatch(
        index, keys.data(), n, values.data(),
        reinterpret_cast<bool*>(found.data()));
    size_t oracle_hits = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t out = 0;
      const bool hit = IndexLookup(index, keys[i], out);
      ASSERT_EQ(static_cast<bool>(found[i]), hit) << "key " << keys[i];
      if (hit) {
        ASSERT_EQ(values[i], out) << "key " << keys[i];
        ++oracle_hits;
      }
    }
    ASSERT_EQ(hits, oracle_hits);
  }
}

// The native lane paths must agree with the oracle at every interleave
// factor, including degenerate (1) and clamped (> kMaxBatchLanes) ones.
TYPED_TEST(BatchOpsTest, LookupBatchInterleaveSweep) {
  TypeParam index;
  constexpr uint64_t kSpace = 2048;
  for (uint64_t k = 0; k < kSpace; k += 2) {
    ASSERT_TRUE(IndexInsert(index, k, k + 1));
  }
  constexpr size_t kN = 333;
  std::vector<uint64_t> keys(kN);
  Xoshiro256 rng(0x5EEDULL);
  for (size_t i = 0; i < kN; ++i) keys[i] = rng.NextBounded(kSpace);

  for (const size_t lanes : {size_t{1}, size_t{2}, size_t{3}, size_t{8},
                             size_t{32}, size_t{100}}) {
    std::vector<uint64_t> values(kN, 0);
    std::vector<uint8_t> found(kN, 2);
    size_t hits = 0;
    bool* found_ptr = reinterpret_cast<bool*>(found.data());
    if constexpr (requires {
                    index.LookupBatchInt(keys.data(), kN, values.data(),
                                         found_ptr, lanes);
                  }) {
      hits = index.LookupBatchInt(keys.data(), kN, values.data(), found_ptr,
                                  lanes);
    } else if constexpr (requires {
                           index.LookupBatch(keys.data(), kN, values.data(),
                                             found_ptr, lanes);
                         }) {
      hits = index.LookupBatch(keys.data(), kN, values.data(), found_ptr,
                               lanes);
    } else {
      hits = IndexLookupBatch(index, keys.data(), kN, values.data(),
                              found_ptr);
    }
    size_t oracle_hits = 0;
    for (size_t i = 0; i < kN; ++i) {
      uint64_t out = 0;
      const bool hit = IndexLookup(index, keys[i], out);
      ASSERT_EQ(static_cast<bool>(found[i]), hit)
          << "lanes " << lanes << " key " << keys[i];
      if (hit) {
        ASSERT_EQ(values[i], out);
        ++oracle_hits;
      }
    }
    ASSERT_EQ(hits, oracle_hits) << "lanes " << lanes;
  }
}

// Batched inserts vs sequential singles on a twin index: same ok[] verdicts
// (first occurrence of a duplicate wins, pre-existing keys rejected) and
// identical final content.
TYPED_TEST(BatchOpsTest, DifferentialInsertBatch) {
  TypeParam batched;
  TypeParam oracle;
  constexpr uint64_t kSpace = 400;
  for (uint64_t k = 0; k < kSpace; k += 4) {  // Pre-existing keys.
    ASSERT_TRUE(IndexInsert(batched, k, k + 1));
    ASSERT_TRUE(IndexInsert(oracle, k, k + 1));
  }

  constexpr size_t kN = 257;
  std::vector<uint64_t> keys(kN);
  std::vector<uint64_t> values(kN);
  Xoshiro256 rng(0x1235813ULL);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = (i > 0 && rng.NextBounded(8) == 0) ? keys[rng.NextBounded(i)]
                                                 : rng.NextBounded(kSpace);
    values[i] = keys[i] * 10 + i;  // Distinct per position.
  }

  std::vector<uint8_t> ok(kN, 2);
  const size_t applied =
      IndexInsertBatch(batched, keys.data(), values.data(), kN,
                       reinterpret_cast<bool*>(ok.data()));
  size_t oracle_applied = 0;
  for (size_t i = 0; i < kN; ++i) {
    const bool r = IndexInsert(oracle, keys[i], values[i]);
    ASSERT_EQ(static_cast<bool>(ok[i]), r) << "position " << i;
    if (r) ++oracle_applied;
  }
  ASSERT_EQ(applied, oracle_applied);
  for (uint64_t k = 0; k < kSpace; ++k) {
    uint64_t a = 0;
    uint64_t b = 0;
    const bool fa = IndexLookup(batched, k, a);
    const bool fb = IndexLookup(oracle, k, b);
    ASSERT_EQ(fa, fb) << "key " << k;
    if (fa) {
      ASSERT_EQ(a, b) << "key " << k;
    }
  }
}

// Batched upserts vs sequential singles: the LAST occurrence of a
// duplicate key in a batch must win, exactly as sequential execution.
TYPED_TEST(BatchOpsTest, DifferentialUpsertBatch) {
  TypeParam batched;
  TypeParam oracle;
  constexpr uint64_t kSpace = 300;
  for (uint64_t k = 0; k < kSpace; k += 5) {
    ASSERT_TRUE(IndexInsert(batched, k, k + 1));
    ASSERT_TRUE(IndexInsert(oracle, k, k + 1));
  }

  constexpr size_t kN = 200;
  std::vector<uint64_t> keys(kN);
  std::vector<uint64_t> values(kN);
  Xoshiro256 rng(0xFACEULL);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = (i > 0 && rng.NextBounded(4) == 0) ? keys[rng.NextBounded(i)]
                                                 : rng.NextBounded(kSpace);
    values[i] = 1000 + i;
  }

  IndexUpsertBatch(batched, keys.data(), values.data(), kN);
  for (size_t i = 0; i < kN; ++i) {
    IndexUpsert(oracle, keys[i], values[i]);
  }
  for (uint64_t k = 0; k < kSpace; ++k) {
    uint64_t a = 0;
    uint64_t b = 0;
    const bool fa = IndexLookup(batched, k, a);
    const bool fb = IndexLookup(oracle, k, b);
    ASSERT_EQ(fa, fb) << "key " << k;
    if (fa) {
      ASSERT_EQ(a, b) << "key " << k;
    }
  }
}

// Batched readers against single-op writer churn under epoch reclamation:
// every hit must carry the one value ever written for its key (key + 1),
// and keys outside the churn range must never go missing. Lane restarts,
// node splits/merges/retirements and guard nesting all get exercised.
TYPED_TEST(BatchOpsTest, ConcurrentBatchedReadersVsChurn) {
  TypeParam index;
  constexpr uint64_t kStable = 4096;   // Never touched by writers.
  constexpr uint64_t kChurn = 4096;    // Inserted/removed continuously.
  for (uint64_t k = 0; k < kStable; ++k) {
    ASSERT_TRUE(IndexInsert(index, k, k + 1));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&index, &stop, w] {
      Xoshiro256 rng(0xBEEF0ULL + static_cast<uint64_t>(w));
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t key = kStable + rng.NextBounded(kChurn);
        if (rng.NextBounded(2) == 0) {
          IndexInsert(index, key, key + 1);
        } else {
          IndexRemove(index, key);
        }
      }
    });
  }

  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&index, &stop, &violations, r] {
      Xoshiro256 rng(0xD00D0ULL + static_cast<uint64_t>(r));
      constexpr size_t kBatch = 64;
      std::vector<uint64_t> keys(kBatch);
      std::vector<uint64_t> values(kBatch);
      const std::unique_ptr<bool[]> found(new bool[kBatch]);
      for (int iter = 0; iter < 400 && !stop.load(std::memory_order_acquire);
           ++iter) {
        for (size_t i = 0; i < kBatch; ++i) {
          // Half stable (must be found, exact value), half churning
          // (value must be exact when found).
          keys[i] = i % 2 == 0 ? rng.NextBounded(kStable)
                               : kStable + rng.NextBounded(kChurn);
        }
        IndexLookupBatch(index, keys.data(), kBatch, values.data(),
                         found.get());
        for (size_t i = 0; i < kBatch; ++i) {
          if (i % 2 == 0 && !found[i]) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
          if (found[i] && values[i] != keys[i] + 1) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
      stop.store(true, std::memory_order_release);
    });
  }

  for (auto& t : threads) t.join();
  EXPECT_EQ(violations.load(), 0u);
}

// A store batch runs one lane ring over every shard's root; a lane that
// restarts is charged to its own shard's read_restarts, never to another
// shard's. Writers churn shard 2 alone, so every other shard's versions
// never move and its restart count must stay 0 however the batches race.
TEST(RoutedBatchOlcTest, LaneRestartsChargeTheirOwnShard) {
  ShardedStore<BTreeOlcT, RangeShardRouter> store(
      4, RangeShardRouter::EvenOver(40000, 4));
  for (uint64_t k = 0; k < 40000; k += 2) ASSERT_TRUE(store.Insert(k, k + 1));
  constexpr uint32_t kHot = 2;  // Span [20000, 30000).

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Xoshiro256 rng(0x4E57A87ULL);
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t key = 20001 + 2 * rng.NextBounded(5000);  // Odd keys.
      if (!store.Insert(key, key + 1)) store.Remove(key);
    }
  });
  Xoshiro256 rng(0x4EADE4ULL);
  uint64_t keys[16];
  uint64_t values[16];
  bool found[16];
  uint64_t violations = 0;
  // Until a few restarts are in (or a bounded number of batches): each is
  // one chance for a misattributed restart to show on an idle shard.
  const auto total_restarts = [&] {
    uint64_t sum = 0;
    for (uint32_t s = 0; s < 4; ++s) {
      sum += store.ShardAt(s).GetStats().read_restarts;
    }
    return sum;
  };
  for (int iter = 0; iter < 200000 && total_restarts() < 8; ++iter) {
    for (auto& key : keys) key = rng.NextBounded(40000);
    store.LookupBatch(keys, 16, values, found);
    for (size_t i = 0; i < 16; ++i) {
      const bool even = keys[i] % 2 == 0;
      if ((even && !found[i]) || (found[i] && values[i] != keys[i] + 1)) {
        ++violations;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(violations, 0u);
  for (uint32_t s = 0; s < 4; ++s) {
    if (s == kHot) continue;
    EXPECT_EQ(store.ShardAt(s).GetStats().read_restarts, 0u) << "shard " << s;
  }
}

}  // namespace
}  // namespace optiql
