// Elastic sharding (DESIGN.md §14): range routing, epoch-published table
// versions, and online shard split/merge.
//
// Four layers:
//  * Scan routing: a scan fully contained in one shard's span visits
//    EXACTLY one shard (the ISSUE acceptance criterion), proven with a
//    scan-counting shard wrapper — no scatter-gather under range routing.
//  * Serial split/merge: content preservation, span bookkeeping, routing
//    version protocol (even steady / odd window), boundary rejection.
//  * Reshard storms: randomized online split/merge against a full op mix,
//    differential vs per-thread oracles — zero lost or duplicated keys.
//    The storm over the test-only MapIndex stays under TSan; the
//    OptiQl-named variant is excluded by the naming contract in
//    tests/CMakeLists.txt.
//  * Txn routing fence: OCC and 2PL transactions that straddle a reshard
//    must abort at commit; post-reshard transactions commit normally.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "index/btree.h"
#include "map_index.h"
#include "store/sharded_store.h"
#include "sync/epoch.h"
#include "txn/txn.h"

namespace optiql {
namespace {

using OptiQlTree = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>;
using OlcTree = BTree<uint64_t, uint64_t, BTreeOlcPolicy>;

// Shard wrapper that counts Scan invocations: the probe that proves range
// routing touches only the shards a scan's range intersects.
class ScanCountingTree {
 public:
  bool Insert(uint64_t k, uint64_t v) { return tree_.Insert(k, v); }
  bool Update(uint64_t k, uint64_t v) { return tree_.Update(k, v); }
  bool Lookup(uint64_t k, uint64_t& out) const { return tree_.Lookup(k, out); }
  bool Remove(uint64_t k) { return tree_.Remove(k); }
  void Upsert(uint64_t k, uint64_t v) { tree_.Upsert(k, v); }
  size_t Scan(uint64_t start, size_t limit,
              std::vector<std::pair<uint64_t, uint64_t>>& out) const {
    scan_calls_.fetch_add(1, std::memory_order_relaxed);
    return tree_.Scan(start, limit, out);
  }
  size_t Size() const { return tree_.Size(); }
  void CheckInvariants() const { tree_.CheckInvariants(); }
  uint64_t scan_calls() const {
    return scan_calls_.load(std::memory_order_relaxed);
  }

 private:
  MapIndex tree_;
  mutable std::atomic<uint64_t> scan_calls_{0};
};

using CountingStore = ShardedStore<ScanCountingTree, RangeShardRouter>;

std::vector<uint64_t> ScanCallsPerSlot(const CountingStore& store) {
  std::vector<uint64_t> calls;
  for (const auto& span : store.SpanSnapshot()) {
    while (calls.size() <= span.shard) calls.push_back(0);
    calls[span.shard] = store.ShardAt(span.shard).scan_calls();
  }
  return calls;
}

TEST(RangeReshardTest, SingleSpanScanVisitsExactlyOneShard) {
  CountingStore store(4, RangeShardRouter::EvenOver(4000, 4));
  for (uint64_t k = 0; k < 4000; ++k) ASSERT_TRUE(store.Insert(k, k * 3));

  // Spans: [0,1000) [1000,2000) [2000,3000) [3000,~]. A 50-key scan from
  // 1100 is wholly inside span 1.
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const std::vector<uint64_t> before = ScanCallsPerSlot(store);
  ASSERT_EQ(store.Scan(1100, 50, out), 50u);
  const std::vector<uint64_t> after = ScanCallsPerSlot(store);

  const auto spans = store.SpanSnapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (const auto& span : spans) {
    const uint64_t delta = after[span.shard] - before[span.shard];
    if (span.begin == 1000) {
      EXPECT_EQ(delta, 1u) << "owning shard must be visited exactly once";
    } else {
      EXPECT_EQ(delta, 0u) << "span at " << span.begin
                           << " does not intersect [1100,1149]";
    }
  }
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].first, 1100 + i);
    EXPECT_EQ(out[i].second, (1100 + i) * 3);
  }
}

TEST(RangeReshardTest, BoundaryScanVisitsExactlyTheIntersectingShards) {
  CountingStore store(4, RangeShardRouter::EvenOver(4000, 4));
  for (uint64_t k = 0; k < 4000; ++k) ASSERT_TRUE(store.Insert(k, k));

  // 20 keys from 1990 straddle the [1000,2000)/[2000,3000) boundary.
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const std::vector<uint64_t> before = ScanCallsPerSlot(store);
  ASSERT_EQ(store.Scan(1990, 20, out), 20u);
  const std::vector<uint64_t> after = ScanCallsPerSlot(store);

  for (const auto& span : store.SpanSnapshot()) {
    const uint64_t delta = after[span.shard] - before[span.shard];
    const bool intersects = span.begin == 1000 || span.begin == 2000;
    EXPECT_EQ(delta, intersects ? 1u : 0u) << "span at " << span.begin;
  }
}

TEST(RangeReshardTest, SplitMovesSpanAndPreservesContent) {
  CountingStore store(2, RangeShardRouter::EvenOver(2000, 2));
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(store.Insert(k, k + 7));
  const uint64_t version_before = store.RoutingVersion();
  ASSERT_EQ(version_before % 2, 0u) << "steady versions are even";

  ASSERT_TRUE(store.Split(500));  // [0,1000) -> [0,500) + [500,1000).
  EXPECT_EQ(store.RoutingVersion(), version_before + 2);
  EXPECT_EQ(store.ShardCount(), 3u);
  EXPECT_EQ(store.Size(), 2000u);

  const auto spans = store.SpanSnapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[1].begin, 500u);
  EXPECT_EQ(spans[2].begin, 1000u);
  // The moved range lives in the fresh shard and ONLY there: the source
  // was cleaned after the handover.
  EXPECT_EQ(spans[0].size, 500u);
  EXPECT_EQ(spans[1].size, 500u);
  EXPECT_EQ(spans[2].size, 1000u);

  for (uint64_t k = 0; k < 2000; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(store.Lookup(k, out)) << k;
    ASSERT_EQ(out, k + 7);
  }
  // A scan inside the carved-out span touches only the fresh shard.
  std::vector<std::pair<uint64_t, uint64_t>> out;
  const std::vector<uint64_t> before = ScanCallsPerSlot(store);
  ASSERT_EQ(store.Scan(600, 32, out), 32u);
  const std::vector<uint64_t> after = ScanCallsPerSlot(store);
  EXPECT_EQ(after[spans[1].shard] - before[spans[1].shard], 1u);
  EXPECT_EQ(after[spans[0].shard] - before[spans[0].shard], 0u);
  EXPECT_EQ(after[spans[2].shard] - before[spans[2].shard], 0u);
  store.CheckInvariants();
}

TEST(RangeReshardTest, MergeDissolvesSpanAndRetiresShard) {
  CountingStore store(2, RangeShardRouter::EvenOver(2000, 2));
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(store.Insert(k, k));
  const uint64_t version_before = store.RoutingVersion();

  ASSERT_TRUE(store.Merge(1000));  // [1000,~] dissolves into [0,1000).
  EXPECT_EQ(store.RoutingVersion(), version_before + 2);
  EXPECT_EQ(store.ShardCount(), 1u);
  EXPECT_EQ(store.Size(), 2000u);
  const auto spans = store.SpanSnapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].size, 2000u);

  for (uint64_t k = 0; k < 2000; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(store.Lookup(k, out)) << k;
    ASSERT_EQ(out, k);
  }
  // Split can re-use the freed slot afterwards.
  ASSERT_TRUE(store.Split(700));
  EXPECT_EQ(store.ShardCount(), 2u);
  EXPECT_EQ(store.Size(), 2000u);
  store.CheckInvariants();
}

TEST(RangeReshardTest, RejectsInvalidBoundaries) {
  CountingStore store(2, RangeShardRouter::EvenOver(2000, 2));
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(store.Insert(k, k));
  const uint64_t version = store.RoutingVersion();

  EXPECT_FALSE(store.Split(1000)) << "existing boundary: nothing to split";
  EXPECT_FALSE(store.Split(0)) << "span start is already a boundary";
  EXPECT_FALSE(store.Merge(0)) << "first span has no left neighbor";
  EXPECT_FALSE(store.Merge(999)) << "not a span boundary";
  EXPECT_EQ(store.RoutingVersion(), version) << "rejections publish nothing";
  EXPECT_EQ(store.ShardCount(), 2u);
}

TEST(RangeReshardTest, EvenOverDegenerateSpaceFallsBackToEvenU64) {
  // Fewer distinct non-zero boundaries than shards (space_end < shards):
  // EvenOver falls back to the even-over-u64 default instead of emitting
  // stride-0 duplicate split points that crash the table constructor.
  CountingStore store(8, RangeShardRouter::EvenOver(3, 8));
  EXPECT_EQ(store.ShardCount(), 8u);
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(store.Insert(k, k * 2));
  EXPECT_EQ(store.Size(), 100u);
  uint64_t out = 0;
  ASSERT_TRUE(store.Lookup(42, out));
  EXPECT_EQ(out, 84u);
}

TEST(RangeReshardTest, SplitMergeUnderEpochGuardFailGracefully) {
  CountingStore store(2, RangeShardRouter::EvenOver(2000, 2));
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(store.Insert(k, k));
  const uint64_t version = store.RoutingVersion();
  {
    // A caller already inside a guard (e.g. mid-transaction) must get a
    // clean false, not the Synchronize() self-deadlock CHECK.
    EpochGuard guard;
    EXPECT_FALSE(store.Split(500));
    EXPECT_FALSE(store.Merge(1000));
  }
  EXPECT_EQ(store.RoutingVersion(), version) << "rejections publish nothing";
  EXPECT_EQ(store.ShardCount(), 2u);
  ASSERT_TRUE(store.Split(500)) << "same call succeeds outside the guard";
  EXPECT_EQ(store.ShardCount(), 3u);
}

TEST(RangeReshardTest, SplitOfSparseAndEmptySpansWorks) {
  CountingStore store(1, RangeShardRouter{});
  // Only three keys, huge gaps; split boundaries fall in empty territory.
  ASSERT_TRUE(store.Insert(10, 1));
  ASSERT_TRUE(store.Insert(1000000, 2));
  ASSERT_TRUE(store.Insert(UINT64_MAX, 3));
  ASSERT_TRUE(store.Split(500));
  ASSERT_TRUE(store.Split(2000000));
  ASSERT_TRUE(store.Merge(500));
  EXPECT_EQ(store.Size(), 3u);
  uint64_t out = 0;
  EXPECT_TRUE(store.Lookup(10, out));
  EXPECT_TRUE(store.Lookup(1000000, out));
  EXPECT_TRUE(store.Lookup(UINT64_MAX, out));
  EXPECT_EQ(out, 3u);
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  EXPECT_EQ(store.Scan(0, 16, scanned), 3u);
}

// Store batches run one lane ring across every shard's root, routing each
// key once as a lane picks it up. After a Split (fresh slot 4) and a Merge
// (slot 3 retired) the live slot ids are non-contiguous, so a lane that
// assumed dense slots, or a ring bound to one shard object, would read the
// wrong tree or a retired one. Every batch shape must match per-key Lookup.
TEST(RangeReshardOptiQlBatchTest, RoutedLookupBatchMatchesPointLookups) {
  ShardedStore<OptiQlTree, RangeShardRouter> store(
      4, RangeShardRouter::EvenOver(4000, 4));
  for (uint64_t k = 0; k < 4400; k += 3) {
    ASSERT_TRUE(store.Insert(k, k * 7 + 1));
  }
  ASSERT_TRUE(store.Split(1500));  // [1500,2000) moves to slot 4.
  ASSERT_TRUE(store.Merge(3000));  // [3000,~] dissolves; slot 3 retired.
  std::vector<uint32_t> slots;
  for (const auto& span : store.SpanSnapshot()) slots.push_back(span.shard);
  ASSERT_EQ(slots, (std::vector<uint32_t>{0, 1, 4, 2}));

  constexpr size_t kLanesPlus5 = OptiQlTree::kMaxBatchLanes + 5;
  Xoshiro256 rng(0xB47C4ULL);
  const auto random_keys = [&](size_t n, uint64_t lo, uint64_t hi) {
    std::vector<uint64_t> keys(n);
    for (auto& key : keys) key = lo + rng.NextBounded(hi - lo);
    return keys;
  };
  std::vector<std::vector<uint64_t>> batches;
  // Keys in every shard, hits and misses; each span appears at least once.
  batches.push_back({10, 1100, 1600, 2100, 3500, 4399, 4400, 1501});
  batches.push_back(random_keys(64, 0, 4500));
  // Duplicate keys, adjacent and spread across shards.
  batches.push_back({1500, 1500, 3, 4200, 3, 1500, 2999, 4200, 2999});
  batches.push_back({1602});  // n = 1, a hit.
  batches.push_back({1601});  // n = 1, a miss.
  batches.push_back(random_keys(kLanesPlus5, 0, 4500));
  batches.push_back(random_keys(kLanesPlus5, 1500, 2000));  // One shard.
  batches.push_back(random_keys(40, 2000, 4500));  // Only the merged span.

  for (const auto& keys : batches) {
    const size_t n = keys.size();
    std::vector<uint64_t> values(n, ~uint64_t{0});
    std::vector<uint8_t> found(n, 2);
    const size_t hits =
        store.LookupBatch(keys.data(), n, values.data(),
                          reinterpret_cast<bool*>(found.data()));
    size_t expected_hits = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t out = 0;
      const bool hit = store.Lookup(keys[i], out);
      ASSERT_EQ(found[i], hit ? 1 : 0) << "n " << n << " key " << keys[i];
      if (hit) {
        ASSERT_EQ(values[i], out) << "key " << keys[i];
        ++expected_hits;
      } else {
        ASSERT_EQ(values[i], ~uint64_t{0}) << "miss wrote key " << keys[i];
      }
    }
    ASSERT_EQ(hits, expected_hits) << "n " << n;
  }
}

// --- Reshard storms ---------------------------------------------------------

// Full op mix over disjoint per-thread key stripes while a dedicated
// thread splits and merges continuously. Stripes make every thread's final
// expectation exact (a per-thread map oracle); the post-join differential
// proves zero lost and zero duplicated keys across all the handovers.
template <class Shard>
void ReshardStorm(int workers, int ops_per_worker, int reshard_attempts) {
  using Store = ShardedStore<Shard, RangeShardRouter>;
  const uint64_t key_space = 40000;
  Store store(4, RangeShardRouter::EvenOver(key_space, 4));
  const int W = workers;

  std::vector<std::map<uint64_t, uint64_t>> expect(
      static_cast<size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < W; ++w) {
    threads.emplace_back([&, w] {
      Xoshiro256 rng(0xBEEF + static_cast<uint64_t>(w));
      auto& ex = expect[static_cast<size_t>(w)];
      std::vector<std::pair<uint64_t, uint64_t>> scanned;
      for (int i = 0; i < ops_per_worker; ++i) {
        const uint64_t key =
            rng.NextBounded(key_space / static_cast<uint64_t>(W)) *
                static_cast<uint64_t>(W) +
            static_cast<uint64_t>(w);
        const uint64_t value = rng.Next();
        switch (rng.NextBounded(10)) {
          case 0:
          case 1:
            if (store.Insert(key, value)) ex.emplace(key, value);
            break;
          case 2:
            if (store.Remove(key)) ex.erase(key);
            break;
          case 3:
            store.Upsert(key, value);
            ex[key] = value;
            break;
          case 4: {
            // Concurrent scans cannot be checked against the oracle, but
            // span concatenation must keep them strictly ascending (a
            // doubly-routed key showing up twice would break this).
            store.Scan(rng.NextBounded(key_space), 24, scanned);
            for (size_t j = 1; j < scanned.size(); ++j) {
              ASSERT_LT(scanned[j - 1].first, scanned[j].first);
            }
            break;
          }
          case 5: {
            // Batched lookups: each key is routed once against a pinned
            // table, as a lane picks it up, while the copier advances the
            // watermark underneath. A lane keeps the tree its key was
            // routed to across restarts (one route per key taken by a
            // lane). Stripes are disjoint, so own-stripe results are exact
            // against the per-thread oracle.
            uint64_t batch_keys[16];
            uint64_t batch_values[16];
            bool batch_found[16];
            for (size_t j = 0; j < 16; ++j) {
              batch_keys[j] =
                  rng.NextBounded(key_space / static_cast<uint64_t>(W)) *
                      static_cast<uint64_t>(W) +
                  static_cast<uint64_t>(w);
            }
            store.LookupBatch(batch_keys, 16, batch_values, batch_found);
            for (size_t j = 0; j < 16; ++j) {
              const auto it = ex.find(batch_keys[j]);
              ASSERT_EQ(batch_found[j], it != ex.end())
                  << "batch lookup of key " << batch_keys[j];
              if (batch_found[j]) {
                ASSERT_EQ(batch_values[j], it->second);
              }
            }
            break;
          }
          case 6: {
            // Batched upserts: migrating-span keys overflow into the
            // double-applying point path mid-window.
            uint64_t batch_keys[8];
            uint64_t batch_values[8];
            for (size_t j = 0; j < 8; ++j) {
              batch_keys[j] =
                  rng.NextBounded(key_space / static_cast<uint64_t>(W)) *
                      static_cast<uint64_t>(W) +
                  static_cast<uint64_t>(w);
              batch_values[j] = rng.Next();
            }
            store.UpsertBatch(batch_keys, batch_values, 8);
            for (size_t j = 0; j < 8; ++j) {
              ex[batch_keys[j]] = batch_values[j];
            }
            break;
          }
          default: {
            uint64_t out = 0;
            store.Lookup(key, out);
            break;
          }
        }
      }
    });
  }
  std::thread resharder([&] {
    Xoshiro256 rng(0x5EED);
    for (int i = 0; i < reshard_attempts; ++i) {
      const uint64_t key = rng.NextBounded(key_space);
      if (!store.Split(key)) {
        const auto spans = store.SpanSnapshot();
        if (spans.size() > 1) {
          store.Merge(spans[1 + rng.NextBounded(spans.size() - 1)].begin);
        }
      }
    }
  });
  for (auto& t : threads) t.join();
  resharder.join();

  // Exact differential: zero lost keys, zero duplicated keys.
  size_t expected_total = 0;
  for (const auto& ex : expect) expected_total += ex.size();
  EXPECT_EQ(store.Size(), expected_total);
  for (const auto& ex : expect) {
    for (const auto& [key, value] : ex) {
      uint64_t out = 0;
      ASSERT_TRUE(store.Lookup(key, out)) << "lost key " << key;
      ASSERT_EQ(out, value) << "stale value for key " << key;
    }
  }
  std::vector<std::pair<uint64_t, uint64_t>> all;
  store.Scan(0, expected_total + 16, all);
  EXPECT_EQ(all.size(), expected_total)
      << "full scan disagrees with Size(): duplicated or dropped span";
  for (size_t i = 1; i < all.size(); ++i) {
    ASSERT_LT(all[i - 1].first, all[i].first) << "duplicate key in scan";
  }
  // Span sizes also sum to the store size (cleanup left no orphans).
  size_t span_sum = 0;
  for (const auto& span : store.SpanSnapshot()) span_sum += span.size;
  EXPECT_EQ(span_sum, expected_total);
  EXPECT_EQ(store.RoutingVersion() % 2, 0u) << "no window left open";
  store.CheckInvariants();
}

// Pessimistically locked map shards: runs under TSan (naming contract).
TEST(RangeReshardStormTest, MapIndexFullMixDifferential) {
  ReshardStorm<MapIndex>(4, 20000, 16);
}

// Same storm over the optimistic OptiQL tree (TSan-excluded by name).
TEST(RangeReshardOptiQlStormTest, OptimisticFullMixDifferential) {
  ReshardStorm<OptiQlTree>(4, 30000, 24);
}

// --- Transaction routing fence ----------------------------------------------

// A transaction that began before a reshard resolves keys through a table
// that no longer routes them; its commit must abort. The split runs on its
// own thread — exactly like a real reshard controller — because a txn pins
// an epoch for its whole lifetime and Split's grace periods wait for every
// pinned epoch to drain (calling it from under the txn would self-deadlock,
// and Synchronize checks for that). (Named Occ/OptiQl: TSan-excluded with
// the other optimistic suites.)
TEST(ReshardTxnFenceTest, OccCommitAbortsAcrossSplit) {
  using Store = ShardedStore<OptiQlTree, RangeShardRouter>;
  Store store(2, RangeShardRouter::EvenOver(1000, 2));
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(store.Insert(k, k));

  std::atomic<bool> split_ok{false};
  std::thread splitter;
  {
    OccTxn<Store> txn(store);
    uint64_t out = 0;
    ASSERT_EQ(txn.Get(5, out), TxnResult::kOk);
    ASSERT_EQ(txn.Put(5, 999), TxnResult::kOk);
    // Reshard a span the transaction never touched: the fence is on the
    // routing VERSION, not on overlap — a moved span invalidates the
    // rank/home assignment of every in-flight transaction. The new table
    // is published before the first grace period, so the open txn sees the
    // bumped version at commit even while Split is still waiting it out.
    splitter = std::thread([&] { split_ok = store.Split(750); });
    while (store.RoutingVersion() % 2 == 0) std::this_thread::yield();
    EXPECT_FALSE(txn.Commit()) << "commit must abort across a routing change";
    ASSERT_TRUE(store.Lookup(5, out));
    EXPECT_EQ(out, 5u) << "aborted txn must not have installed its write";
  }  // Txn dies, its pinned epoch drains, the split can finish.
  splitter.join();
  EXPECT_TRUE(split_ok.load());

  // A transaction born under the new table commits normally.
  uint64_t out = 0;
  OccTxn<Store> fresh(store);
  ASSERT_EQ(fresh.Put(5, 1234), TxnResult::kOk);
  EXPECT_TRUE(fresh.Commit());
  ASSERT_TRUE(store.Lookup(5, out));
  EXPECT_EQ(out, 1234u);
}

TEST(ReshardTxnFenceTest, OccTwoPlCommitAbortsAcrossSplit) {
  using Store = ShardedStore<OlcTree, RangeShardRouter>;
  Store store(2, RangeShardRouter::EvenOver(1000, 2));
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(store.Insert(k, k));

  std::atomic<bool> split_ok{false};
  std::thread splitter;
  {
    TwoPlTxn<Store> txn(store);
    ASSERT_EQ(txn.Put(5, 999), TxnResult::kOk);
    // Reshard the OTHER span: the held record lock never meets the copier,
    // but the version fence still kills the commit.
    splitter = std::thread([&] { split_ok = store.Split(750); });
    while (store.RoutingVersion() % 2 == 0) std::this_thread::yield();
    EXPECT_FALSE(txn.Commit());
    uint64_t out = 0;
    ASSERT_TRUE(store.Lookup(5, out));
    EXPECT_EQ(out, 5u);
  }
  splitter.join();
  EXPECT_TRUE(split_ok.load());

  uint64_t out = 0;
  TwoPlTxn<Store> fresh(store);
  ASSERT_EQ(fresh.Put(5, 4321), TxnResult::kOk);
  EXPECT_TRUE(fresh.Commit());
  ASSERT_TRUE(store.Lookup(5, out));
  EXPECT_EQ(out, 4321u);
}

}  // namespace
}  // namespace optiql
