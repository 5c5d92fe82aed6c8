// ShardedStore behaviour: hash routing, differential correctness against a
// std::map oracle (single- and multi-threaded), scatter-gather scan
// ordering across shard boundaries, churn under the shared epoch domain,
// and the acceptance path — the store running through the unchanged
// index_bench harness and trace replay.
//
// TSan naming contract (tests/CMakeLists.txt): concurrent suites driving
// optimistic trees carry OptiQl / IndexBench / Multithreaded in their
// names so the discovery-time filter excludes them.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "harness/index_bench.h"
#include "index/art.h"
#include "index/btree.h"
#include "map_index.h"
#include "store/sharded_store.h"
#include "sync/epoch.h"
#include "workload/trace_replay.h"

namespace optiql {
namespace {

using OptiQlTree = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>;

// Router-independent behaviour: the same randomized differential runs
// against the hash router and the range router (conformance — a routing
// table swap must be invisible to point ops and scans).
template <class Store>
void SingleThreadDifferential(Store& store) {
  std::map<uint64_t, uint64_t> oracle;
  Xoshiro256 rng(0xD1FF);
  std::vector<std::pair<uint64_t, uint64_t>> scanned;

  for (int i = 0; i < 20000; ++i) {
    const uint64_t key = rng.NextBounded(4000);
    const uint64_t value = rng.Next();
    switch (rng.NextBounded(5)) {
      case 0:
        ASSERT_EQ(store.Insert(key, value),
                  oracle.emplace(key, value).second);
        break;
      case 1: {
        const auto it = oracle.find(key);
        ASSERT_EQ(store.Update(key, value), it != oracle.end());
        if (it != oracle.end()) it->second = value;
        break;
      }
      case 2:
        ASSERT_EQ(store.Remove(key), oracle.erase(key) == 1);
        break;
      case 3: {
        uint64_t out = 0;
        const auto it = oracle.find(key);
        ASSERT_EQ(store.Lookup(key, out), it != oracle.end());
        if (it != oracle.end()) {
          ASSERT_EQ(out, it->second);
        }
        break;
      }
      default: {
        const size_t limit = 1 + rng.NextBounded(32);
        store.Scan(key, limit, scanned);
        auto it = oracle.lower_bound(key);
        for (const auto& pair : scanned) {
          ASSERT_NE(it, oracle.end());
          ASSERT_EQ(pair.first, it->first);
          ASSERT_EQ(pair.second, it->second);
          ++it;
        }
        // The scan stopped early only if the oracle ran out too.
        if (scanned.size() < limit) {
          ASSERT_EQ(it, oracle.end());
        }
        break;
      }
    }
  }
  ASSERT_EQ(store.Size(), oracle.size());
  store.CheckInvariants();
}

TEST(ShardedStoreTest, SingleThreadDifferentialAgainstMapOracle) {
  ShardedStore<OptiQlTree> store(7);  // Odd count: catches modulo bugs.
  SingleThreadDifferential(store);
}

TEST(ShardedStoreTest, RangeRouterSingleThreadDifferential) {
  // Dense boundaries inside the op keyspace: scans and point ops cross
  // span edges constantly.
  ShardedStore<OptiQlTree, RangeShardRouter> store(
      7, RangeShardRouter::EvenOver(4000, 7));
  SingleThreadDifferential(store);
}

TEST(ShardedStoreTest, RangeRouterDefaultSpansCoverFullKeySpace) {
  // No explicit splits: spans divide the u64 space evenly; dense small
  // keys all land in span 0 but every key is routable.
  ShardedStore<OptiQlTree, RangeShardRouter> store(4);
  ASSERT_TRUE(store.Insert(0, 1));
  ASSERT_TRUE(store.Insert(UINT64_MAX, 2));
  ASSERT_TRUE(store.Insert(UINT64_MAX / 2, 3));
  EXPECT_EQ(store.Size(), 3u);
  uint64_t out = 0;
  EXPECT_TRUE(store.Lookup(UINT64_MAX, out));
  EXPECT_EQ(out, 2u);
  EXPECT_EQ(store.ShardCount(), 4u);
  // Keys spread across distinct spans land on distinct shards.
  EXPECT_NE(store.ShardIndexOf(0), store.ShardIndexOf(UINT64_MAX));
}

TEST(ShardedStoreTest, ScanMergesAcrossShardBoundaries) {
  // Dense keys: consecutive keys land on different shards by design, so
  // every scan window is stitched together by the k-way merge.
  ShardedStore<OptiQlTree> store(4);
  constexpr uint64_t kKeys = 10000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(store.Insert(k, k * 3));

  std::vector<std::pair<uint64_t, uint64_t>> out;
  const uint64_t starts[] = {0, 1, 997, 4096, kKeys - 10};
  for (uint64_t start : starts) {
    const size_t limit = 64;
    const size_t got = store.Scan(start, limit, out);
    const size_t expect = std::min<size_t>(limit, kKeys - start);
    ASSERT_EQ(got, expect) << "start=" << start;
    for (size_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i].first, start + i);
      ASSERT_EQ(out[i].second, (start + i) * 3);
    }
  }
  EXPECT_EQ(store.Scan(kKeys + 5, 16, out), 0u);
  EXPECT_EQ(store.Scan(0, 0, out), 0u);
}

TEST(ShardedStoreTest, RoutingCoversAllShardsAndSizeSums) {
  ShardedStore<OptiQlTree> store(16);
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 0; k < kKeys; ++k) ASSERT_TRUE(store.Insert(k, k));
  size_t sum = 0;
  for (size_t s = 0; s < store.ShardCount(); ++s) {
    // Dense keys under a full-avalanche router: every shard sees a
    // roughly proportional slice (loose 2x bound, no flakiness).
    EXPECT_GT(store.ShardAt(s).Size(), kKeys / 32) << "shard " << s;
    sum += store.ShardAt(s).Size();
  }
  EXPECT_EQ(sum, kKeys);
  EXPECT_EQ(store.Size(), kKeys);
  // Point ops agree with the router's own mapping.
  for (uint64_t k = 0; k < 100; ++k) {
    uint64_t out = 0;
    EXPECT_TRUE(
        store.ShardAt(store.ShardIndexOf(k)).Lookup(k, out));
  }
}

TEST(ShardedStoreTest, BulkLoadPartitionsSortedInput) {
  // PreloadIndex takes the bulk-load fast path on the store (it has
  // BulkLoad), partitioning the sorted input per shard.
  ShardedStore<OptiQlTree> store(5);
  IndexWorkload workload;
  workload.records = 12000;
  PreloadIndex(store, workload);
  EXPECT_EQ(store.Size(), workload.records);
  for (uint64_t k = 0; k < workload.records; k += 113) {
    uint64_t out = 0;
    ASSERT_TRUE(store.Lookup(k, out));
    ASSERT_EQ(out, k + 1);
  }
  store.CheckInvariants();
}

TEST(ShardedStoreTest, UpsertWorksOnShardedArtViaFallback) {
  // ART has no native Upsert; the store's Upsert goes through the
  // IndexUpsert update-then-insert fallback.
  ShardedStore<ArtTree<ArtOlcPolicy>> store(3);
  store.Upsert(42, 1);
  uint64_t out = 0;
  ASSERT_TRUE(store.Lookup(42, out));
  EXPECT_EQ(out, 1u);
  store.Upsert(42, 2);
  ASSERT_TRUE(store.Lookup(42, out));
  EXPECT_EQ(out, 2u);
  static_assert(!HasScanOp<ShardedStore<ArtTree<ArtOlcPolicy>>>);
}

// Acceptance path: ShardedStore<BTree<OptiQL>> through the UNCHANGED
// index_bench harness (preload + mixed fixed-duration run).
TEST(ShardedStoreTest, RunsThroughIndexBenchHarness) {
  ShardedStore<OptiQlTree> store(4);
  IndexWorkload workload;
  workload.records = 5000;
  workload.lookup_pct = 40;
  workload.update_pct = 30;
  workload.insert_pct = 20;
  workload.remove_pct = 10;
  workload.threads = 4;
  workload.duration_ms = 60;
  PreloadIndex(store, workload);
  const RunResult result = RunIndexBench(store, workload);
  EXPECT_GT(result.TotalOps(), 0u);
  // Inserts outnumber removes 2:1 in expectation, so the store grew.
  EXPECT_GT(store.Size(), workload.records);
  store.CheckInvariants();
}

// Acceptance path: the UNCHANGED ReplayTrace drives the store, in both
// op-partitioning modes.
TEST(ShardedStoreTest, MultithreadedReplayBothPartitionings) {
  TraceConfig config;
  config.operations = 20000;
  config.key_space = 200000;  // Wide space: inserts rarely collide.
  config.lookup_pct = 50;
  config.insert_pct = 50;
  config.update_pct = 0;
  config.remove_pct = 0;
  config.max_scan_len = 1;
  const Trace trace = Trace::Generate(config);

  for (const bool by_key : {false, true}) {
    ShardedStore<OptiQlTree> store(4);
    ReplayOptions options;
    options.threads = 4;
    options.partition_by_key = by_key;
    const ReplayResult result = ReplayTrace(store, trace, options);
    EXPECT_EQ(result.TotalOps(), trace.size()) << "by_key=" << by_key;
    // Every distinct inserted key is present exactly once.
    EXPECT_EQ(store.Size(), result.insert_ok) << "by_key=" << by_key;
    store.CheckInvariants();
  }
}

// Concurrent differential: each thread owns a disjoint key stripe, so the
// final contents are exactly the union of per-thread survivors.
TEST(ShardedStoreOptiQlTest, ConcurrentDisjointWritersDifferential) {
  constexpr int kThreads = 4;
  constexpr uint64_t kKeysPerThread = 4000;
  ShardedStore<OptiQlTree> store(8);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&store, t] {
      // Stripe by residue: thread t owns keys k with k % kThreads == t.
      for (uint64_t i = 0; i < kKeysPerThread; ++i) {
        const uint64_t key = i * kThreads + static_cast<uint64_t>(t);
        ASSERT_TRUE(store.Insert(key, key + 7));
      }
      // Remove every other key the thread inserted.
      for (uint64_t i = 0; i < kKeysPerThread; i += 2) {
        const uint64_t key = i * kThreads + static_cast<uint64_t>(t);
        ASSERT_TRUE(store.Remove(key));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(store.Size(), kThreads * kKeysPerThread / 2);
  for (uint64_t i = 0; i < kKeysPerThread; ++i) {
    for (int t = 0; t < kThreads; ++t) {
      const uint64_t key = i * kThreads + static_cast<uint64_t>(t);
      uint64_t out = 0;
      ASSERT_EQ(store.Lookup(key, out), i % 2 == 1) << key;
      if (i % 2 == 1) {
        ASSERT_EQ(out, key + 7);
      }
    }
  }
  store.CheckInvariants();
}

// Churn under the shared epoch domain: concurrent insert/remove cycles
// force delete-time merges that retire nodes through the one process-wide
// epoch manager while readers from other shards are active. ASan proves
// no retired node is freed under a live reader.
TEST(ShardedStoreOptiQlTest, ConcurrentChurnUnderEpochReclamation) {
  constexpr int kWriters = 3;
  constexpr uint64_t kRange = 8000;
  ShardedStore<OptiQlTree> store(4);
  for (uint64_t k = 0; k < kRange; ++k) ASSERT_TRUE(store.Insert(k, k));
  const uint64_t retired_before = EpochManager::Instance().TotalRetired();

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&store, t] {
      // Disjoint stripes keep every op's return value deterministic.
      for (int cycle = 0; cycle < 6; ++cycle) {
        for (uint64_t i = static_cast<uint64_t>(t); i < kRange;
             i += kWriters) {
          ASSERT_TRUE(store.Remove(i));
        }
        for (uint64_t i = static_cast<uint64_t>(t); i < kRange;
             i += kWriters) {
          ASSERT_TRUE(store.Insert(i, i + cycle));
        }
      }
    });
  }
  workers.emplace_back([&store, &stop] {
    std::vector<std::pair<uint64_t, uint64_t>> buffer;
    Xoshiro256 rng(0xC0FFEE);
    while (!stop.load(std::memory_order_acquire)) {
      uint64_t out = 0;
      store.Lookup(rng.NextBounded(kRange), out);
      store.Scan(rng.NextBounded(kRange), 16, buffer);
    }
  });
  for (int t = 0; t < kWriters; ++t) workers[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_release);
  workers.back().join();

  EXPECT_EQ(store.Size(), kRange);
  // The remove waves merged leaves: nodes were retired through the epoch
  // layer (not freed in place).
  EXPECT_GT(EpochManager::Instance().TotalRetired(), retired_before);
  store.CheckInvariants();
}

// Replay-affinity contract: with threads == shards, key-hash partitioned
// replay and the store's router agree on ownership (same Mix64 family),
// so each replay thread drives exactly one shard.
TEST(ShardedStoreTest, ShardAffinityAlignsWithKeyPartitioning) {
  constexpr size_t kShards = 4;
  ShardedStore<MapIndex> store(kShards);
  for (uint64_t key = 0; key < 10000; ++key) {
    EXPECT_EQ(store.ShardIndexOf(key),
              static_cast<size_t>(Mix64(key) % kShards));
  }
}

}  // namespace
}  // namespace optiql
