// Transaction-layer tests (src/txn/txn.h): OCC and no-wait 2PL over every
// transaction-hosting index family: the versioned B+-trees, the test-only
// MapIndex, and ShardedStores of either.
//
//  * Serial differential: randomized multi-key transactions against a
//    single-threaded std::map reference — read-your-writes, repeatable
//    reads, found/not-found parity, and zero aborts when uncontended.
//  * Concurrent conservation: bank-transfer transactions move value
//    between accounts; the total is invariant under any interleaving iff
//    isolation holds. Checked for both protocols on every host.
//  * Retry accounting: RunTxn must deliver exactly one commit per call,
//    with aborts attributed to the protocol's losing phase.
//  * ShardedStore forwarding: the store is a transaction host whenever
//    its shards are, with shard-major lock ranks.
//
// Suite naming feeds the TSan exclusion globs in tests/CMakeLists.txt:
// the concurrent tests over B+-tree hosts carry the lock family (Olc/
// OptiQl) or the protocol (Occ) in their names and are filtered under
// TSan, since every B+-tree descends optimistically. The 2PL tests over
// MapIndex hosts (record locks, atomic values, no optimistic descent)
// deliberately match no glob, so 2PL stays under TSan.

#include <cstdint>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "core/optiql.h"
#include "gtest/gtest.h"
#include "index/btree.h"
#include "index/index_ops.h"
#include "locks/mcs_rw_lock.h"
#include "map_index.h"
#include "store/sharded_store.h"
#include "txn/txn.h"

namespace optiql {
namespace {

using OlcTree = BTree<uint64_t, uint64_t, BTreeOlcPolicy>;
using OptiQlTree =
    BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL, /*kAor=*/false>>;
using ShardedOptiQlTree = ShardedStore<OptiQlTree>;
using ShardedMap = ShardedStore<MapIndex>;

static_assert(TxnVersionedHost<OlcTree>);
static_assert(TxnVersionedHost<OptiQlTree>);
static_assert(TxnVersionedHost<MapIndex>);
static_assert(TxnVersionedHost<ShardedOptiQlTree>);
static_assert(TxnVersionedHost<ShardedMap>);
static_assert(!TxnHostIndex<BTree<uint64_t, uint64_t,
                                  BTreeRwLeafPolicy<McsRwLock>>>);

constexpr uint64_t kKeys = 512;

template <class Index>
void Populate(Index& index) {
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_TRUE(IndexInsert(index, k, k * 10));
  }
}

// --- Serial differential ---------------------------------------------------

// Randomized multi-key transactions vs a std::map oracle. Single-threaded,
// so neither protocol may ever abort; Gets must see committed state plus
// the transaction's own pending writes.
template <class Index, class Txn>
void SerialDifferential() {
  Index index;
  Populate(index);
  std::map<uint64_t, uint64_t> ref;
  for (uint64_t k = 1; k <= kKeys; ++k) ref[k] = k * 10;

  std::mt19937_64 rng(42);
  struct Op {
    bool put;
    uint64_t key;
    uint64_t value;
  };
  for (int round = 0; round < 500; ++round) {
    const size_t size = 1 + rng() % 6;
    std::vector<Op> ops;
    for (size_t i = 0; i < size; ++i) {
      const bool put = rng() % 2 == 0;
      // Reads sometimes target absent keys; writes never do (the workload
      // model updates existing keys only).
      const uint64_t key =
          put ? 1 + rng() % kKeys
              : (rng() % 8 == 0 ? kKeys + 1 + rng() % 16 : 1 + rng() % kKeys);
      ops.push_back(Op{put, key, rng()});
    }

    TxnStats stats;
    RunTxn<Txn>(index, stats, [&](Txn& txn) {
      std::map<uint64_t, uint64_t> pending;
      for (const Op& op : ops) {
        if (op.put) {
          if (txn.Put(op.key, op.value) != TxnResult::kOk) return false;
          pending[op.key] = op.value;
        } else {
          uint64_t out = 0;
          const TxnResult result = txn.Get(op.key, out);
          if (result == TxnResult::kAbort) return false;
          const bool exists =
              pending.count(op.key) != 0 || ref.count(op.key) != 0;
          EXPECT_EQ(result == TxnResult::kOk, exists);
          if (result == TxnResult::kOk) {
            const uint64_t expected = pending.count(op.key) != 0
                                          ? pending[op.key]
                                          : ref[op.key];
            EXPECT_EQ(out, expected);
          }
        }
      }
      return true;
    });
    EXPECT_EQ(stats.commits, 1u);
    EXPECT_EQ(stats.aborts, 0u);
    for (const Op& op : ops) {
      if (op.put) ref[op.key] = op.value;
    }
  }

  for (const auto& [key, value] : ref) {
    uint64_t out = 0;
    ASSERT_TRUE(IndexLookup(index, key, out));
    EXPECT_EQ(out, value);
  }
  IndexCheckInvariants(index);
}

TEST(TxnSerialTest, OccOlcTree) { SerialDifferential<OlcTree, OccTxn<OlcTree>>(); }
TEST(TxnSerialTest, OccOptiQlTree) {
  SerialDifferential<OptiQlTree, OccTxn<OptiQlTree>>();
}
TEST(TxnSerialTest, OccMap) {
  SerialDifferential<MapIndex, OccTxn<MapIndex>>();
}
TEST(TxnSerialTest, OccShardedOptiQlTree) {
  SerialDifferential<ShardedOptiQlTree, OccTxn<ShardedOptiQlTree>>();
}
TEST(TxnSerialTest, TwoPlOlcTree) {
  SerialDifferential<OlcTree, TwoPlTxn<OlcTree>>();
}
TEST(TxnSerialTest, TwoPlOptiQlTree) {
  SerialDifferential<OptiQlTree, TwoPlTxn<OptiQlTree>>();
}
TEST(TxnSerialTest, TwoPlMap) {
  SerialDifferential<MapIndex, TwoPlTxn<MapIndex>>();
}
TEST(TxnSerialTest, TwoPlShardedMap) {
  SerialDifferential<ShardedMap, TwoPlTxn<ShardedMap>>();
}

// --- Concurrent conservation ----------------------------------------------

// Bank transfers: every committed transaction moves `amount` from one
// account to another, so the sum over all accounts is invariant iff the
// protocol serializes correctly. Each thread commits exactly `kTransfers`
// transactions (RunTxn retries aborts), so the final stats must balance.
template <class Index, class Txn>
void ConcurrentTransfers(int threads) {
  constexpr uint64_t kAccounts = 64;  // Small: force real contention.
  constexpr uint64_t kInitial = 1000;
  constexpr int kTransfers = 2000;
  Index index;
  for (uint64_t k = 1; k <= kAccounts; ++k) {
    ASSERT_TRUE(IndexInsert(index, k, kInitial));
  }

  std::vector<TxnStats> stats(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&index, &stats, t] {
      std::mt19937_64 rng(0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(t));
      for (int i = 0; i < kTransfers; ++i) {
        const uint64_t from = 1 + rng() % kAccounts;
        uint64_t to = 1 + rng() % kAccounts;
        if (to == from) to = from % kAccounts + 1;
        const uint64_t amount = rng() % 5;
        RunTxn<Txn>(index, stats[static_cast<size_t>(t)], [&](Txn& txn) {
          uint64_t from_balance = 0;
          uint64_t to_balance = 0;
          if (txn.Get(from, from_balance) != TxnResult::kOk) return false;
          if (txn.Get(to, to_balance) != TxnResult::kOk) return false;
          if (from_balance < amount) return true;  // Commit empty.
          if (txn.Put(from, from_balance - amount) != TxnResult::kOk) {
            return false;
          }
          if (txn.Put(to, to_balance + amount) != TxnResult::kOk) {
            return false;
          }
          return true;
        });
      }
    });
  }
  for (auto& worker : workers) worker.join();

  TxnStats total;
  for (const TxnStats& s : stats) total += s;
  EXPECT_EQ(total.commits,
            static_cast<uint64_t>(threads) * static_cast<uint64_t>(kTransfers));
  EXPECT_EQ(total.aborts, total.busy_aborts + total.validation_aborts);

  uint64_t sum = 0;
  for (uint64_t k = 1; k <= kAccounts; ++k) {
    uint64_t balance = 0;
    ASSERT_TRUE(IndexLookup(index, k, balance));
    sum += balance;
  }
  EXPECT_EQ(sum, kAccounts * kInitial);
  IndexCheckInvariants(index);
}

// 2PL Gets take exclusive locks, so a Get can return kAbort; the transfer
// body above handles every access uniformly.

TEST(TxnOccConcurrentTest, OlcTree) {
  ConcurrentTransfers<OlcTree, OccTxn<OlcTree>>(4);
}
TEST(TxnOccConcurrentTest, OptiQlTree) {
  ConcurrentTransfers<OptiQlTree, OccTxn<OptiQlTree>>(4);
}
TEST(TxnOccConcurrentTest, ShardedOptiQlTree) {
  ConcurrentTransfers<ShardedOptiQlTree, OccTxn<ShardedOptiQlTree>>(4);
}

TEST(TxnTwoPlConcurrentTest, OlcTree) {
  ConcurrentTransfers<OlcTree, TwoPlTxn<OlcTree>>(4);
}
TEST(TxnTwoPlConcurrentTest, OptiQlTree) {
  ConcurrentTransfers<OptiQlTree, TwoPlTxn<OptiQlTree>>(4);
}

// --- Abort/retry accounting ------------------------------------------------

// Two threads hammer the same two records in opposite orders: no-wait 2PL
// must abort (never deadlock) and RunTxn must retry each transaction to
// exactly one commit, attributing every abort to a busy lock. MapIndex
// gives each record its own lock, so the two keys are two locks.
TEST(TxnTwoPlConcurrentTest, NoWaitRetriesResolveOpposingOrders) {
  MapIndex index;
  ASSERT_TRUE(index.Insert(1, 0));
  ASSERT_TRUE(index.Insert(2, 0));
  ASSERT_NE(index.TxnLockRank(1), index.TxnLockRank(2));
  constexpr int kRounds = 4000;
  TxnStats stats_a, stats_b;
  std::thread a([&] {
    for (int i = 0; i < kRounds; ++i) {
      RunTxn<TwoPlTxn<MapIndex>>(index, stats_a, [&](auto& txn) {
        uint64_t v = 0;
        if (txn.Get(1, v) != TxnResult::kOk) return false;
        if (txn.Put(2, v + 1) != TxnResult::kOk) return false;
        return true;
      });
    }
  });
  std::thread b([&] {
    for (int i = 0; i < kRounds; ++i) {
      RunTxn<TwoPlTxn<MapIndex>>(index, stats_b, [&](auto& txn) {
        uint64_t v = 0;
        if (txn.Get(2, v) != TxnResult::kOk) return false;
        if (txn.Put(1, v + 1) != TxnResult::kOk) return false;
        return true;
      });
    }
  });
  a.join();
  b.join();
  EXPECT_EQ(stats_a.commits, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(stats_b.commits, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(stats_a.validation_aborts, 0u);
  EXPECT_EQ(stats_b.validation_aborts, 0u);
}

// OCC under heavy read-write overlap on one record: every commit is a
// lost-update hazard that validation must have rejected. The counter ends
// exactly at the number of committed increments.
TEST(TxnOccConcurrentTest, ValidationPreventsLostUpdates) {
  OlcTree index;
  ASSERT_TRUE(index.Insert(7, 0));
  constexpr int kIncrements = 5000;
  constexpr int kThreads = 4;
  std::vector<TxnStats> stats(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&index, &stats, t] {
      for (int i = 0; i < kIncrements; ++i) {
        RunTxn<OccTxn<OlcTree>>(index, stats[static_cast<size_t>(t)],
                                [&](auto& txn) {
                                  uint64_t v = 0;
                                  if (txn.Get(7, v) != TxnResult::kOk) {
                                    return false;
                                  }
                                  return txn.Put(7, v + 1) == TxnResult::kOk;
                                });
      }
    });
  }
  for (auto& worker : workers) worker.join();
  uint64_t final_value = 0;
  ASSERT_TRUE(index.Lookup(7, final_value));
  EXPECT_EQ(final_value,
            static_cast<uint64_t>(kThreads) *
                static_cast<uint64_t>(kIncrements));
}

// --- Sharded store forwarding ----------------------------------------------

TEST(TxnShardedTest, RanksAreShardMajor) {
  ShardedMap store(4);
  for (uint64_t k = 1; k <= 64; ++k) {
    ASSERT_TRUE(store.Insert(k, k));
  }
  for (uint64_t k = 1; k <= 64; ++k) {
    EXPECT_EQ(store.TxnLockRank(k).first, store.ShardIndexOf(k));
  }
}

TEST(TxnShardedTest, CrossShardTransfersConserve) {
  ConcurrentTransfers<ShardedMap, TwoPlTxn<ShardedMap>>(4);
}

}  // namespace
}  // namespace optiql
