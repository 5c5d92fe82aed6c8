// The one uniform operation surface over every index in the repo.
//
// The indexes grew incompatible point-op interfaces: the B+-tree takes
// integer keys directly (Insert/Lookup/...), ART exposes byte-string ops
// plus an *Int convenience suffix (InsertInt/LookupInt/...), and
// capabilities like Scan, BulkLoad, Upsert or NodeCount exist only on
// some of them. Every consumer (harness, trace replay, benches, examples)
// used to roll its own duck-typed shims over that split; this header is now
// the single home for both:
//
//   * capability detection — the Has*Op concepts below; nothing outside
//     this file may re-derive what an index can do, and
//   * the uniform free functions — IndexInsert/IndexUpdate/IndexLookup/
//     IndexRemove/IndexUpsert/IndexScan — which dispatch to whichever
//     spelling the index provides.
//
// Anything satisfying IndexLike (including composites such as
// ShardedStore, which itself routes through these functions) runs through
// the whole harness / replay / bench stack unchanged.
#ifndef OPTIQL_INDEX_INDEX_OPS_H_
#define OPTIQL_INDEX_INDEX_OPS_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sync/epoch.h"
#include "sync/txn_ops.h"

namespace optiql {

// --- Capability detection (defined HERE and nowhere else) ------------------

// Native integer point ops: B+-tree, sharded store.
template <class Index>
concept HasNativeIntOps =
    requires(Index t, const Index c, uint64_t k, uint64_t v, uint64_t& out) {
      { t.Insert(k, v) } -> std::same_as<bool>;
      { t.Update(k, v) } -> std::same_as<bool>;
      { c.Lookup(k, out) } -> std::same_as<bool>;
      { t.Remove(k) } -> std::same_as<bool>;
    };

// ART-style integer convenience suffix over a byte-string core.
template <class Index>
concept HasIntSuffixOps =
    requires(Index t, const Index c, uint64_t k, uint64_t v, uint64_t& out) {
      { t.InsertInt(k, v) } -> std::same_as<bool>;
      { t.UpdateInt(k, v) } -> std::same_as<bool>;
      { c.LookupInt(k, out) } -> std::same_as<bool>;
      { t.RemoveInt(k) } -> std::same_as<bool>;
    };

// Anything the harness, trace replay and benches can drive.
template <class Index>
concept IndexLike = HasNativeIntOps<Index> || HasIntSuffixOps<Index>;

// Ascending range scan (B+-tree, sharded store; ART has none).
template <class Index>
concept HasScanOp =
    requires(const Index t, uint64_t k, size_t n,
             std::vector<std::pair<uint64_t, uint64_t>>& out) {
      { t.Scan(k, n, out) } -> std::same_as<size_t>;
    };

// Native insert-or-update (B+-tree, sharded store).
template <class Index>
concept HasUpsertOp = requires(Index t, uint64_t k, uint64_t v) {
  t.Upsert(k, v);
};

// Sorted bottom-up bulk load into an empty index.
template <class Index>
concept HasBulkLoadOp =
    requires(Index t, const std::vector<std::pair<uint64_t, uint64_t>>& p) {
      t.BulkLoad(p);
    };

// Live structural node count (steady-state churn reporting).
template <class Index>
concept HasNodeCountOp = requires(const Index t) {
  { t.NodeCount() } -> std::convertible_to<size_t>;
};

// Single-threaded structural self-check.
template <class Index>
concept HasCheckInvariantsOp = requires(const Index t) {
  t.CheckInvariants();
};

// Versioned key routing (the sharded store's epoch-published routing
// table). Even versions are steady state; odd versions mean a shard
// migration window is open. The txn layer snapshots this at begin and
// aborts at commit on any change (or an open window), because transactions
// resolve keys to record locks through the table and a moved span would
// silently split a transaction across two record homes.
template <class Index>
concept HasRoutingVersionOp = requires(const Index t) {
  { t.RoutingVersion() } -> std::convertible_to<uint64_t>;
};

// --- Transaction-host capabilities -----------------------------------------
//
// An index is a transaction host when it exposes its record-guarding locks
// to the protocols in src/txn/ through the TxnOps<TxnLock> contract:
// TxnLockRank orders commit-time acquisition, TxnWriteGuard is the
// exclusive record hold, and TxnLockForWrite / TxnTryLockForWrite (template
// members, checked at use) resolve a key to a locked record.

template <class Index>
concept TxnHostIndex = requires(const Index c, uint64_t k) {
  typename Index::TxnLock;
  typename Index::TxnWriteGuard;
  { c.TxnLockRank(k) } -> std::same_as<std::pair<uint64_t, uint64_t>>;
};

// Versioned host: records carry a validatable version word, so OCC can
// run its execution phase lock-free (TxnRead) and validate at commit
// against the same words the single-key operations use.
template <class Index>
concept TxnVersionedHost =
    TxnHostIndex<Index> && VersionedLock<typename Index::TxnLock> &&
    requires(const Index c, uint64_t k, typename Index::TxnReadResult& r) {
      c.TxnRead(k, r);
    };

// --- Uniform point operations ----------------------------------------------
//
// Dispatch prefers the *Int suffix when both spellings exist (ART's
// byte-string ops would otherwise reject an integer key outright).

template <IndexLike Index>
bool IndexInsert(Index& index, uint64_t key, uint64_t value) {
  if constexpr (HasIntSuffixOps<Index>) {
    return index.InsertInt(key, value);
  } else {
    return index.Insert(key, value);
  }
}

template <IndexLike Index>
bool IndexUpdate(Index& index, uint64_t key, uint64_t value) {
  if constexpr (HasIntSuffixOps<Index>) {
    return index.UpdateInt(key, value);
  } else {
    return index.Update(key, value);
  }
}

template <IndexLike Index>
bool IndexLookup(const Index& index, uint64_t key, uint64_t& out) {
  if constexpr (HasIntSuffixOps<Index>) {
    return index.LookupInt(key, out);
  } else {
    return index.Lookup(key, out);
  }
}

template <IndexLike Index>
bool IndexRemove(Index& index, uint64_t key) {
  if constexpr (HasIntSuffixOps<Index>) {
    return index.RemoveInt(key);
  } else {
    return index.Remove(key);
  }
}

// Insert-or-update. Indexes without a native Upsert get an update-then-
// insert loop: under concurrency either arm can lose its race (the key
// appears between the failed update and the insert, or vice versa), but
// one arm must eventually win.
template <IndexLike Index>
void IndexUpsert(Index& index, uint64_t key, uint64_t value) {
  if constexpr (HasUpsertOp<Index>) {
    index.Upsert(key, value);
  } else {
    while (!IndexUpdate(index, key, value)) {
      if (IndexInsert(index, key, value)) return;
    }
  }
}

// Ascending range scan from `start` (inclusive), up to `limit` pairs.
// Only defined for scan-capable indexes; callers that want a degraded
// point-probe fallback branch on HasScanOp themselves (trace replay turns
// scans into lookups for ART, reporting zero scanned pairs).
template <IndexLike Index>
  requires HasScanOp<Index>
size_t IndexScan(const Index& index, uint64_t start, size_t limit,
                 std::vector<std::pair<uint64_t, uint64_t>>& out) {
  return index.Scan(start, limit, out);
}

// Structural self-check; no-op for indexes without one so generic tests
// can sprinkle it unconditionally.
template <IndexLike Index>
void IndexCheckInvariants(const Index& index) {
  if constexpr (HasCheckInvariantsOp<Index>) {
    index.CheckInvariants();
  }
}

// --- Batched operations ------------------------------------------------------
//
// Span-of-ops in, span-of-results out. The contract, for every dispatch arm:
//
//   * results are identical to executing the ops one at a time, in batch
//     order — duplicates inside one batch behave like sequential execution;
//   * `found[i]` / `ok[i]` is written for every i; `values[i]` is written
//     only where `found[i]` is true;
//   * the whole batch runs under one amortized EpochGuard (Enter/Exit is
//     re-entrant, so indexes that open their own per-op guard nest freely).
//
// Indexes with a native batch entry point (interleaved multi-descent in the
// B+-tree and ART, one routed lane ring in ShardedStore) are detected below;
// everything else — including the reader-writer-locked variants — gets the
// guard + loop fallback, so all index types keep working.

// Native batched point lookup (integer keys directly).
template <class Index>
concept HasLookupBatchOp =
    requires(const Index c, const uint64_t* k, size_t n, uint64_t* v,
             bool* f) {
      { c.LookupBatch(k, n, v, f) } -> std::same_as<size_t>;
    };

// ART-style Int suffix for the batched lookup over a byte-string core.
template <class Index>
concept HasLookupBatchIntOp =
    requires(const Index c, const uint64_t* k, size_t n, uint64_t* v,
             bool* f) {
      { c.LookupBatchInt(k, n, v, f) } -> std::same_as<size_t>;
    };

// Routed batched point lookup: one static lane ring over many trees of one
// type, each key looked up in the tree `tree_of` returns for it (the
// versioned B+-trees; ShardedStore's LookupBatch runs on it).
template <class Index>
concept HasRoutedLookupBatchOp =
    requires(const uint64_t* k, size_t n, uint64_t* v, bool* f,
             const Index* (*tree_of)(uint64_t)) {
      {
        Index::LookupBatchRouted(k, n, v, f, tree_of)
      } -> std::same_as<size_t>;
    };

// Native batched insert: ok[i] = "key i was absent and is now present".
template <class Index>
concept HasInsertBatchOp =
    requires(Index t, const uint64_t* k, const uint64_t* v, size_t n,
             bool* ok) {
      { t.InsertBatch(k, v, n, ok) } -> std::same_as<size_t>;
    };

// Native batched insert-or-update.
template <class Index>
concept HasUpsertBatchOp =
    requires(Index t, const uint64_t* k, const uint64_t* v, size_t n) {
      t.UpsertBatch(k, v, n);
    };

// Batched point lookup; returns the number of hits.
template <IndexLike Index>
size_t IndexLookupBatch(const Index& index, const uint64_t* keys, size_t n,
                        uint64_t* values, bool* found) {
  if constexpr (HasLookupBatchIntOp<Index>) {
    return index.LookupBatchInt(keys, n, values, found);
  } else if constexpr (HasLookupBatchOp<Index>) {
    return index.LookupBatch(keys, n, values, found);
  } else {
    EpochGuard guard;
    size_t hits = 0;
    for (size_t i = 0; i < n; ++i) {
      found[i] = IndexLookup(index, keys[i], values[i]);
      if (found[i]) ++hits;
    }
    return hits;
  }
}

// Batched insert; returns the number of keys actually inserted.
template <IndexLike Index>
size_t IndexInsertBatch(Index& index, const uint64_t* keys,
                        const uint64_t* values, size_t n, bool* ok) {
  if constexpr (HasInsertBatchOp<Index>) {
    return index.InsertBatch(keys, values, n, ok);
  } else {
    EpochGuard guard;
    size_t applied = 0;
    for (size_t i = 0; i < n; ++i) {
      ok[i] = IndexInsert(index, keys[i], values[i]);
      if (ok[i]) ++applied;
    }
    return applied;
  }
}

// Batched insert-or-update; duplicates in one batch resolve to the last
// occurrence's value, exactly as sequential upserts would.
template <IndexLike Index>
void IndexUpsertBatch(Index& index, const uint64_t* keys,
                      const uint64_t* values, size_t n) {
  if constexpr (HasUpsertBatchOp<Index>) {
    index.UpsertBatch(keys, values, n);
  } else {
    EpochGuard guard;
    for (size_t i = 0; i < n; ++i) {
      IndexUpsert(index, keys[i], values[i]);
    }
  }
}

}  // namespace optiql

#endif  // OPTIQL_INDEX_INDEX_OPS_H_
