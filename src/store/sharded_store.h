// Sharded composition of index instances: the partitioned regime the
// production north star needs, where per-partition contention (and thus
// lock robustness, §7.3's collapse curves) is decided by key routing.
//
// ShardedStore<Index, Router> owns independent shards of any IndexLike
// index and routes every op through a VERSIONED ROUTING TABLE
// (store/routing.h) published behind one std::atomic pointer. Every public
// op opens an EpochGuard, loads the table once, and uses that snapshot for
// the whole op; replaced tables retire through the epoch layer, so the
// table can be swapped under load without stopping readers.
//
// Two router policies:
//   HashShardRouter  — fixed shard count, full-avalanche Mix64 routing
//                      (adjacent hot keys land on different shards, which
//                      is exactly what breaks the B+-tree's hot-leaf
//                      convoys under skew). Scans are scatter-gather with
//                      a k-way merge: any shard may hold any range.
//   RangeShardRouter — contiguous key spans, one shard per span. Scans
//                      walk only the spans the range intersects, in key
//                      order (segments concatenate; no k-way merge), and
//                      the store supports ONLINE resharding: Split(k)
//                      carves [k, span_end) out of its span into a fresh
//                      shard, Merge(k) dissolves the span starting at k
//                      into its left neighbor — both while the full op mix
//                      keeps running, with zero lost or duplicated keys.
//
// Online migration protocol (DESIGN.md §14): a migration window opens with
// an odd-versioned table that routes the moving span through a
// ShardMigration — writes double-apply (source authoritative, target
// mirrored) under a shared gate, reads prefer the target below the copy
// watermark; the copier moves the span chunk-by-chunk under the exclusive
// gate, then an even-versioned steady table closes the window. Epoch
// Synchronize() grace periods bracket the window so no straggler ever
// writes single-routed while the copier runs, and the source's moved range
// is deleted only after no reader can still be routed to it.
//
// Epoch integration: there is ONE epoch domain (the process-wide
// EpochManager) shared by all shards. Enter/Exit are re-entrant, so the
// shard's own guard nests for free and a multi-shard scan pays one epoch
// transition instead of N. Every dispatch into a shard opens a
// RetireBucketScope tagged with the shard slot, so one shard's retirement
// burst (e.g. the migration's bulk upserts) stays in its own bucket and
// never stalls reclamation for the others.
//
// Because ShardedStore itself satisfies the IndexOps surface
// (index/index_ops.h), it runs through the entire existing harness, trace
// replay, and bench stack unchanged.
#ifndef OPTIQL_STORE_SHARDED_STORE_H_
#define OPTIQL_STORE_SHARDED_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "index/index_ops.h"
#include "store/routing.h"
#include "sync/epoch.h"

namespace optiql {

namespace internal {

// Conditionally inherited transaction-host typedefs: only a store over a
// transaction-hosting shard type re-exports the shard's hook types (an
// unconditional member alias would break instantiation for plain shards).
template <class Index, bool = TxnHostIndex<Index>>
struct ShardTxnTypes {};

template <class Index>
struct ShardTxnTypes<Index, true> {
  using TxnLock = typename Index::TxnLock;
  using TxnWriteGuard = typename Index::TxnWriteGuard;
};

template <class Index, bool = TxnVersionedHost<Index>>
struct ShardTxnReadTypes {};

template <class Index>
struct ShardTxnReadTypes<Index, true> {
  using TxnReadResult = typename Index::TxnReadResult;
};

}  // namespace internal

template <class Index, class Router = HashShardRouter>
  requires IndexLike<Index>
class ShardedStore : public internal::ShardTxnTypes<Index>,
                     public internal::ShardTxnReadTypes<Index> {
 public:
  using Table = typename Router::Table;

  static constexpr size_t kDefaultShards = 8;
  // Whether the routing table orders keys into spans — which is also what
  // makes online split/merge possible.
  static constexpr bool kElastic = Table::kOrderedSpans;
  // Keys copied per exclusive-gate chunk during a migration; small enough
  // that span writers blocked on the gate wait microseconds, large enough
  // to amortize the lock handoffs.
  static constexpr size_t kMigrateChunk = 256;

  explicit ShardedStore(size_t shards = kDefaultShards,
                        Router router = Router())
      : router_(std::move(router)), slots_(SlotCapacity(shards)) {
    OPTIQL_CHECK(shards >= 1 && shards <= slots_.size());
    for (size_t i = 0; i < shards; ++i) {
      slots_[i].store(new Index(), std::memory_order_relaxed);
    }
    slot_limit_.store(static_cast<uint32_t>(shards),
                      std::memory_order_relaxed);
    table_.store(new Table(router_.MakeInitialTable(shards)),
                 std::memory_order_release);
  }

  ~ShardedStore() {
    delete table_.load(std::memory_order_relaxed);
    for (auto& slot : slots_) {
      delete slot.load(std::memory_order_relaxed);
    }
  }

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  // --- Uniform point ops (the IndexOps surface) ---
  //
  // Each op pins the current table for its duration (the guard keeps a
  // replaced table alive) and routes through it. Writes that land in a
  // migration window double-apply: the SOURCE shard is authoritative for
  // the op's outcome, and the decided mutation is mirrored into the
  // target, both under the migration gate held shared — which makes the
  // pair atomic against the copier's exclusive-gate chunks (without it, a
  // chunk copy could resurrect a concurrently removed key in the target).

  bool Insert(uint64_t key, uint64_t value) {
    EpochGuard guard;
    const Table* t = table();
    const KeyRoute r = t->Route(key);
    if (!r.DoubleApply()) {
      RetireBucketScope tag(RetireTag(r.write));
      return IndexInsert(SlotAt(r.write), key, value);
    }
    return DoubleApplyWrite(t, key, r, [&](Index& shard, bool primary) {
      if (primary) return IndexInsert(shard, key, value);
      IndexUpsert(shard, key, value);
      return true;
    });
  }

  bool Update(uint64_t key, uint64_t value) {
    EpochGuard guard;
    const Table* t = table();
    const KeyRoute r = t->Route(key);
    if (!r.DoubleApply()) {
      RetireBucketScope tag(RetireTag(r.write));
      return IndexUpdate(SlotAt(r.write), key, value);
    }
    return DoubleApplyWrite(t, key, r, [&](Index& shard, bool primary) {
      if (primary) return IndexUpdate(shard, key, value);
      IndexUpsert(shard, key, value);
      return true;
    });
  }

  bool Lookup(uint64_t key, uint64_t& out) const {
    EpochGuard guard;
    const KeyRoute r = table()->Route(key);
    RetireBucketScope tag(RetireTag(r.read));
    return IndexLookup(SlotAt(r.read), key, out);
  }

  bool Remove(uint64_t key) {
    EpochGuard guard;
    const Table* t = table();
    const KeyRoute r = t->Route(key);
    if (!r.DoubleApply()) {
      RetireBucketScope tag(RetireTag(r.write));
      return IndexRemove(SlotAt(r.write), key);
    }
    return DoubleApplyWrite(t, key, r, [&](Index& shard, bool primary) {
      (void)primary;
      return IndexRemove(shard, key);
    });
  }

  void Upsert(uint64_t key, uint64_t value) {
    EpochGuard guard;
    const Table* t = table();
    const KeyRoute r = t->Route(key);
    if (!r.DoubleApply()) {
      RetireBucketScope tag(RetireTag(r.write));
      IndexUpsert(SlotAt(r.write), key, value);
      return;
    }
    DoubleApplyWrite(t, key, r, [&](Index& shard, bool primary) {
      (void)primary;
      IndexUpsert(shard, key, value);
      return true;
    });
  }

  // --- Batched ops ---
  //
  // Each batch pins the table once under one amortized EpochGuard.
  // Lookups are one interleaved descent across shards: the shard type's
  // routed lane ring (HasRoutedLookupBatchOp) routes each key once, by its
  // read route, as a lane takes it, and writes results straight to caller
  // positions; other shard types loop over routed point lookups. Writes
  // are partitioned per shard by WriteBatch.

  size_t LookupBatch(const uint64_t* keys, size_t n, uint64_t* values,
                     bool* found) const {
    EpochGuard guard;
    const Table* t = table();
    const auto shard_of = [&](uint64_t key) -> const Index* {
      return &SlotAt(t->Route(key).read);
    };
    if constexpr (HasRoutedLookupBatchOp<Index>) {
      return Index::LookupBatchRouted(keys, n, values, found, shard_of);
    } else {
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) {
        found[i] = IndexLookup(*shard_of(keys[i]), keys[i], values[i]);
        if (found[i]) ++hits;
      }
      return hits;
    }
  }

  size_t InsertBatch(const uint64_t* keys, const uint64_t* values, size_t n,
                     bool* ok) {
    return WriteBatch(
        keys, values, n, ok,
        [](Index& shard, const uint64_t* k, const uint64_t* v, size_t m,
           bool* shard_ok) {
          return IndexInsertBatch(shard, k, v, m, shard_ok);
        },
        [this](uint64_t k, uint64_t v) { return Insert(k, v); });
  }

  void UpsertBatch(const uint64_t* keys, const uint64_t* values, size_t n) {
    WriteBatch(
        keys, values, n, /*ok=*/nullptr,
        [](Index& shard, const uint64_t* k, const uint64_t* v, size_t m,
           bool*) {
          IndexUpsertBatch(shard, k, v, m);
          return m;
        },
        [this](uint64_t k, uint64_t v) {
          Upsert(k, v);
          return true;
        });
  }

  // --- Range scan ---
  //
  // Range routing walks spans in key order and concatenates their
  // segments — a scan contained in one span touches exactly one shard.
  // Inside a migration window the moving span contributes two segments
  // (copied prefix from the target, remainder from the source), still in
  // key order. Hash routing scatter-gathers: every shard contributes its
  // first `limit` pairs >= start and a k-way merge keeps the globally
  // smallest `limit`. Like the underlying tree scans, the result is not an
  // atomic snapshot across shards (each segment is internally consistent).

  size_t Scan(uint64_t start, size_t limit,
              std::vector<std::pair<uint64_t, uint64_t>>& out) const
    requires HasScanOp<Index>
  {
    out.clear();
    if (limit == 0) return 0;
    EpochGuard guard;
    const Table* t = table();
    if constexpr (Table::kOrderedSpans) {
      return ScanOrdered(t, start, limit, out);
    } else {
      return ScanScatterGather(t, start, limit, out);
    }
  }

  // --- Bulk load (sorted, unique pairs into an EMPTY store) ---
  //
  // Not thread-safe, mirroring the per-index contract (and must not
  // overlap a migration). Partitioning a sorted input preserves sort order
  // within each shard, so shards with a native bulk load keep their packed
  // bottom-up build.
  void BulkLoad(const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
    EpochGuard guard;
    const Table* t = table();
    const size_t buckets = SlotLimit();
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> parts(buckets);
    for (auto& part : parts) part.reserve(pairs.size() / buckets + 1);
    for (const auto& pair : pairs) {
      parts[t->Route(pair.first).write].push_back(pair);
    }
    for (size_t s = 0; s < buckets; ++s) {
      if (parts[s].empty()) continue;
      Index& shard = SlotAt(static_cast<uint32_t>(s));
      RetireBucketScope tag(RetireTag(static_cast<uint32_t>(s)));
      if constexpr (HasBulkLoadOp<Index>) {
        shard.BulkLoad(parts[s]);
      } else {
        for (const auto& pair : parts[s]) {
          OPTIQL_CHECK(IndexInsert(shard, pair.first, pair.second));
        }
      }
    }
  }

  // --- Online resharding (range router only) ---
  //
  // Both are synchronous: they return once the new steady table is
  // published AND the source's moved range is cleaned, so Size() is exact
  // again on return. Concurrent point ops, batches, and scans keep running
  // throughout (the storm tests hammer exactly this).
  //
  // PRECONDITION: the calling thread must NOT hold an EpochGuard — the
  // internal Synchronize() grace periods would wait on the caller's own
  // guard forever. Calls made under a guard return false instead of
  // aborting. Also note Synchronize() waits for every open guard to close:
  // a long-running transaction (which holds a guard for its lifetime)
  // delays Split/Merge until it finishes — resharding never blocks the
  // workload, but a stalled transaction blocks resharding.

  // Carves [split_key, span_end) out of the span containing split_key into
  // a freshly allocated shard. Returns false if split_key already is a
  // span boundary (nothing to split), the slot table is full, or the
  // caller holds an EpochGuard.
  bool Split(uint64_t split_key)
    requires(kElastic && HasScanOp<Index>)
  {
    if (EpochManager::Instance().GuardDepth() != 0) return false;
    std::lock_guard<std::mutex> admin(admin_mu_);
    std::vector<typename Table::Span> spans;
    uint64_t version = 0;
    size_t span_i = 0;
    uint64_t span_last = 0;
    {
      EpochGuard guard;
      const Table* cur = table();
      span_i = cur->SpanIndexOf(split_key);
      spans = cur->spans();
      version = cur->version();
      span_last = cur->SpanLast(span_i);
    }
    if (spans[span_i].begin == split_key) return false;
    const uint32_t source = spans[span_i].shard;
    const int64_t fresh = AllocateSlot();
    if (fresh < 0) return false;
    const uint32_t target = static_cast<uint32_t>(fresh);
    slots_[target].store(new Index(), std::memory_order_release);

    auto migration = std::make_shared<ShardMigration>(split_key, span_last,
                                                      source, target);
    // Window open (odd version): spans unchanged, writes double-route.
    PublishTable(new Table(spans, version + 1, migration));
    // Grace period: after this, no op routes the span without seeing the
    // window — a pre-window writer racing the copier could otherwise slip
    // a single-routed write under a copied chunk.
    EpochManager::Instance().Synchronize();
    MigrateSpan(*migration);
    // Window closed (even version): the boundary exists, target owns the
    // upper span.
    spans.insert(spans.begin() + static_cast<ptrdiff_t>(span_i) + 1,
                 typename Table::Span{split_key, target});
    PublishTable(new Table(std::move(spans), version + 2));
    // Second grace period: once no straggler can read (or mirror into)
    // the source's moved range, delete it from the source.
    EpochManager::Instance().Synchronize();
    CleanupSourceRange(source, split_key, span_last);
    return true;
  }

  // Dissolves the span that BEGINS at boundary_key into its left
  // neighbor's shard and frees the dissolved shard's slot. Returns false
  // if boundary_key is not an interior span boundary or the caller holds
  // an EpochGuard. Inverse of Split.
  bool Merge(uint64_t boundary_key)
    requires(kElastic && HasScanOp<Index>)
  {
    if (EpochManager::Instance().GuardDepth() != 0) return false;
    std::lock_guard<std::mutex> admin(admin_mu_);
    std::vector<typename Table::Span> spans;
    uint64_t version = 0;
    size_t span_i = 0;
    uint64_t span_last = 0;
    {
      EpochGuard guard;
      const Table* cur = table();
      span_i = cur->SpanIndexOf(boundary_key);
      spans = cur->spans();
      version = cur->version();
      span_last = cur->SpanLast(span_i);
    }
    if (span_i == 0 || spans[span_i].begin != boundary_key) return false;
    const uint32_t source = spans[span_i].shard;      // Dissolving shard.
    const uint32_t target = spans[span_i - 1].shard;  // Absorbs the span.

    auto migration = std::make_shared<ShardMigration>(boundary_key, span_last,
                                                      source, target);
    PublishTable(new Table(spans, version + 1, migration));
    EpochManager::Instance().Synchronize();
    MigrateSpan(*migration);
    spans.erase(spans.begin() + static_cast<ptrdiff_t>(span_i));
    PublishTable(new Table(std::move(spans), version + 2));
    EpochManager::Instance().Synchronize();
    // The dissolved shard's entire content has moved; retire the whole
    // index through the epoch layer (a concurrent Size()/NodeCount() pass
    // may still hold the pointer it loaded under its guard).
    Index* dead = slots_[source].exchange(nullptr, std::memory_order_acq_rel);
    {
      EpochGuard guard;
      RetireBucketScope tag(RetireTag(source));
      EpochManager::Instance().Retire(dead);
    }
    return true;
  }

  // --- Introspection / diagnostics ---

  // Exact in steady state. During a migration window the moving span's
  // copied prefix is counted in both shards (the window trades exact
  // global counts for never stopping the world); Split/Merge return only
  // after the count is exact again.
  size_t Size() const {
    EpochGuard guard;
    size_t total = 0;
    const uint32_t limit = SlotLimit();
    for (uint32_t i = 0; i < limit; ++i) {
      if (const Index* shard = slots_[i].load(std::memory_order_acquire)) {
        total += shard->Size();
      }
    }
    return total;
  }

  size_t ShardCount() const {
    EpochGuard guard;
    return table()->shard_count();
  }

  // Monotone table version; bumped to odd when a migration window opens
  // and back to even when it closes. The txn layer snapshots this and
  // aborts on change (index_ops.h HasRoutingVersionOp).
  uint64_t RoutingVersion() const {
    EpochGuard guard;
    return table()->version();
  }

  // Shard slot an op on `key` would authoritatively write to (tests,
  // affinity diagnostics; for the hash router this is Mix64(key) % shards,
  // matching key-partitioned trace replay).
  size_t ShardIndexOf(uint64_t key) const {
    EpochGuard guard;
    return table()->Route(key).write;
  }

  Index& ShardAt(size_t i) { return SlotAt(static_cast<uint32_t>(i)); }
  const Index& ShardAt(size_t i) const {
    return SlotAt(static_cast<uint32_t>(i));
  }

  // Elastic-only view of the span layout (diagnostics/REPL; sizes are
  // approximate inside a migration window).
  struct SpanInfo {
    uint64_t begin;
    uint64_t last;  // Inclusive.
    uint32_t shard;
    size_t size;
  };
  std::vector<SpanInfo> SpanSnapshot() const
    requires(kElastic)
  {
    EpochGuard guard;
    const Table* t = table();
    std::vector<SpanInfo> result;
    result.reserve(t->spans().size());
    for (size_t i = 0; i < t->spans().size(); ++i) {
      const auto& span = t->spans()[i];
      result.push_back(SpanInfo{span.begin, t->SpanLast(i), span.shard,
                                SlotAt(span.shard).Size()});
    }
    return result;
  }

  size_t NodeCount() const
    requires HasNodeCountOp<Index>
  {
    EpochGuard guard;
    size_t total = 0;
    const uint32_t limit = SlotLimit();
    for (uint32_t i = 0; i < limit; ++i) {
      if (const Index* shard = slots_[i].load(std::memory_order_acquire)) {
        total += shard->NodeCount();
      }
    }
    return total;
  }

  void CheckInvariants() const
    requires HasCheckInvariantsOp<Index>
  {
    EpochGuard guard;
    const uint32_t limit = SlotLimit();
    for (uint32_t i = 0; i < limit; ++i) {
      if (const Index* shard = slots_[i].load(std::memory_order_acquire)) {
        shard->CheckInvariants();
      }
    }
  }

  // --- Transaction-layer hooks: route to the owning shard ---
  //
  // The store is itself a transaction host whenever its shards are; every
  // hook forwards to the key's authoritative shard under the CURRENT
  // table. No extra EpochGuard here — the transaction holds one for its
  // whole lifetime. Transactions do NOT participate in the double-routing
  // window (their writes install through locked records, not the store's
  // op surface); instead they snapshot RoutingVersion() at begin and abort
  // on any change — and on an odd (window-open) version — at commit, so a
  // migration turns overlapping transactions into clean retries.

  // The hook types come in through a defaulted function-level parameter
  // (I = Index) so the signatures only require them on a transaction-
  // hosting shard type, not at every store instantiation.

  template <class I = Index>
    requires TxnVersionedHost<I>
  void TxnRead(uint64_t key, typename I::TxnReadResult& out) const {
    ShardFor(key).TxnRead(key, out);
  }

  template <class HeldContains, class I = Index>
    requires TxnHostIndex<I>
  TxnLockStatus TxnLockForWrite(uint64_t key, int slot,
                                const HeldContains& already_held,
                                typename I::TxnWriteGuard& guard) {
    return ShardFor(key).TxnLockForWrite(key, slot, already_held, guard);
  }

  template <class HeldContains, class I = Index>
    requires TxnHostIndex<I>
  TxnLockStatus TxnTryLockForWrite(uint64_t key, int slot,
                                   const HeldContains& already_held,
                                   typename I::TxnWriteGuard& guard) {
    return ShardFor(key).TxnTryLockForWrite(key, slot, already_held, guard);
  }

  // Ranks order by shard first, then by the shard's own rank, so the
  // cross-shard acquisition order every transaction uses is consistent.
  std::pair<uint64_t, uint64_t> TxnLockRank(uint64_t key) const
    requires TxnHostIndex<Index>
  {
    return {ShardIndexOf(key), ShardFor(key).TxnLockRank(key).first};
  }

 private:
  static size_t SlotCapacity(size_t shards) {
    // Elastic stores leave headroom for splits; hash stores never change.
    return kElastic ? std::max<size_t>(shards * 4, 64) : shards;
  }

  static uint32_t RetireTag(uint32_t slot) { return slot + 1; }

  const Table* table() const {
    return table_.load(std::memory_order_acquire);
  }

  uint32_t SlotLimit() const {
    return slot_limit_.load(std::memory_order_acquire);
  }

  Index& SlotAt(uint32_t slot) const {
    Index* shard = slots_[slot].load(std::memory_order_acquire);
    OPTIQL_CHECK(shard != nullptr);
    return *shard;
  }

  // Applies one write inside a migration window: authoritative op on the
  // source first (its return value is the op's result), mirror on the
  // target only when the source accepted it — all under the shared gate,
  // so the pair is atomic against exclusive-gate chunk copies.
  template <class Apply>
  bool DoubleApplyWrite(const Table* t, uint64_t key, const KeyRoute& r,
                        Apply&& apply) {
    (void)key;
    if constexpr (Table::kOrderedSpans) {
      const ShardMigration& m = *t->migration();
      std::shared_lock<std::shared_mutex> gate(m.gate);
      bool ok;
      {
        RetireBucketScope tag(RetireTag(r.write));
        ok = apply(SlotAt(r.write), /*primary=*/true);
      }
      if (ok) {
        const uint32_t mirror = static_cast<uint32_t>(r.co_write);
        RetireBucketScope tag(RetireTag(mirror));
        apply(SlotAt(mirror), /*primary=*/false);
      }
      return ok;
    } else {
      OPTIQL_CHECK(false);  // Hash routes never double-apply.
      return false;
    }
  }

  // Span-ordered scan: concatenate per-span segments in key order; each
  // segment clips to [cur, seg_last] so a shard that (during a window)
  // also holds keys past its segment never leaks them into the result.
  size_t ScanOrdered(const Table* t, uint64_t start, size_t limit,
                     std::vector<std::pair<uint64_t, uint64_t>>& out) const
    requires HasScanOp<Index> && (Table::kOrderedSpans)
  {
    std::vector<std::pair<uint64_t, uint64_t>> buf;
    uint64_t cur = start;
    while (out.size() < limit) {
      const size_t span_i = t->SpanIndexOf(cur);
      const uint64_t span_last = t->SpanLast(span_i);
      uint32_t shard = t->spans()[span_i].shard;
      uint64_t seg_last = span_last;
      const ShardMigration* m = t->migration().get();
      if (m != nullptr && m->Covers(cur)) {
        if (m->Moved(cur)) {
          // Copied prefix: read from the target up to the watermark.
          shard = m->target;
          if (!m->all_moved.load(std::memory_order_acquire)) {
            const uint64_t wm = m->watermark.load(std::memory_order_acquire);
            seg_last = std::min(span_last, wm - 1);
          }
        } else {
          // Uncopied remainder: the source still holds everything.
          shard = m->source;
        }
      }
      buf.clear();
      {
        RetireBucketScope tag(RetireTag(shard));
        SlotAt(shard).Scan(cur, limit - out.size(), buf);
      }
      for (const auto& pair : buf) {
        if (pair.first > seg_last) break;
        out.push_back(pair);
        if (out.size() == limit) break;
      }
      if (out.size() >= limit || seg_last == UINT64_MAX) break;
      cur = seg_last + 1;
    }
    return out.size();
  }

  size_t ScanScatterGather(
      const Table* t, uint64_t start, size_t limit,
      std::vector<std::pair<uint64_t, uint64_t>>& out) const
    requires HasScanOp<Index>
  {
    const size_t shards = t->shard_count();
    if (shards == 1) {
      RetireBucketScope tag(RetireTag(0));
      return SlotAt(0).Scan(start, limit, out);
    }
    // Each shard holds an unknown interleaving of the range, so every
    // shard must contribute its first `limit` pairs >= start; the merge
    // then keeps the globally smallest `limit` of the union.
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> partials(shards);
    for (size_t s = 0; s < shards; ++s) {
      RetireBucketScope tag(RetireTag(static_cast<uint32_t>(s)));
      SlotAt(static_cast<uint32_t>(s)).Scan(start, limit, partials[s]);
    }
    // K-way merge over per-shard cursors via a min-heap on the head key.
    struct Cursor {
      size_t shard;
      size_t pos;
    };
    const auto later = [&partials](const Cursor& a, const Cursor& b) {
      return partials[a.shard][a.pos].first > partials[b.shard][b.pos].first;
    };
    std::vector<Cursor> heap;
    heap.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      if (!partials[s].empty()) heap.push_back(Cursor{s, 0});
    }
    std::make_heap(heap.begin(), heap.end(), later);
    while (!heap.empty() && out.size() < limit) {
      std::pop_heap(heap.begin(), heap.end(), later);
      Cursor cursor = heap.back();
      heap.pop_back();
      out.push_back(partials[cursor.shard][cursor.pos]);
      if (++cursor.pos < partials[cursor.shard].size()) {
        heap.push_back(cursor);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    return out.size();
  }

  // --- Migration internals (range router only) ---

  // Swaps the published table and retires the old snapshot through the
  // epoch layer (readers pinned on it keep it alive until their guard
  // closes).
  void PublishTable(const Table* next) {
    const Table* old = table_.exchange(next, std::memory_order_acq_rel);
    EpochGuard guard;
    EpochManager::Instance().Retire(const_cast<Table*>(old));
  }

  // First free slot, bumping the allocation high-watermark. Caller holds
  // admin_mu_.
  int64_t AllocateSlot() {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].load(std::memory_order_acquire) == nullptr) {
        const uint32_t limit = slot_limit_.load(std::memory_order_relaxed);
        if (i >= limit) {
          slot_limit_.store(static_cast<uint32_t>(i) + 1,
                            std::memory_order_release);
        }
        return static_cast<int64_t>(i);
      }
    }
    return -1;
  }

  // Copies the migrating span source -> target, chunk by chunk under the
  // exclusive gate, advancing the watermark as each chunk lands. The scan
  // clips to the span: a source shard legitimately holds keys outside it.
  void MigrateSpan(ShardMigration& m)
    requires(kElastic && HasScanOp<Index>)
  {
    std::vector<std::pair<uint64_t, uint64_t>> buf;
    uint64_t cur = m.begin;
    for (;;) {
      bool done = false;
      uint64_t next = 0;
      {
        std::unique_lock<std::shared_mutex> gate(m.gate);
        EpochGuard guard;
        buf.clear();
        {
          RetireBucketScope tag(RetireTag(m.source));
          SlotAt(m.source).Scan(cur, kMigrateChunk, buf);
        }
        size_t used = 0;
        for (const auto& pair : buf) {
          if (pair.first > m.last) {
            done = true;
            break;
          }
          RetireBucketScope tag(RetireTag(m.target));
          IndexUpsert(SlotAt(m.target), pair.first, pair.second);
          ++used;
        }
        if (buf.size() < kMigrateChunk) done = true;
        if (used > 0 && buf[used - 1].first == m.last) done = true;
        if (done) {
          if (m.last == UINT64_MAX) {
            // watermark = last + 1 would wrap; the flag says "everything".
            m.all_moved.store(true, std::memory_order_release);
          } else {
            m.watermark.store(m.last + 1, std::memory_order_release);
          }
        } else {
          next = buf[used - 1].first + 1;
          m.watermark.store(next, std::memory_order_release);
        }
      }
      if (done) return;
      cur = next;
    }
  }

  // Deletes the moved range [begin, last] from the (ex-)source after the
  // window has closed and a grace period guarantees nobody routes there.
  void CleanupSourceRange(uint32_t slot, uint64_t begin, uint64_t last)
    requires(kElastic && HasScanOp<Index>)
  {
    std::vector<std::pair<uint64_t, uint64_t>> buf;
    for (;;) {
      EpochGuard guard;
      RetireBucketScope tag(RetireTag(slot));
      Index& shard = SlotAt(slot);
      buf.clear();
      shard.Scan(begin, kMigrateChunk, buf);
      size_t removed = 0;
      for (const auto& pair : buf) {
        if (pair.first > last) break;
        IndexRemove(shard, pair.first);
        ++removed;
      }
      if (removed < buf.size() || buf.size() < kMigrateChunk) return;
    }
  }

  // A write batch, partitioned by write route through a BatchPlan (stable,
  // so duplicate keys resolve as sequential execution would; keys in a
  // migration window go to an overflow bucket). `shard_batch(shard, keys,
  // values, m, ok)` runs once per shard over its gathered keys, and
  // `point`, the double-applying point op, runs per overflow key in
  // program order. Fills ok[] when given; returns the number applied.
  template <class ShardBatch, class Point>
  size_t WriteBatch(const uint64_t* keys, const uint64_t* values, size_t n,
                    bool* ok, ShardBatch&& shard_batch, Point&& point) {
    if (n == 0) return 0;
    EpochGuard guard;
    const Table* t = table();
    const size_t buckets = SlotLimit();
    const BatchPlan plan(buckets + 1, keys, n, [&](uint64_t key) {
      const KeyRoute r = t->Route(key);
      return r.DoubleApply() ? buckets : static_cast<size_t>(r.write);
    });
    std::vector<uint64_t> shard_keys(n);
    std::vector<uint64_t> shard_values(n);
    const std::unique_ptr<bool[]> shard_ok(ok != nullptr ? new bool[n]
                                                         : nullptr);
    size_t applied = 0;
    for (size_t s = 0; s < buckets; ++s) {
      const uint32_t begin = plan.offsets[s];
      const size_t m = plan.offsets[s + 1] - begin;
      if (m == 0) continue;
      for (size_t i = 0; i < m; ++i) {
        const uint32_t at = plan.order[begin + i];
        shard_keys[i] = keys[at];
        shard_values[i] = values[at];
      }
      RetireBucketScope tag(RetireTag(static_cast<uint32_t>(s)));
      applied += shard_batch(SlotAt(static_cast<uint32_t>(s)),
                             shard_keys.data(), shard_values.data(), m,
                             shard_ok.get());
      for (size_t i = 0; ok != nullptr && i < m; ++i) {
        ok[plan.order[begin + i]] = shard_ok[i];
      }
    }
    for (uint32_t i = plan.offsets[buckets]; i < plan.offsets[buckets + 1];
         ++i) {
      const uint32_t at = plan.order[i];
      const bool done = point(keys[at], values[at]);
      if (ok != nullptr) ok[at] = done;
      if (done) ++applied;
    }
    return applied;
  }

  // Caller-order-stable partition of a batch into `buckets` groups (bucket
  // b owns order[offsets[b] .. offsets[b+1])), each group preserving
  // program order — a stable counting sort over an arbitrary bucket
  // functor. The functor is evaluated exactly ONCE per key: routes depend
  // on migration atomics (watermark/all_moved) that the copier advances
  // concurrently, and a functor answering differently between a counting
  // and a placement pass would break the counting-sort invariant (scattered
  // results, out-of-bounds cursor writes).
  struct BatchPlan {
    std::vector<uint32_t> order;
    std::vector<uint32_t> offsets;

    template <class BucketOf>
    BatchPlan(size_t buckets, const uint64_t* keys, size_t n,
              BucketOf&& bucket_of)
        : order(n), offsets(buckets + 1, 0) {
      std::vector<uint32_t> bucket(n);
      for (size_t i = 0; i < n; ++i) {
        bucket[i] = static_cast<uint32_t>(bucket_of(keys[i]));
        ++offsets[bucket[i] + 1];
      }
      for (size_t b = 1; b < offsets.size(); ++b) {
        offsets[b] += offsets[b - 1];
      }
      std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
      for (size_t i = 0; i < n; ++i) {
        order[cursor[bucket[i]]++] = static_cast<uint32_t>(i);
      }
    }
  };

  Index& ShardFor(uint64_t key) {
    return SlotAt(static_cast<uint32_t>(table()->Route(key).write));
  }
  const Index& ShardFor(uint64_t key) const {
    return SlotAt(static_cast<uint32_t>(table()->Route(key).write));
  }

  Router router_;
  // Fixed-capacity slot directory: tables reference shards by slot id, and
  // the vector is never resized after construction, so a reader holding a
  // pinned table can always dereference its slots without coordination.
  mutable std::vector<std::atomic<Index*>> slots_;
  std::atomic<uint32_t> slot_limit_{0};  // Allocation high-watermark.
  std::atomic<const Table*> table_{nullptr};
  std::mutex admin_mu_;  // Serializes Split/Merge.
};

}  // namespace optiql

#endif  // OPTIQL_STORE_SHARDED_STORE_H_
