// Concurrent chaining hash table with one lock per bucket — a third index
// substrate demonstrating that OptiQL is general-purpose beyond hierarchical
// indexes (paper §1.2; cf. Dash [34], an optimistic-lock hash index).
//
// A hash table is the cleanest possible host for the lock comparison: there
// is no lock coupling, no SMO hierarchy and no upgrade protocol — every
// operation touches exactly one bucket lock, so the bucket-lock behaviour
// under skew is the entire story.
//
// All lock access goes through TxnOps<Lock> (sync/txn_ops.h), so any family
// in that contract can serve as the bucket lock:
//
//   * versioned families (OptLock, OptiQL, OptiCLH) — readers walk the
//     chain optimistically, validating every pointer against the bucket
//     version before dereferencing it; writers hold the lock exclusively.
//   * shared-mode families (MCS-RW, shared_mutex) — readers hold the
//     bucket shared for the walk; no versions, no restarts.
//
// The table is also a transaction host: TxnRead / TxnLockForWrite /
// TxnLockRank expose the bucket locks to the OCC and 2PL protocols in
// src/txn/, with OCC validating against the very same bucket version words
// the single-key operations use (no shadow version table).
//
// The bucket array is sized at construction (power of two); no online
// resizing — like most partitioned OLTP hash indexes, capacity is
// provisioned up front. Unlinked entries are retired through the epoch
// manager so optimistic readers can keep walking them.
#ifndef OPTIQL_INDEX_HASH_TABLE_H_
#define OPTIQL_INDEX_HASH_TABLE_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/platform.h"
#include "core/optiql.h"
#include "locks/optlock.h"
#include "qnode/qnode_pool.h"
#include "sync/epoch.h"
#include "sync/txn_ops.h"

namespace optiql {

struct HashOlcPolicy {
  using Lock = OptLock;
};

template <class QlLock = OptiQL>
struct HashOptiQlPolicy {
  using Lock = QlLock;
};

// Any lock family in the TxnOps contract (e.g. OptiCLH, McsRwLock).
template <class L>
struct HashLockPolicy {
  using Lock = L;
};

template <class SyncPolicy = HashOlcPolicy>
class HashTable {
 public:
  using Lock = typename SyncPolicy::Lock;
  using Ops = TxnOps<Lock>;
  using TxnLock = Lock;

  explicit HashTable(size_t buckets = 1 << 16)
      : mask_(std::bit_ceil(buckets) - 1),
        buckets_(new Bucket[mask_ + 1]) {}

  ~HashTable() {
    for (size_t i = 0; i <= mask_; ++i) {
      Entry* e = buckets_[i].head;
      while (e != nullptr) {
        Entry* next = e->next;
        delete e;
        e = next;
      }
    }
    delete[] buckets_;
    EpochManager::Instance().ReclaimIfPossible();
  }

  HashTable(const HashTable&) = delete;
  HashTable& operator=(const HashTable&) = delete;

  // Inserts (key, value); false if the key exists.
  bool Insert(uint64_t key, uint64_t value) {
    EpochGuard guard;
    Bucket& bucket = BucketFor(key);
    ExclusiveBucket ex(bucket);
    for (Entry* e = bucket.head; e != nullptr; e = e->next) {
      if (e->key == key) return false;
    }
    bucket.head = new Entry{key, {value}, bucket.head};
    size_.fetch_add(1, std::memory_order_acq_rel);
    return true;
  }

  // Updates an existing key; false if absent.
  bool Update(uint64_t key, uint64_t value) {
    EpochGuard guard;
    Bucket& bucket = BucketFor(key);
    ExclusiveBucket ex(bucket);
    for (Entry* e = bucket.head; e != nullptr; e = e->next) {
      if (e->key == key) {
        e->value.store(value, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  void Upsert(uint64_t key, uint64_t value) {
    EpochGuard guard;
    Bucket& bucket = BucketFor(key);
    ExclusiveBucket ex(bucket);
    for (Entry* e = bucket.head; e != nullptr; e = e->next) {
      if (e->key == key) {
        e->value.store(value, std::memory_order_relaxed);
        return;
      }
    }
    bucket.head = new Entry{key, {value}, bucket.head};
    size_.fetch_add(1, std::memory_order_acq_rel);
  }

  // Point lookup: optimistic for versioned families, shared-locked walk
  // for reader-writer families.
  bool Lookup(uint64_t key, uint64_t& out) const {
    EpochGuard guard;
    if constexpr (Ops::kVersioned) {
      const Bucket& bucket = BucketFor(key);
      while (true) {
        uint64_t v;
        SpinWait wait;
        while (!Ops::StableVersion(bucket.lock, v)) wait.Spin();
        // Chain walk with per-step validation: a pointer read under version
        // v is only dereferenced after v re-validates.
        const Entry* e = bucket.head;
        if (!Ops::ValidateVersion(bucket.lock, v)) continue;
        bool found = false;
        uint64_t value = 0;
        bool restart = false;
        while (e != nullptr) {
          const uint64_t entry_key = e->key;
          const uint64_t entry_value =
              e->value.load(std::memory_order_relaxed);
          const Entry* next = e->next;
          if (!Ops::ValidateVersion(bucket.lock, v)) {
            restart = true;
            break;
          }
          if (entry_key == key) {
            found = true;
            value = entry_value;
            break;
          }
          e = next;
        }
        if (restart) continue;
        if (!Ops::ValidateVersion(bucket.lock, v)) continue;
        if (found) out = value;
        return found;
      }
    } else {
      Bucket& bucket = const_cast<Bucket&>(BucketFor(key));
      Ops::LockSh(bucket.lock, /*slot=*/0);
      bool found = false;
      for (const Entry* e = bucket.head; e != nullptr; e = e->next) {
        if (e->key == key) {
          out = e->value.load(std::memory_order_relaxed);
          found = true;
          break;
        }
      }
      Ops::UnlockSh(bucket.lock, /*slot=*/0);
      return found;
    }
  }

  // Batched point lookup: one EpochGuard for the whole batch, and the
  // bucket headers of a group of probes are prefetched together before any
  // chain walk starts, so the (hash-scattered) bucket misses overlap.
  // There is no descent to interleave — a probe touches one bucket — so a
  // prefetch group is the whole AMAC story here. `found[i]` is written for
  // every i; `values[i]` only where `found[i]` is true. Returns the number
  // of hits; results are identical to per-key Lookup in batch order.
  size_t LookupBatch(const uint64_t* keys, size_t n, uint64_t* values,
                     bool* found) const {
    EpochGuard guard;
    constexpr size_t kGroup = 16;
    size_t hits = 0;
    for (size_t base = 0; base < n; base += kGroup) {
      const size_t count = n - base < kGroup ? n - base : kGroup;
      for (size_t i = 0; i < count; ++i) {
        PrefetchRead(&BucketFor(keys[base + i]));
      }
      for (size_t i = 0; i < count; ++i) {
        found[base + i] = Lookup(keys[base + i], values[base + i]);
        if (found[base + i]) ++hits;
      }
    }
    return hits;
  }

  // Removes the key; false if absent.
  bool Remove(uint64_t key) {
    EpochGuard guard;
    Bucket& bucket = BucketFor(key);
    ExclusiveBucket ex(bucket);
    Entry** link = &bucket.head;
    for (Entry* e = bucket.head; e != nullptr; e = e->next) {
      if (e->key == key) {
        *link = e->next;
        size_.fetch_sub(1, std::memory_order_acq_rel);
        // Readers may still be walking through the entry.
        EpochManager::Instance().Retire(e, [](void* p) {
          delete static_cast<Entry*>(p);
        });
        return true;
      }
      link = &e->next;
    }
    return false;
  }

  size_t Size() const { return size_.load(std::memory_order_acquire); }
  size_t BucketCount() const { return mask_ + 1; }

  // Single-threaded check: every entry hashes to its bucket; counts match.
  void CheckInvariants() const {
    size_t entries = 0;
    for (size_t i = 0; i <= mask_; ++i) {
      for (const Entry* e = buckets_[i].head; e != nullptr; e = e->next) {
        OPTIQL_CHECK((Mix(e->key) & mask_) == i);
        ++entries;
      }
    }
    OPTIQL_CHECK(entries == Size());
  }

  // --- Transaction-layer hooks (src/txn/) ---
  //
  // The caller (a TxnContext) holds one EpochGuard for the whole
  // transaction, so entry pointers captured here stay dereferenceable
  // until it commits or aborts.

 private:
  struct Entry;
  struct Bucket;

 public:
  struct TxnReadResult {
    bool found = false;
    uint64_t value = 0;
    const Lock* lock = nullptr;  // bucket lock guarding the record
    uint64_t version = 0;        // validated snapshot of that word
  };

  // OCC execution-phase read: a validated snapshot of the record plus the
  // bucket word commit-time validation re-checks. Must not be called while
  // the transaction holds bucket locks (it can spin on a held bucket).
  void TxnRead(uint64_t key, TxnReadResult& out) const
    requires(Ops::kVersioned)
  {
    const Bucket& bucket = BucketFor(key);
    while (true) {
      uint64_t v;
      SpinWait wait;
      while (!Ops::StableVersion(bucket.lock, v)) wait.Spin();
      const Entry* e = bucket.head;
      if (!Ops::ValidateVersion(bucket.lock, v)) continue;
      bool found = false;
      uint64_t value = 0;
      bool restart = false;
      while (e != nullptr) {
        const uint64_t entry_key = e->key;
        const uint64_t entry_value = e->value.load(std::memory_order_relaxed);
        const Entry* next = e->next;
        if (!Ops::ValidateVersion(bucket.lock, v)) {
          restart = true;
          break;
        }
        if (entry_key == key) {
          found = true;
          value = entry_value;
          break;
        }
        e = next;
      }
      if (restart) continue;
      if (!Ops::ValidateVersion(bucket.lock, v)) continue;
      out.found = found;
      out.value = value;
      out.lock = &bucket.lock;
      out.version = v;
      return;
    }
  }

  // Exclusive record hold for the transaction layer. Non-owning guards
  // piggyback on a lock the transaction already holds (two keys can share
  // a bucket), so only the owning guard releases.
  class TxnWriteGuard {
   public:
    TxnWriteGuard() = default;

    const Lock* LockPtr() const { return &bucket_->lock; }
    uint64_t Read() const {
      return entry_->value.load(std::memory_order_relaxed);
    }
    void Install(uint64_t value) {
      OPTIQL_INVARIANT(bucket_ != nullptr && entry_ != nullptr,
                       "Install on a guard that never locked a record");
      entry_->value.store(value, std::memory_order_release);
    }
    uint64_t HeldVersion() const
      requires(Ops::kVersioned)
    {
      return Ops::HeldVersion(bucket_->lock, handle_);
    }
    bool owns() const { return owns_; }

    // Releases the bucket. `installed` == false releases without a version
    // bump where the family supports it, so pure-abort unlocks do not
    // invalidate concurrent readers.
    void Unlock(bool installed) {
      if (!owns_) return;
      owns_ = false;
      if constexpr (Ops::kHasNoBump) {
        if (!installed) {
          Ops::UnlockExNoBump(bucket_->lock, handle_);
          return;
        }
      }
      (void)installed;
      Ops::UnlockEx(bucket_->lock, handle_);
    }

   private:
    friend class HashTable;
    Bucket* bucket_ = nullptr;
    Entry* entry_ = nullptr;
    bool owns_ = false;
    typename Ops::ExHandle handle_{};
  };

  // Commit-time record lock, blocking: queue-based families wait in the
  // bucket queue (the OptiQL robustness story at transaction granularity).
  // `already_held` reports bucket locks this transaction already owns.
  template <class HeldContains>
  TxnLockStatus TxnLockForWrite(uint64_t key, int slot,
                                const HeldContains& already_held,
                                TxnWriteGuard& guard) {
    Bucket& bucket = BucketFor(key);
    if (already_held(&bucket.lock)) {
      return BindHeldGuard(bucket, key, guard);
    }
    guard.bucket_ = &bucket;
    guard.owns_ = true;
    guard.handle_ = Ops::LockEx(bucket.lock, slot);
    return FindLockedEntry(bucket, key, guard);
  }

  // No-wait variant (2PL deadlock avoidance): a held bucket means kBusy,
  // never a wait.
  template <class HeldContains>
  TxnLockStatus TxnTryLockForWrite(uint64_t key, int slot,
                                   const HeldContains& already_held,
                                   TxnWriteGuard& guard) {
    Bucket& bucket = BucketFor(key);
    if (already_held(&bucket.lock)) {
      return BindHeldGuard(bucket, key, guard);
    }
    guard.bucket_ = &bucket;
    if (!Ops::TryLockEx(bucket.lock, slot, guard.handle_)) {
      return TxnLockStatus::kBusy;
    }
    guard.owns_ = true;
    return FindLockedEntry(bucket, key, guard);
  }

  // 2PL read for shared-mode families: try-acquire the bucket shared (no
  // wait) and read under it. On kAcquired with a non-null `lock` the bucket
  // stays held shared — the transaction releases it at commit/abort with
  // TxnOps::UnlockShNoQueue. `held_ex` reports buckets this transaction
  // already holds exclusively (read-your-writes without an upgrade; then
  // `lock` comes back null and nothing new is held).
  template <class HeldContains>
  TxnLockStatus TxnTryReadShared(uint64_t key, const HeldContains& held_ex,
                                 bool& found, uint64_t& value,
                                 const Lock*& lock)
    requires(Ops::kSharedMode)
  {
    Bucket& bucket = BucketFor(key);
    lock = nullptr;
    if (!held_ex(&bucket.lock)) {
      if (!Ops::TryLockSh(bucket.lock)) return TxnLockStatus::kBusy;
      lock = &bucket.lock;
    }
    found = false;
    for (const Entry* e = bucket.head; e != nullptr; e = e->next) {
      if (e->key == key) {
        value = e->value.load(std::memory_order_relaxed);
        found = true;
        break;
      }
    }
    return TxnLockStatus::kAcquired;
  }

  // The lock every txn hook above resolves for `key` — lets the
  // transaction layer detect that a write targets a bucket it already
  // holds shared and upgrade instead of self-aborting forever.
  const Lock* TxnLockAddr(uint64_t key) const { return &BucketFor(key).lock; }

  // Converts this transaction's `my_holds` queue-less shared holds on the
  // key's bucket into an exclusive hold, atomically — no release window,
  // so values read under those holds stay protected across the upgrade.
  // kBusy = other readers/writers are active and nothing changed; on any
  // other outcome the shared holds are consumed (kAbsent also releases
  // the just-won exclusive hold, like TxnTryLockForWrite).
  TxnLockStatus TxnTryUpgradeForWrite(uint64_t key, int slot,
                                      uint32_t my_holds, TxnWriteGuard& guard)
    requires(Ops::kSharedMode && Ops::kHasShUpgrade)
  {
    Bucket& bucket = BucketFor(key);
    guard.bucket_ = &bucket;
    if (!Ops::TryUpgradeSh(bucket.lock, slot, my_holds, guard.handle_)) {
      return TxnLockStatus::kBusy;
    }
    guard.owns_ = true;
    return FindLockedEntry(bucket, key, guard);
  }

  // Deadlock-avoidance rank: transactions that lock their write sets in
  // ascending bucket order never cycle.
  std::pair<uint64_t, uint64_t> TxnLockRank(uint64_t key) const {
    return {Mix(key) & mask_, 0};
  }

 private:
  struct Entry {
    uint64_t key;
    std::atomic<uint64_t> value;
    Entry* next;
  };

  struct OPTIQL_CACHELINE_ALIGNED Bucket {
    mutable Lock lock;
    Entry* head = nullptr;
  };

  // RAII exclusive bucket hold through the contract: queue-based policies
  // block directly on the bucket lock (the whole point of OptiQL here),
  // OptLock spins+CASes, reader-writer locks queue as writers.
  class ExclusiveBucket {
   public:
    explicit ExclusiveBucket(Bucket& bucket)
        : bucket_(bucket), handle_(Ops::LockEx(bucket_.lock, /*slot=*/0)) {}
    ~ExclusiveBucket() { Ops::UnlockEx(bucket_.lock, handle_); }

    ExclusiveBucket(const ExclusiveBucket&) = delete;
    ExclusiveBucket& operator=(const ExclusiveBucket&) = delete;

   private:
    Bucket& bucket_;
    const typename Ops::ExHandle handle_;
  };

  // Completes a guard over a bucket this transaction already holds: the
  // chain is stable under our own exclusive hold, so a plain walk suffices.
  TxnLockStatus BindHeldGuard(Bucket& bucket, uint64_t key,
                              TxnWriteGuard& guard) {
    guard.bucket_ = &bucket;
    guard.owns_ = false;
    for (Entry* e = bucket.head; e != nullptr; e = e->next) {
      if (e->key == key) {
        guard.entry_ = e;
        return TxnLockStatus::kAcquired;
      }
    }
    return TxnLockStatus::kAbsent;
  }

  // Resolves the entry under a freshly taken exclusive hold; releases and
  // reports kAbsent when the key does not exist.
  TxnLockStatus FindLockedEntry(Bucket& bucket, uint64_t key,
                                TxnWriteGuard& guard) {
    for (Entry* e = bucket.head; e != nullptr; e = e->next) {
      if (e->key == key) {
        guard.entry_ = e;
        return TxnLockStatus::kAcquired;
      }
    }
    guard.Unlock(/*installed=*/false);
    return TxnLockStatus::kAbsent;
  }

  // Finalizer from SplitMix64: full-avalanche, so dense keys spread.
  static uint64_t Mix(uint64_t key) {
    key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
    key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
    return key ^ (key >> 31);
  }

  Bucket& BucketFor(uint64_t key) { return buckets_[Mix(key) & mask_]; }
  const Bucket& BucketFor(uint64_t key) const {
    return buckets_[Mix(key) & mask_];
  }

  const size_t mask_;
  Bucket* const buckets_;
  std::atomic<size_t> size_{0};
};

}  // namespace optiql

#endif  // OPTIQL_INDEX_HASH_TABLE_H_
