// Test-only ordered index: a std::map under one std::shared_mutex. It
// satisfies IndexLike + HasScanOp, and every operation is pessimistically
// locked, so the store-level suites built on it (ShardedStore reshard
// storms, trace-replay partitioning, the generic batched fallback) run
// race-free under ThreadSanitizer. No B+-tree can host them there: every
// B+-tree variant reads its inner nodes optimistically, which TSan reports
// by design.
//
// It is also a versioned transaction host (TxnVersionedHost), so the
// multi-threaded 2PL tests run under TSan too. Each record carries its own
// OptLock word and an atomic value: the record lock is the transaction
// lock, and the value is only ever read or written atomically, so
// validated reads race on nothing TSan can see. A read of an absent key
// validates against `structure_`, a map-wide word that every Insert,
// Upsert-insert and Remove bumps. The txn hooks follow the B+-tree's
// workload model: a fixed key population, with Insert/Remove quiesced
// while transactions run.
#ifndef OPTIQL_TESTS_MAP_INDEX_H_
#define OPTIQL_TESTS_MAP_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/platform.h"
#include "locks/optlock.h"
#include "sync/txn_ops.h"

namespace optiql {

class MapIndex {
  using Ops = TxnOps<OptLock>;

  struct Record {
    explicit Record(uint64_t v) : value(v) {}
    OptLock lock;
    std::atomic<uint64_t> value;
  };

 public:
  bool Insert(uint64_t key, uint64_t value) {
    std::unique_lock lock(mu_);
    if (!map_.try_emplace(key, value).second) return false;
    BumpStructure();
    return true;
  }

  bool Update(uint64_t key, uint64_t value) {
    std::shared_lock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    Store(it->second, value);
    return true;
  }

  void Upsert(uint64_t key, uint64_t value) {
    std::unique_lock lock(mu_);
    const auto [it, inserted] = map_.try_emplace(key, value);
    if (inserted) {
      BumpStructure();
    } else {
      Store(it->second, value);
    }
  }

  bool Remove(uint64_t key) {
    std::unique_lock lock(mu_);
    if (map_.erase(key) != 1) return false;
    BumpStructure();
    return true;
  }

  bool Lookup(uint64_t key, uint64_t& out) const {
    std::shared_lock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    out = it->second.value.load(std::memory_order_relaxed);
    return true;
  }

  size_t Scan(uint64_t start, size_t limit,
              std::vector<std::pair<uint64_t, uint64_t>>& out) const {
    out.clear();
    std::shared_lock lock(mu_);
    for (auto it = map_.lower_bound(start);
         it != map_.end() && out.size() < limit; ++it) {
      out.emplace_back(it->first,
                       it->second.value.load(std::memory_order_relaxed));
    }
    return out.size();
  }

  size_t Size() const {
    std::shared_lock lock(mu_);
    return map_.size();
  }

  // std::map keeps its own order; there is no structure to check. Present
  // so ShardedStore::CheckInvariants works over map shards.
  void CheckInvariants() const {}

  // --- Transaction-layer hooks (src/txn/) ---

  using TxnLock = OptLock;

  struct TxnReadResult {
    bool found = false;
    uint64_t value = 0;
    const OptLock* lock = nullptr;  // record lock, or `structure_` if absent
    uint64_t version = 0;           // validated snapshot of that word
  };

  void TxnRead(uint64_t key, TxnReadResult& out) const {
    std::shared_lock lock(mu_);
    const auto it = map_.find(key);
    const bool found = it != map_.end();
    const OptLock& word = found ? it->second.lock : structure_;
    SpinWait wait;
    while (true) {
      uint64_t v;
      if (Ops::StableVersion(word, v)) {
        const uint64_t value =
            found ? it->second.value.load(std::memory_order_relaxed) : 0;
        if (Ops::ValidateVersion(word, v)) {
          out = TxnReadResult{found, value, &word, v};
          return;
        }
      }
      wait.Spin();
    }
  }

  // Exclusive record hold. A guard over a record the transaction already
  // holds is a non-owning alias, so only the owning guard releases.
  class TxnWriteGuard {
   public:
    TxnWriteGuard() = default;

    const OptLock* LockPtr() const { return &record_->lock; }
    uint64_t Read() const {
      return record_->value.load(std::memory_order_relaxed);
    }
    void Install(uint64_t value) {
      OPTIQL_INVARIANT(record_ != nullptr,
                       "Install on a guard that never locked a record");
      record_->value.store(value, std::memory_order_relaxed);
    }
    uint64_t HeldVersion() const {
      return Ops::HeldVersion(record_->lock, Ops::ExHandle{});
    }
    bool owns() const { return owns_; }

    // `installed` == false releases without a version bump, so pure-abort
    // unlocks do not invalidate concurrent readers.
    void Unlock(bool installed) {
      if (!owns_) return;
      owns_ = false;
      if (installed) {
        Ops::UnlockEx(record_->lock, Ops::ExHandle{});
      } else {
        Ops::UnlockExNoBump(record_->lock, Ops::ExHandle{});
      }
    }

   private:
    friend class MapIndex;
    Record* record_ = nullptr;
    bool owns_ = false;
  };

  // Commit-time record lock, blocking.
  template <class HeldContains>
  TxnLockStatus TxnLockForWrite(uint64_t key, int slot,
                                const HeldContains& already_held,
                                TxnWriteGuard& guard) {
    if (!BindGuard(key, guard)) return TxnLockStatus::kAbsent;
    if (already_held(&guard.record_->lock)) return TxnLockStatus::kAcquired;
    (void)Ops::LockEx(guard.record_->lock, slot);
    guard.owns_ = true;
    return TxnLockStatus::kAcquired;
  }

  // No-wait variant (2PL): a held record comes back kBusy, never a wait.
  template <class HeldContains>
  TxnLockStatus TxnTryLockForWrite(uint64_t key, int slot,
                                   const HeldContains& already_held,
                                   TxnWriteGuard& guard) {
    if (!BindGuard(key, guard)) return TxnLockStatus::kAbsent;
    if (already_held(&guard.record_->lock)) return TxnLockStatus::kAcquired;
    Ops::ExHandle handle;
    if (!Ops::TryLockEx(guard.record_->lock, slot, handle)) {
      return TxnLockStatus::kBusy;
    }
    guard.owns_ = true;
    return TxnLockStatus::kAcquired;
  }

  // One lock per record, ordered by key.
  std::pair<uint64_t, uint64_t> TxnLockRank(uint64_t key) const {
    return {key, 0};
  }

 private:
  // Points `guard` at key's record, not yet owning it; false if absent.
  bool BindGuard(uint64_t key, TxnWriteGuard& guard) {
    std::shared_lock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    guard.record_ = &it->second;
    guard.owns_ = false;
    return true;
  }

  // Single-key writes version the record word, like a B+-tree leaf update.
  static void Store(Record& record, uint64_t value) {
    const Ops::ExHandle handle = Ops::LockEx(record.lock, /*slot=*/0);
    record.value.store(value, std::memory_order_relaxed);
    Ops::UnlockEx(record.lock, handle);
  }

  // Caller holds `mu_` exclusively, so no reader sits inside `structure_`.
  void BumpStructure() {
    Ops::UnlockEx(structure_, Ops::LockEx(structure_, /*slot=*/0));
  }

  mutable std::shared_mutex mu_;
  std::map<uint64_t, Record> map_;
  OptLock structure_;
};

}  // namespace optiql

#endif  // OPTIQL_TESTS_MAP_INDEX_H_
