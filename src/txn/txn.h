// Multi-key transactions over the repository's indexes, built entirely on
// the TxnOps<Lock> contract (sync/txn_ops.h) through the transaction-host
// hooks (index/index_ops.h: TxnHostIndex and friends).
//
// Two protocols, both generic over any versioned hosting index — a
// B+-tree, or a ShardedStore of them:
//
//   OccTxn    Silo-style optimistic concurrency control. The execution
//             phase reads lock-free through TxnRead (validated snapshots
//             of record values plus the guarding lock's version word); the
//             commit phase locks the write set in TxnLockRank order,
//             re-validates every read against the indexes' own lock words
//             — the same words single-key operations version with, no
//             shadow version table — then installs and releases. A read
//             whose word moved (or is locked by another transaction)
//             aborts the commit.
//
//   TwoPlTxn  No-wait two-phase locking. Every access acquires its record
//             lock up front and holds it to the end; any acquisition that
//             would block aborts instead (no-wait deadlock avoidance, so
//             no lock ordering is needed). Reads take the exclusive lock
//             too (the versioned families have no shared mode), so a
//             later write into a self-read record finds it already held.
//             Writes are buffered and installed at commit, so aborts need
//             no undo.
//
// Workload model (CCBench-style): transactions read and update EXISTING
// keys over a fixed population; they do not insert or remove. Structural
// index modifications must be quiesced while transactions run — see the
// hook contracts in the host indexes.
//
// Capacity: a transaction may hold at most ThreadQNodes::kMaxTxnLocks
// record locks (queue nodes come from the per-thread txn slot range).
#ifndef OPTIQL_TXN_TXN_H_
#define OPTIQL_TXN_TXN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/platform.h"
#include "index/index_ops.h"
#include "qnode/qnode_pool.h"
#include "sync/epoch.h"
#include "sync/txn_ops.h"

namespace optiql {

// Outcome of a single transactional access. kAbort means the transaction
// must abort and retry (a no-wait acquisition lost); the caller returns
// control to RunTxn, which calls Abort() and re-runs the body.
enum class TxnResult { kOk, kNotFound, kAbort };

// Per-thread protocol counters (aggregated by the caller).
struct TxnStats {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  // Abort reasons: a no-wait lock acquisition lost (2PL), or commit-time
  // read validation failed (OCC).
  uint64_t busy_aborts = 0;
  uint64_t validation_aborts = 0;

  TxnStats& operator+=(const TxnStats& other) {
    commits += other.commits;
    aborts += other.aborts;
    busy_aborts += other.busy_aborts;
    validation_aborts += other.validation_aborts;
    return *this;
  }
};

// --- OCC -------------------------------------------------------------------

template <class Index>
  requires TxnVersionedHost<Index>
class OccTxn {
 public:
  using Lock = typename Index::TxnLock;
  using Ops = TxnOps<Lock>;

  explicit OccTxn(Index& index) : index_(index) {
    reads_.reserve(8);
    writes_.reserve(4);
    if constexpr (HasRoutingVersionOp<Index>) {
      routing_version_ = index_.RoutingVersion();
    }
  }

  OccTxn(const OccTxn&) = delete;
  OccTxn& operator=(const OccTxn&) = delete;

  // Execution-phase read: lock-free, validated snapshot. Reads its own
  // buffered writes; repeated reads of a key reuse the first snapshot
  // (repeatable within the transaction, enforced at commit).
  TxnResult Get(uint64_t key, uint64_t& out) {
    OPTIQL_INVARIANT(!finished_, "Get on a finished transaction");
    for (const Write& w : writes_) {
      if (w.key == key) {
        out = w.value;
        return TxnResult::kOk;
      }
    }
    for (const Read& r : reads_) {
      if (r.key == key) {
        out = r.value;
        return r.found ? TxnResult::kOk : TxnResult::kNotFound;
      }
    }
    typename Index::TxnReadResult result;
    index_.TxnRead(key, result);
    reads_.push_back(
        Read{key, result.value, result.lock, result.version, result.found});
    out = result.value;
    return result.found ? TxnResult::kOk : TxnResult::kNotFound;
  }

  // Buffers the write; the lock is only taken at commit.
  TxnResult Put(uint64_t key, uint64_t value) {
    OPTIQL_INVARIANT(!finished_, "Put on a finished transaction");
    for (Write& w : writes_) {
      if (w.key == key) {
        w.value = value;
        return TxnResult::kOk;
      }
    }
    OPTIQL_CHECK(writes_.size() < ThreadQNodes::kMaxTxnLocks);
    writes_.push_back(Write{key, value});
    return TxnResult::kOk;
  }

  // Silo commit: lock the write set in rank order, validate the read set
  // against the lock words, install, release. False = aborted (a read no
  // longer validates, or a written key vanished); the transaction is dead
  // either way.
  bool Commit() {
    OPTIQL_INVARIANT(!finished_, "Commit on a finished transaction");
    finished_ = true;

    // Early validation, before any lock is taken: a read that fails now
    // was overwritten or is held by another committer, so this commit is
    // (almost always) doomed, and aborting is always safe. Queueing
    // first would hold a hot leaf's lock queue up for nothing: on
    // e2ebench txn_transfer, committers that reached their locks sooner
    // aborted more and raised the p99, and this check removes that
    // (EXPERIMENTS.md).
    for (const Read& r : reads_) {
      if (!Ops::ValidateVersion(*r.lock, r.version)) return false;
    }

    // Lock phase, in global rank order (consistent across transactions, so
    // blocking acquisition cannot deadlock).
    std::sort(writes_.begin(), writes_.end(),
              [this](const Write& a, const Write& b) {
                return index_.TxnLockRank(a.key) < index_.TxnLockRank(b.key);
              });
    const auto held = [this](const Lock* lock) { return OwningGuard(lock); };
    for (Write& w : writes_) {
      typename Index::TxnWriteGuard guard;
      const TxnLockStatus status = index_.TxnLockForWrite(
          w.key, ThreadQNodes::kTxnSlotBase + static_cast<int>(num_guards_),
          held, guard);
      if (status == TxnLockStatus::kAbsent) {
        ReleaseGuards(/*installed=*/false);
        return false;
      }
      OPTIQL_CHECK(num_guards_ < ThreadQNodes::kMaxTxnLocks);
      guards_[num_guards_] = guard;
      w.guard_index = num_guards_;
      ++num_guards_;
    }

    // Routing fence (sharded hosts): if the routing table changed since
    // begin — or a migration window is open (odd version) — the records we
    // resolved above may no longer be their keys' homes; abort so the
    // retry re-resolves every shard against the new table. Checked after
    // the lock phase: from here to install the write set is pinned by its
    // record locks, which a migrating copier cannot read past.
    if constexpr (HasRoutingVersionOp<Index>) {
      const uint64_t routing_now = index_.RoutingVersion();
      if (routing_now != routing_version_ || (routing_now & 1) != 0) {
        ReleaseGuards(/*installed=*/false);
        return false;
      }
    }

    // Validation phase: every read must still carry its snapshot version.
    // A record we locked ourselves validates through the held-version the
    // grant carries; anything else through the plain seqlock check (which
    // also rejects records another transaction holds locked).
    for (const Read& r : reads_) {
      const typename Index::TxnWriteGuard* own = OwningGuard(r.lock);
      const bool valid =
          own != nullptr
              ? own->HeldVersion() == Ops::SnapshotVersion(r.version)
              : Ops::ValidateVersion(*r.lock, r.version);
      if (!valid) {
        ReleaseGuards(/*installed=*/false);
        return false;
      }
    }

    // Install + release.
    for (const Write& w : writes_) {
      guards_[w.guard_index].Install(w.value);
    }
    ReleaseGuards(/*installed=*/true);
    return true;
  }

  void Abort() {
    OPTIQL_INVARIANT(!finished_, "Abort on a finished transaction");
    finished_ = true;
    ReleaseGuards(/*installed=*/false);
  }

 private:
  struct Read {
    uint64_t key;
    uint64_t value;
    const Lock* lock;
    uint64_t version;
    bool found;
  };
  struct Write {
    uint64_t key;
    uint64_t value;
    size_t guard_index = 0;
  };

  // The owning guard for `lock`, if this transaction holds it.
  typename Index::TxnWriteGuard* OwningGuard(const Lock* lock) {
    for (size_t i = 0; i < num_guards_; ++i) {
      if (guards_[i].owns() && guards_[i].LockPtr() == lock) {
        return &guards_[i];
      }
    }
    return nullptr;
  }

  void ReleaseGuards(bool installed) {
    for (size_t i = 0; i < num_guards_; ++i) {
      guards_[i].Unlock(installed);
    }
    num_guards_ = 0;
  }

  Index& index_;
  EpochGuard epoch_;  // Spans the transaction: snapshots stay reclaimable-safe.
  std::vector<Read> reads_;
  std::vector<Write> writes_;
  typename Index::TxnWriteGuard guards_[ThreadQNodes::kMaxTxnLocks];
  size_t num_guards_ = 0;
  uint64_t routing_version_ = 0;  // Snapshot at begin (routed hosts only).
  bool finished_ = false;
};

// --- No-wait 2PL -----------------------------------------------------------

template <class Index>
  requires TxnVersionedHost<Index>
class TwoPlTxn {
 public:
  using Lock = typename Index::TxnLock;

  explicit TwoPlTxn(Index& index) : index_(index) {
    entries_.reserve(4);
    if constexpr (HasRoutingVersionOp<Index>) {
      routing_version_ = index_.RoutingVersion();
    }
  }

  TwoPlTxn(const TwoPlTxn&) = delete;
  TwoPlTxn& operator=(const TwoPlTxn&) = delete;

  // Read: takes the record's exclusive lock (no shared mode exists) and
  // holds it until commit/abort. kAbort = the lock was busy. A kNotFound
  // read holds nothing (no phantom protection — the workload model has no
  // inserts).
  TxnResult Get(uint64_t key, uint64_t& out) {
    OPTIQL_INVARIANT(!finished_, "Get on a finished transaction");
    if (const Entry* entry = FindEntry(key)) {
      out = entry->pending ? entry->value : guards_[entry->guard_index].Read();
      return TxnResult::kOk;
    }
    size_t guard_index;
    const TxnResult acquired = AcquireExclusive(key, guard_index);
    if (acquired != TxnResult::kOk) return acquired;
    entries_.push_back(Entry{key, guard_index, /*pending=*/false, 0});
    out = guards_[guard_index].Read();
    return TxnResult::kOk;
  }

  // Write intent: takes the record's exclusive lock now (growing phase),
  // buffers the value, installs at commit — aborts need no undo. kAbort
  // means a competitor held the lock.
  TxnResult Put(uint64_t key, uint64_t value) {
    OPTIQL_INVARIANT(!finished_, "Put on a finished transaction");
    if (Entry* entry = FindEntry(key)) {
      entry->pending = true;
      entry->value = value;
      return TxnResult::kOk;
    }
    size_t guard_index;
    const TxnResult acquired = AcquireExclusive(key, guard_index);
    if (acquired != TxnResult::kOk) return acquired;
    entries_.push_back(Entry{key, guard_index, /*pending=*/true, value});
    return TxnResult::kOk;
  }

  // Installs buffered writes and releases everything. Every lock is
  // already held, so the only failure is the routing fence below: on a
  // sharded host whose table changed since begin (or has a migration
  // window open), the held records may no longer be their keys' homes —
  // release without installing and let RunTxn retry on the new table.
  bool Commit() {
    OPTIQL_INVARIANT(!finished_, "Commit on a finished transaction");
    finished_ = true;
    if constexpr (HasRoutingVersionOp<Index>) {
      const uint64_t routing_now = index_.RoutingVersion();
      if (routing_now != routing_version_ || (routing_now & 1) != 0) {
        ReleaseGuards(/*installed=*/nullptr);
        return false;
      }
    }
    bool installed[ThreadQNodes::kMaxTxnLocks] = {};
    for (const Entry& entry : entries_) {
      if (!entry.pending) continue;
      guards_[entry.guard_index].Install(entry.value);
      // Version-bump the owning hold (the guard may be a non-owning alias
      // of an earlier one on the same lock).
      for (size_t i = 0; i < num_guards_; ++i) {
        if (guards_[i].owns() &&
            guards_[i].LockPtr() == guards_[entry.guard_index].LockPtr()) {
          installed[i] = true;
        }
      }
    }
    ReleaseGuards(installed);
    return true;
  }

  void Abort() {
    OPTIQL_INVARIANT(!finished_, "Abort on a finished transaction");
    finished_ = true;
    ReleaseGuards(/*installed=*/nullptr);
  }

 private:
  struct Entry {
    uint64_t key;
    size_t guard_index;
    bool pending;  // Buffered write awaiting install.
    uint64_t value;
  };

  Entry* FindEntry(uint64_t key) {
    for (Entry& entry : entries_) {
      if (entry.key == key) return &entry;
    }
    return nullptr;
  }

  bool OwnsExclusive(const Lock* lock) const {
    for (size_t i = 0; i < num_guards_; ++i) {
      if (guards_[i].owns() && guards_[i].LockPtr() == lock) return true;
    }
    return false;
  }

  TxnResult AcquireExclusive(uint64_t key, size_t& guard_index) {
    typename Index::TxnWriteGuard guard;
    const int slot = ThreadQNodes::kTxnSlotBase + static_cast<int>(num_guards_);
    const auto held = [this](const Lock* lock) { return OwnsExclusive(lock); };
    const TxnLockStatus status =
        index_.TxnTryLockForWrite(key, slot, held, guard);
    if (status == TxnLockStatus::kBusy) return TxnResult::kAbort;
    if (status == TxnLockStatus::kAbsent) return TxnResult::kNotFound;
    OPTIQL_CHECK(num_guards_ < ThreadQNodes::kMaxTxnLocks);
    guard_index = num_guards_;
    guards_[num_guards_] = guard;
    ++num_guards_;
    return TxnResult::kOk;
  }

  // Releases every hold; `installed[i]` (null = none) marks the holds
  // whose records took a write and so release with a version bump.
  void ReleaseGuards(const bool* installed) {
    for (size_t i = 0; i < num_guards_; ++i) {
      guards_[i].Unlock(installed != nullptr && installed[i]);
    }
    num_guards_ = 0;
  }

  Index& index_;
  EpochGuard epoch_;
  std::vector<Entry> entries_;
  typename Index::TxnWriteGuard guards_[ThreadQNodes::kMaxTxnLocks];
  size_t num_guards_ = 0;
  uint64_t routing_version_ = 0;  // Snapshot at begin (routed hosts only).
  bool finished_ = false;
};

// --- Retry driver ----------------------------------------------------------

// Runs `body(txn)` under a fresh transaction until a commit sticks. The
// body returns false when an access came back kAbort (the driver aborts,
// counts, and re-runs it); a true return commits. OCC attributes aborts to
// failed validation, 2PL to busy locks — matching where each protocol can
// lose.
template <class Txn, class Index, class Body>
void RunTxn(Index& index, TxnStats& stats, Body&& body) {
  // Backoff between attempts, escalating from pause to yield. No-wait
  // retries have no blocking edge that hands the CPU to the conflicting
  // holder, so on an oversubscribed core a thread can otherwise burn its
  // whole scheduler quantum aborting against locks whose holders are
  // preempted mid-transaction — the yield IS the progress mechanism.
  // Everything is released before the wait (Abort/Commit drop all locks;
  // only the epoch guard spans it, and guards never block anyone).
  SpinWait backoff;
  while (true) {
    {
      Txn txn(index);
      if (!body(txn)) {
        txn.Abort();
        ++stats.aborts;
        ++stats.busy_aborts;
      } else if (txn.Commit()) {
        ++stats.commits;
        return;
      } else {
        ++stats.aborts;
        ++stats.validation_aborts;
      }
    }
    backoff.Spin();
  }
}

}  // namespace optiql

#endif  // OPTIQL_TXN_TXN_H_
