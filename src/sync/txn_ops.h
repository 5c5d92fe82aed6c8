// TxnOps<Lock> — the one uniform version/lock contract over every lock
// family in the repository. The indexes, the transaction layer, the lock
// microbenchmarks and the typed lock suites all reach a lock through it,
// so each family's capabilities are stated in exactly one place. Every
// family has the same spellings:
//
//   kName                        display name (the paper's legend)
//
//   Optimistic read (versioned families: OptLock, OptiQL)
//     StableVersion(lock, v)     snapshot the word; false = locked/retired
//     ValidateVersion(lock, v)   seqlock validation: whole word unchanged
//     SnapshotVersion(word)      the version component of a snapshot
//     IsObsolete(lock)           retired-object probe
//
//   Exclusive mode (LockEx/UnlockEx: every family; the rest where the
//   family supports it)
//     LockEx(lock, slot) -> ExHandle      blocking acquire
//     TryLockEx(lock, slot, h) -> bool    no-wait acquire (OptLock family
//                                         only; the test-only MapIndex's
//                                         2PL record lock uses it)
//     TryUpgrade(lock, v, slot, h)        snapshot -> exclusive promotion
//     UnlockEx(lock, h)                   release, bump version
//     UnlockExNoBump(lock, h)             release, no bump (no-op sections)
//     UnlockExObsolete(lock, h)           release + retire the object
//     HeldVersion(lock, h)                version a validated snapshot of
//                                         this lock must carry while WE
//                                         hold it (OCC self-held reads)
//
//   Shared mode (pessimistic reader modes: MCS-RW, shared_mutex)
//     LockSh/UnlockSh(lock, slot)         blocking (RW leaves, ART coupling)
//
// `slot` selects a thread-local queue node (ThreadQNodes) for queue-based
// locks and is ignored by centralized ones; index ops use slots 0..2
// (lock pairs alternate 0/1, rebalance siblings take 1 or 2), the txn
// layer owns slots ThreadQNodes::kTxnSlotBase and up. ExHandle is a trivially
// copyable token: empty for centralized locks, the caller's own queue node
// for MCS descendants. The reader-writer families also keep a slot-based
// UnlockEx(lock, slot) for the ART coupling trees, which release by depth
// slot rather than by handle.
//
// Capability dispatch is by `if constexpr` on the flags:
//   kVersioned     the whole optimistic surface above exists: snapshots,
//                  the retired-object marker and the no-bump release. The
//                  word doubles as the Silo-style OCC timestamp (no shadow
//                  version table). Without it a reader parked on an
//                  unlinked node cannot tell; the B+-tree's RW leaves
//                  re-validate the parent instead.
//   kSharedMode    pessimistic shared mode exists
// A family with neither read surface (TTS, MCS) serves reads by taking
// the exclusive lock.
//
// TSA annotations appear on the specializations of annotated capability
// types (TTS, MCS, MCS-RW, shared_mutex) and forward the capability
// through the facade: TSA sees `TxnOps<L>::LockEx(lock, slot)` acquire
// `lock` itself, so callers are checked as if they had called the lock.
// The optimistic families' read side is not expressible in TSA and
// is covered by scripts/lint_optimistic.py and the checked-invariant build
// instead (see common/annotations.h).
#ifndef OPTIQL_SYNC_TXN_OPS_H_
#define OPTIQL_SYNC_TXN_OPS_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "common/annotations.h"
#include "core/optiql.h"
#include "locks/mcs_lock.h"
#include "locks/mcs_rw_lock.h"
#include "locks/optlock.h"
#include "locks/shared_mutex_lock.h"
#include "locks/tts_lock.h"
#include "qnode/qnode_pool.h"

namespace optiql {

// Exclusive-acquisition handles. Distinct tiny structs (not ints/pointers)
// so the slot-based and handle-based UnlockEx overloads can never be
// confused at a call site.
struct NoExHandle {};
struct QNodeExHandle {
  QNode* node = nullptr;
};

// Primary template intentionally undefined: a lock family joins the
// contract by specialization, never by accidental duck typing.
template <class Lock>
struct TxnOps;

// Outcome of an index's record-lock hooks (TxnLockForWrite and friends):
// the record was locked, it does not exist, or a no-wait attempt lost to a
// competing holder (the transaction aborts and retries).
enum class TxnLockStatus { kAcquired, kAbsent, kBusy };

// Concept for "this lock family carries a validatable version word" —
// what Silo-style OCC needs from a host index's locks.
template <class Lock>
concept VersionedLock = TxnOps<Lock>::kVersioned;

template <class Lock>
concept SharedModeLock = TxnOps<Lock>::kSharedMode;

// --- OptLock: centralized, word = [locked | obsolete | version] ------------

template <class BackoffPolicy>
struct TxnOps<BasicOptLock<BackoffPolicy>> {
  using Lock = BasicOptLock<BackoffPolicy>;
  using ExHandle = NoExHandle;
  static constexpr const char* kName =
      std::is_same_v<BackoffPolicy, NoBackoff> ? "OptLock" : "OptLock-Backoff";
  static constexpr bool kVersioned = true;
  static constexpr bool kSharedMode = false;

  static bool StableVersion(const Lock& lock, uint64_t& v) {
    return lock.AcquireSh(v);
  }
  static bool ValidateVersion(const Lock& lock, uint64_t v) {
    return lock.ReleaseSh(v);
  }
  static uint64_t SnapshotVersion(uint64_t word) {
    return word & Lock::kVersionMask;
  }
  static bool IsObsolete(const Lock& lock) { return lock.IsObsolete(); }

  static ExHandle LockEx(Lock& lock, int /*slot*/) {
    lock.AcquireEx();
    return {};
  }
  static bool TryLockEx(Lock& lock, int /*slot*/, ExHandle& handle) {
    handle = {};
    return lock.TryAcquireEx();
  }
  static bool TryUpgrade(Lock& lock, uint64_t v, int /*slot*/,
                         ExHandle& handle) {
    handle = {};
    return lock.TryUpgrade(v);
  }
  static void UnlockEx(Lock& lock, ExHandle) { lock.ReleaseEx(); }
  static void UnlockExNoBump(Lock& lock, ExHandle) { lock.ReleaseExNoBump(); }
  static void UnlockExObsolete(Lock& lock, ExHandle) {
    lock.ReleaseExObsolete();
  }
  // While held, the word is `snapshot | kLockedBit`: the version field
  // still carries the pre-acquisition version.
  static uint64_t HeldVersion(const Lock& lock, const ExHandle&) {
    return lock.LoadWord() & Lock::kVersionMask;
  }
};

// --- OptiQL: MCS-queued, version handed over through the queue node --------

template <bool kEnableOpRead>
struct TxnOps<BasicOptiQL<kEnableOpRead>> {
  using Lock = BasicOptiQL<kEnableOpRead>;
  using ExHandle = QNodeExHandle;
  static constexpr const char* kName = kEnableOpRead ? "OptiQL" : "OptiQL-NOR";
  static constexpr bool kVersioned = true;
  static constexpr bool kSharedMode = false;

  static bool StableVersion(const Lock& lock, uint64_t& v) {
    return lock.AcquireSh(v);
  }
  static bool ValidateVersion(const Lock& lock, uint64_t v) {
    return lock.ReleaseSh(v);
  }
  static uint64_t SnapshotVersion(uint64_t word) {
    return Lock::VersionOf(word);
  }
  static bool IsObsolete(const Lock& lock) { return lock.IsObsolete(); }

  static ExHandle LockEx(Lock& lock, int slot) {
    QNode* node = ThreadQNodes::Get(slot);
    lock.AcquireEx(node);
    return {node};
  }
  static bool TryUpgrade(Lock& lock, uint64_t v, int slot, ExHandle& handle) {
    QNode* node = ThreadQNodes::Get(slot);
    if (!lock.TryUpgrade(v, node)) return false;
    handle = {node};
    return true;
  }
  static void UnlockEx(Lock& lock, ExHandle handle) {
    lock.ReleaseEx(handle.node);
  }
  static void UnlockExNoBump(Lock& lock, ExHandle handle) {
    lock.ReleaseExNoBump(handle.node);
  }
  static void UnlockExObsolete(Lock& lock, ExHandle handle) {
    lock.ReleaseExObsolete(handle.node);
  }
  // The grant stored NextVersion(snapshot) in the holder's queue node;
  // modular -1 recovers the version an overlapping (or opportunistic-read)
  // snapshot must carry for the protected data to be unchanged.
  static uint64_t HeldVersion(const Lock&, const ExHandle& handle) {
    return (handle.node->version.load(std::memory_order_relaxed) +
            Lock::kVersionMask) &
           Lock::kVersionMask;
  }
};

// --- Exclusive-only centralized locks: TTS, TTS-backoff --------------------

template <class L>
struct CentralizedExclusiveTxnOps {
  using Lock = L;
  using ExHandle = NoExHandle;
  static constexpr bool kVersioned = false;
  static constexpr bool kSharedMode = false;

  static ExHandle LockEx(Lock& lock, int /*slot*/) OPTIQL_ACQUIRE(lock) {
    lock.AcquireEx();
    return {};
  }
  static void UnlockEx(Lock& lock, ExHandle) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx();
  }
};

template <class BackoffPolicy>
struct TxnOps<BasicTtsLock<BackoffPolicy>>
    : CentralizedExclusiveTxnOps<BasicTtsLock<BackoffPolicy>> {
  static constexpr const char* kName =
      std::is_same_v<BackoffPolicy, NoBackoff> ? "TTS" : "TTS-Backoff";
};

// --- Exclusive-only queue lock: MCS (thread-owned node) -------------------

template <>
struct TxnOps<McsLock> {
  using Lock = McsLock;
  using ExHandle = QNodeExHandle;
  static constexpr const char* kName = "MCS";
  static constexpr bool kVersioned = false;
  static constexpr bool kSharedMode = false;

  static ExHandle LockEx(Lock& lock, int slot) OPTIQL_ACQUIRE(lock) {
    QNode* node = ThreadQNodes::Get(slot);
    lock.AcquireEx(node);
    return {node};
  }
  static void UnlockEx(Lock& lock, ExHandle handle) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx(handle.node);
  }
};

// --- MCS-RW: pessimistic reader-writer, no version word --------------------

template <>
struct TxnOps<McsRwLock> {
  using Lock = McsRwLock;
  using ExHandle = QNodeExHandle;
  static constexpr const char* kName = "MCS-RW";
  static constexpr bool kVersioned = false;
  static constexpr bool kSharedMode = true;

  // Slot-based blocking surface (RW-leaf B+-trees, ART coupling).
  static void LockSh(Lock& lock, int slot) OPTIQL_ACQUIRE_SHARED(lock) {
    lock.AcquireSh(ThreadQNodes::Get(slot));
  }
  static void UnlockSh(Lock& lock, int slot) OPTIQL_RELEASE_SHARED(lock) {
    lock.ReleaseSh(ThreadQNodes::Get(slot));
  }
  static ExHandle LockEx(Lock& lock, int slot) OPTIQL_ACQUIRE(lock) {
    QNode* node = ThreadQNodes::Get(slot);
    lock.AcquireEx(node);
    return {node};
  }
  static void UnlockEx(Lock& lock, int slot) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx(ThreadQNodes::Get(slot));
  }

  // Handle-based release, pairing with LockEx's handle.
  static void UnlockEx(Lock& lock, ExHandle handle) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx(handle.node);
  }
};

// --- shared_mutex (the paper's pthread baseline) ----------------------------

template <>
struct TxnOps<SharedMutexLock> {
  using Lock = SharedMutexLock;
  using ExHandle = NoExHandle;
  static constexpr const char* kName = "pthread";
  static constexpr bool kVersioned = false;
  static constexpr bool kSharedMode = true;

  static void LockSh(Lock& lock, int /*slot*/) OPTIQL_ACQUIRE_SHARED(lock) {
    lock.AcquireSh();
  }
  static void UnlockSh(Lock& lock, int /*slot*/) OPTIQL_RELEASE_SHARED(lock) {
    lock.ReleaseSh();
  }
  static ExHandle LockEx(Lock& lock, int /*slot*/) OPTIQL_ACQUIRE(lock) {
    lock.AcquireEx();
    return {};
  }
  static void UnlockEx(Lock& lock, int /*slot*/) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx();
  }
  static void UnlockEx(Lock& lock, ExHandle) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx();
  }
};

}  // namespace optiql

#endif  // OPTIQL_SYNC_TXN_OPS_H_
