// Thread-safety-analysis conformance TU.
//
// This file exercises every annotated lock with *correct* protocol usage
// and implicitly instantiates the reader-writer-locked index templates
// (the RW-leaf B+-trees and the ART coupling trees), giving Clang's
// -Wthread-safety pass (CI job `thread-safety`) concrete instantiations to
// analyze. Templates are only analyzed at instantiation, so without this
// TU the annotations could rot silently. Implicit instantiation is
// deliberate: explicit `template class` instantiation would compile every
// member — including the optimistic helpers that TSA cannot model — while
// calling only the public ops instantiates exactly the annotated surface.
//
// It is also compiled by the regular (GCC) build as an object library so
// signature drift breaks the build locally, not just in CI.
//
// Nothing here runs; functions below only need to compile warning-free.

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "index/art_coupling.h"
#include "index/btree.h"
#include "locks/mcs_lock.h"
#include "locks/mcs_rw_lock.h"
#include "locks/optlock.h"
#include "locks/shared_mutex_lock.h"
#include "locks/tts_lock.h"
#include "qnode/qnode_pool.h"
#include "sync/txn_ops.h"

namespace optiql {
namespace tsa_conformance {

// --- Guarded data: proves ACQUIRE/RELEASE annotations actually convey the
// capability to the analysis (a GUARDED_BY access compiles only while the
// lock is held). ---

class GuardedCounter {
 public:
  void Bump() {
    lock_.AcquireEx();
    ++value_;
    lock_.ReleaseEx();
  }

  bool TryBump() {
    if (!lock_.TryAcquireEx()) return false;
    ++value_;
    lock_.ReleaseEx();
    return true;
  }

 private:
  TtsLock lock_;
  uint64_t value_ OPTIQL_GUARDED_BY(lock_) = 0;
};

void UseGuardedCounter() {
  GuardedCounter counter;
  counter.Bump();
  counter.TryBump();
}

// --- Plain exclusive locks ---

void TtsCorrect() {
  TtsLock lock;
  lock.AcquireEx();
  lock.ReleaseEx();
  if (lock.TryAcquireEx()) lock.ReleaseEx();
}

void SharedMutexCorrect() {
  SharedMutexLock lock;
  lock.AcquireEx();
  lock.ReleaseEx();
  lock.AcquireSh();
  lock.ReleaseSh();
}

// --- Queue-based locks: the qnode is plumbing, the capability is the lock ---

void McsCorrect() {
  McsLock lock;
  QNodeGuard guard;
  lock.AcquireEx(guard.node());
  lock.ReleaseEx(guard.node());
  if (lock.TryAcquireEx(guard.node())) lock.ReleaseEx(guard.node());
}

void McsRwCorrect() {
  McsRwLock lock;
  QNodeGuard guard;
  lock.AcquireEx(guard.node());
  lock.ReleaseEx(guard.node());
  lock.AcquireSh(guard.node());
  lock.ReleaseSh(guard.node());
}

// --- OptLock: only the exclusive (writer) side is annotated; the
// optimistic read side is speculative and opts out by design. ---

void OptLockCorrect() {
  OptLock lock;
  lock.AcquireEx();
  lock.ReleaseEx();
  if (lock.TryAcquireEx()) lock.ReleaseExNoBump();
  const uint64_t v = lock.LoadWord();
  if (lock.TryUpgrade(v)) lock.ReleaseEx();
}

// --- TxnOps facade: forwards the capability through the template
// specializations, so callers are checked exactly like direct users —
// including the no-wait surface the transaction layer relies on. ---

template <class Lock>
void TxnOpsExclusiveCorrect() {
  Lock lock;
  using Ops = TxnOps<Lock>;
  const typename Ops::ExHandle handle = Ops::LockEx(lock, 0);
  Ops::UnlockEx(lock, handle);
}

void TxnOpsExclusiveFamiliesCorrect() {
  TxnOpsExclusiveCorrect<TtsLock>();
  TxnOpsExclusiveCorrect<TtsBackoffLock>();
  TxnOpsExclusiveCorrect<McsLock>();
}

void TxnOpsCorrect() {
  McsRwLock rw;
  using ROps = TxnOps<McsRwLock>;
  ROps::LockSh(rw, 0);
  ROps::UnlockSh(rw, 0);
  ROps::LockEx(rw, 0);
  ROps::UnlockEx(rw, 0);
  ROps::UnlockEx(rw, ROps::LockEx(rw, 0));

  SharedMutexLock sm;
  using SOps = TxnOps<SharedMutexLock>;
  SOps::LockSh(sm, 0);
  SOps::UnlockSh(sm, 0);
  SOps::LockEx(sm, 0);
  SOps::UnlockEx(sm, 0);
  SOps::UnlockEx(sm, SOps::LockEx(sm, 0));
}

// --- Reader-writer index instantiations: calling the public ops
// instantiates the shared-mode leaf steps and the hand-over-hand ART
// bodies, which must carry their OPTIQL_NO_THREAD_SAFETY_ANALYSIS opt-outs
// to compile under -Werror. ---

// Keys arrive as parameters of the never-called entry point below so the
// optimizer cannot const-fold the tree ops (folding literal keys trips a
// GCC -Wstringop-overflow false positive inside the ART node copy loops).

template <class Tree>
void DriveBTree(uint64_t key, uint64_t value) {
  Tree tree;
  uint64_t out = 0;
  std::vector<std::pair<uint64_t, uint64_t>> scanned;
  tree.Insert(key, value);
  tree.Update(key, value + 1);
  tree.Lookup(key, out);
  tree.Scan(key, 4, scanned);
  tree.Remove(key);
}

template <class Tree>
void DriveArt(std::string_view key, uint64_t value) {
  Tree tree;
  uint64_t out = 0;
  tree.Insert(key, value);
  tree.Update(key, value + 1);
  tree.Lookup(key, out);
  tree.Remove(key);
}

void InstantiateRwIndexes(uint64_t key, std::string_view skey,
                          uint64_t value) {
  DriveBTree<BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<McsRwLock>>>(key,
                                                                      value);
  DriveBTree<BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<SharedMutexLock>>>(
      key, value);
  DriveArt<ArtCouplingTree<McsRwLock>>(skey, value);
  DriveArt<ArtCouplingTree<SharedMutexLock>>(skey, value);
}

}  // namespace tsa_conformance
}  // namespace optiql
