// Negative misuse tests for the checked-invariant build
// (-DOPTIQL_CHECK_INVARIANTS=ON): each test deliberately breaks a lock's
// protocol — double release, upgrade from a stale snapshot, freeing a
// queue node that is still enqueued — and passes only when the
// corresponding OPTIQL_INVARIANT fires. In a release build the tests are
// skipped: the misuse would be silent corruption there, which is exactly
// the point of the checked build.
//
// Death tests fork per EXPECT_DEATH, so the deliberately corrupted lock
// state never leaks into other tests.

#include <cstdint>

#include "btree_test_peer.h"
#include "core/optiql.h"
#include "gtest/gtest.h"
#include "index/btree.h"
#include "locks/mcs_lock.h"
#include "locks/mcs_rw_lock.h"
#include "locks/optlock.h"
#include "locks/tts_lock.h"
#include "qnode/qnode_pool.h"
#include "sync/txn_ops.h"
#include "txn/txn.h"

namespace optiql {

namespace {

#if defined(OPTIQL_CHECK_INVARIANTS) && OPTIQL_CHECK_INVARIANTS

constexpr const char* kDeathMessage = "OPTIQL_INVARIANT failed";

class InvariantDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Fork-after-threads is unsafe with the "fast" style once the epoch /
    // registry singletons have spun up.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

TEST_F(InvariantDeathTest, OptLockDoubleRelease) {
  OptLock lock;
  lock.AcquireEx();
  lock.ReleaseEx();
  EXPECT_DEATH(lock.ReleaseEx(), kDeathMessage);
}

TEST_F(InvariantDeathTest, OptLockReleaseWithoutAcquire) {
  OptLock lock;
  EXPECT_DEATH(lock.ReleaseExNoBump(), kDeathMessage);
}

TEST_F(InvariantDeathTest, OptLockObsoleteWithoutLock) {
  OptLock lock;
  EXPECT_DEATH(lock.ReleaseExObsolete(), kDeathMessage);
}

// The real footgun: TryUpgrade with a snapshot taken while the lock was
// held. If the word is unchanged the CAS *succeeds* (v | locked == v) and
// two writers both believe they own the lock.
TEST_F(InvariantDeathTest, OptLockUpgradeFromLockedSnapshot) {
  OptLock lock;
  lock.AcquireEx();
  const uint64_t stale = lock.LoadWord();  // LOCKED bit set.
  EXPECT_DEATH(lock.TryUpgrade(stale), kDeathMessage);
}

TEST_F(InvariantDeathTest, TtsDoubleRelease) {
  TtsLock lock;
  lock.AcquireEx();
  lock.ReleaseEx();
  EXPECT_DEATH(lock.ReleaseEx(), kDeathMessage);
}

TEST_F(InvariantDeathTest, McsDoubleRelease) {
  McsLock lock;
  QNodeGuard guard;
  lock.AcquireEx(guard.node());
  lock.ReleaseEx(guard.node());
  EXPECT_DEATH(lock.ReleaseEx(guard.node()), kDeathMessage);
}

TEST_F(InvariantDeathTest, McsAcquireWithEnqueuedNode) {
  McsLock a;
  McsLock b;
  QNodeGuard guard;
  a.AcquireEx(guard.node());
  EXPECT_DEATH(b.AcquireEx(guard.node()), kDeathMessage);
  a.ReleaseEx(guard.node());  // So the guard returns an idle node.
}

TEST_F(InvariantDeathTest, McsRwDoubleReleaseEx) {
  McsRwLock lock;
  QNodeGuard guard;
  lock.AcquireEx(guard.node());
  lock.ReleaseEx(guard.node());
  EXPECT_DEATH(lock.ReleaseEx(guard.node()), kDeathMessage);
}

// Without the invariant this would HANG in WaitForSuccessorOrLeave (the
// queue never contained the node), not fail cleanly.
TEST_F(InvariantDeathTest, McsRwReleaseShWithoutAcquire) {
  McsRwLock lock;
  QNodeGuard guard;
  EXPECT_DEATH(lock.ReleaseSh(guard.node()), kDeathMessage);
}

TEST_F(InvariantDeathTest, OptiQlDoubleRelease) {
  OptiQL lock;
  QNodeGuard guard;
  lock.AcquireEx(guard.node());
  lock.ReleaseEx(guard.node());
  EXPECT_DEATH(lock.ReleaseEx(guard.node()), kDeathMessage);
}

TEST_F(InvariantDeathTest, OptiQlReleaseWithoutAcquire) {
  OptiQL lock;
  QNodeGuard guard;
  EXPECT_DEATH(lock.ReleaseEx(guard.node()), kDeathMessage);
}

// Returning a queue node to the pool while it still sits in a lock's
// queue: the classic validate-after-free setup — the next Acquire would
// hand the same node to another thread while the queue still links it.
TEST_F(InvariantDeathTest, OptiQlFreeEnqueuedQNode) {
  OptiQL lock;
  QNodePool& pool = QNodePool::Instance();
  QNode* node = pool.Acquire();
  ASSERT_NE(node, nullptr);
  lock.AcquireEx(node);
  EXPECT_DEATH(pool.Release(node), kDeathMessage);
  lock.ReleaseEx(node);
  pool.Release(node);
}

TEST_F(InvariantDeathTest, QNodePoolDoubleRelease) {
  QNodePool& pool = QNodePool::Instance();
  QNode* node = pool.Acquire();
  ASSERT_NE(node, nullptr);
  pool.Release(node);
  EXPECT_DEATH(pool.Release(node), kDeathMessage);
  // Leave the node in the pool (released exactly once in this process).
}

// --- B+-tree SMO ordering ---
//
// A split becomes visible the instant the separator lands in the parent;
// publishing with the parent (or the half-emptied left node) unlocked
// would expose a torn split to optimistic readers.

TEST_F(InvariantDeathTest, BTreeSplitPublishedIntoUnlockedParent) {
  BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
  for (uint64_t k = 0; k < 4096; ++k) ASSERT_TRUE(tree.Insert(k, k));
  ASSERT_GE(tree.Height(), 2);  // The root must be an inner node.
  EXPECT_DEATH(BTreeTestPeer::PublishSplitWithUnlockedParent(tree),
               kDeathMessage);
}

TEST_F(InvariantDeathTest, BTreeSplitPublishedWithUnlockedLeftHalf) {
  BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
  for (uint64_t k = 0; k < 4096; ++k) ASSERT_TRUE(tree.Insert(k, k));
  ASSERT_GE(tree.Height(), 2);
  EXPECT_DEATH(BTreeTestPeer::PublishSplitWithUnlockedLeft(tree),
               kDeathMessage);
}

// --- Transaction-layer misuse (src/txn/ + the TxnOps facade) ---
//
// The transaction protocols have their own lifecycle invariants on top of
// the lock state machines: a finished transaction is dead, a guard that
// never locked a record cannot install, and releasing through TxnOps
// still trips the underlying lock's double-release check.

using TxnTree = BTree<uint64_t, uint64_t, BTreeOlcPolicy>;

TEST_F(InvariantDeathTest, TxnCommitTwice) {
  TxnTree tree;
  ASSERT_TRUE(tree.Insert(1, 10));
  OccTxn<TxnTree> txn(tree);
  uint64_t out = 0;
  ASSERT_EQ(txn.Get(1, out), TxnResult::kOk);
  ASSERT_TRUE(txn.Commit());
  EXPECT_DEATH(txn.Commit(), kDeathMessage);
}

TEST_F(InvariantDeathTest, TxnPutAfterAbort) {
  TxnTree tree;
  ASSERT_TRUE(tree.Insert(1, 10));
  TwoPlTxn<TxnTree> txn(tree);
  uint64_t out = 0;
  ASSERT_EQ(txn.Get(1, out), TxnResult::kOk);
  txn.Abort();
  EXPECT_DEATH(txn.Put(1, 11), kDeathMessage);
}

TEST_F(InvariantDeathTest, TxnGuardInstallWithoutLockedRecord) {
  TxnTree::TxnWriteGuard guard;
  EXPECT_DEATH(guard.Install(1), kDeathMessage);
}

TEST_F(InvariantDeathTest, TxnOpsDoubleUnlockEx) {
  OptLock lock;
  const TxnOps<OptLock>::ExHandle handle =
      TxnOps<OptLock>::LockEx(lock, /*slot=*/0);
  TxnOps<OptLock>::UnlockEx(lock, handle);
  EXPECT_DEATH(TxnOps<OptLock>::UnlockEx(lock, handle), kDeathMessage);
}

#else  // !OPTIQL_CHECK_INVARIANTS

TEST(InvariantDeathTest, SkippedInReleaseBuild) {
  GTEST_SKIP() << "invariant checks compiled out; configure with "
                  "-DOPTIQL_CHECK_INVARIANTS=ON";
}

#endif  // OPTIQL_CHECK_INVARIANTS

}  // namespace
}  // namespace optiql
