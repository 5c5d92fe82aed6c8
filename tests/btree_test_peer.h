// Test peer for BTree internals. BTree friends `optiql::BTreeTestPeer`, so
// this is its one definition, shared by every test that needs to reach a
// tree's private nodes or locks.
#ifndef OPTIQL_TESTS_BTREE_TEST_PEER_H_
#define OPTIQL_TESTS_BTREE_TEST_PEER_H_

#include <atomic>

#include "index/btree.h"

namespace optiql {

struct BTreeTestPeer {
  // PublishSplit with deliberately wrong lock states, to prove the
  // SMO-ordering invariants fire. Only ever called inside EXPECT_DEATH
  // children, so the bogus split never lands in a tree another test can
  // see.
  template <class Tree>
  static void PublishSplitWithUnlockedParent(Tree& tree) {
    auto* parent = Tree::AsInner(tree.root_.load(std::memory_order_acquire));
    typename Tree::NodeBase* left = parent->children[0];
    auto* right = new typename Tree::Leaf();
    tree.PublishSplit(parent, left, right, /*separator=*/0);
  }

  template <class Tree>
  static void PublishSplitWithUnlockedLeft(Tree& tree) {
    auto* parent = Tree::AsInner(tree.root_.load(std::memory_order_acquire));
    parent->lock.AcquireEx();  // Parent held, left half deliberately not.
    typename Tree::NodeBase* left = parent->children[0];
    auto* right = new typename Tree::Leaf();
    tree.PublishSplit(parent, left, right, /*separator=*/0);
  }

  // Takes and releases the exclusive lock of an inner root once, bumping
  // its version: every optimistic descent overlapping it restarts at the
  // root. The tree must not change shape meanwhile.
  template <class Tree>
  static void CycleRootLock(Tree& tree) {
    auto* root = Tree::AsInner(tree.root_.load(std::memory_order_acquire));
    root->lock.AcquireEx();
    root->lock.ReleaseEx();
  }
};

}  // namespace optiql

#endif  // OPTIQL_TESTS_BTREE_TEST_PEER_H_
