// Memory-optimized B+-tree in the BTreeOLC style (Leis & Wang; paper §6.1),
// parameterized over the node size and the synchronization policy. Every
// policy and every operation shares one descent: inner nodes carry an
// OptLock and are read optimistically through one validated inner step
// (root snapshot, then pick child -> prefetch -> validate parent ->
// snapshot child -> validate parent), which stops at the leaf's edge; the
// only axis is the leaf step.
//
//   * BTreeOlcPolicy            — classic optimistic lock coupling with the
//                                 centralized OptLock everywhere (baseline):
//                                 writers upgrade the leaf snapshot.
//   * BTreeOptiQlPolicy<L,AOR>  — the paper's adapted protocol (Algorithm
//                                 4): leaves use OptiQL (or OptiQL-NOR);
//                                 writers take a stable leaf snapshot, then
//                                 lock the leaf with the queue-based lock
//                                 instead of upgrading, then validate the
//                                 parent. With AOR the opportunistic-read
//                                 window inherited during handover stays
//                                 open through the in-leaf search (§6.1
//                                 last paragraph).
//   * BTreeRwLeafPolicy<L>      — the paper's reader-writer-lock baseline
//                                 (MCS-RW, pthread): the same direct-leaf
//                                 write step over an RW leaf lock, whose
//                                 readers take the leaf shared and then
//                                 validate the parent.
//
// The leaf read discipline follows the leaf lock's TxnOps contract:
// versioned leaves are read optimistically (snapshot, copy, validate),
// the others under their shared mode. Every policy writes a leaf only
// under its exclusive lock: no store to a node field happens outside a
// critical section.
//
// Structural decisions (all standard for memory-optimized B+-trees):
//   * Small nodes (default 256 bytes, Figure 11 sweeps 256B..16KB).
//   * Eager top-down splits: a full node is split while descending, so a
//     writer holds at most two locks and SMOs never propagate upwards.
//   * Eager top-down merges, mirroring the split discipline: a remove that
//     passes an underfull node (quarter-full) merges it with a sibling or
//     refills it by rotation while descending, holding at most parent +
//     node + sibling. Unlinked nodes are marked obsolete on their lock and
//     retired through the epoch layer, so optimistic readers still parked
//     on them fail validation instead of touching freed memory; a root
//     that loses its last separator is collapsed onto its single child.
//
// Every public operation runs inside an EpochGuard; node memory retired by
// merges is reclaimed once all concurrent readers have moved on (same
// scheme ART uses for node growth).
//
// Concurrency discipline for optimistic readers: a value read from a node
// (child pointer, key, count) may be torn by a concurrent writer; it is
// therefore *never dereferenced or trusted* until the node's version has
// been re-validated. Counts are additionally clamped to the node capacity
// so even torn reads stay in bounds.
#ifndef OPTIQL_INDEX_BTREE_H_
#define OPTIQL_INDEX_BTREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "common/platform.h"
#include "common/prefetch.h"
#include "common/simd.h"
#include "core/optiql.h"
#include "locks/mcs_rw_lock.h"
#include "locks/optlock.h"
#include "locks/shared_mutex_lock.h"
#include "qnode/qnode_pool.h"
#include "sync/epoch.h"
#include "sync/lock_telemetry.h"
#include "sync/txn_ops.h"

namespace optiql {

enum class BTreeProtocol { kOlc, kOptiQl };

struct BTreeOlcPolicy {
  static constexpr BTreeProtocol kProtocol = BTreeProtocol::kOlc;
  static constexpr bool kAdjustableOpRead = false;
  using InnerLock = OptLock;
  using LeafLock = OptLock;
};

template <class QlLock, bool kAor = false>
struct BTreeOptiQlPolicy {
  static constexpr BTreeProtocol kProtocol = BTreeProtocol::kOptiQl;
  static constexpr bool kAdjustableOpRead = kAor;
  using InnerLock = OptLock;
  using LeafLock = QlLock;
};

// OptLock inner nodes over a reader-writer leaf lock (McsRwLock or
// SharedMutexLock) — the authors' "OptLocks on inner nodes and MCS RW
// locks on leaf nodes" baseline, run through the direct-leaf step.
template <class RwLock>
using BTreeRwLeafPolicy = BTreeOptiQlPolicy<RwLock>;

template <class Key, class Value, class SyncPolicy = BTreeOlcPolicy,
          size_t kNodeBytes = 256>
class BTree {
 public:
  static constexpr BTreeProtocol kProtocol = SyncPolicy::kProtocol;
  static constexpr bool kAor = SyncPolicy::kAdjustableOpRead;
  using InnerLock = typename SyncPolicy::InnerLock;
  using LeafLock = typename SyncPolicy::LeafLock;
  using InnerOps = TxnOps<InnerLock>;
  using LeafOps = TxnOps<LeafLock>;

  // Leaf read discipline, from the leaf lock's contract: a versioned leaf
  // is read optimistically like the inner nodes; a reader-writer leaf has
  // no version word and is read under its shared mode.
  static constexpr bool kSharedLeafReads = !LeafOps::kVersioned;
  static_assert(!kSharedLeafReads || (LeafOps::kSharedMode &&
                                      kProtocol == BTreeProtocol::kOptiQl),
                "an unversioned leaf lock needs a shared mode and the "
                "direct-leaf write step");

  BTree() { root_.store(new Leaf(), std::memory_order_release); }

  ~BTree() {
    FreeSubtree(root_.load(std::memory_order_acquire));
    // Nodes retired by merges may still sit on this thread's epoch list;
    // sweep what is provably safe so long-lived processes don't accumulate.
    EpochManager::Instance().ReclaimIfPossible();
  }

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Inserts (key, value). Returns false (no change) if the key exists.
  bool Insert(const Key& key, const Value& value) {
    return Write(key, &value, WriteKind::kInsert);
  }

  // Updates the value of an existing key; false if the key is absent.
  bool Update(const Key& key, const Value& value) {
    return Write(key, &value, WriteKind::kUpdate);
  }

  // Inserts or updates.
  void Upsert(const Key& key, const Value& value) {
    Write(key, &value, WriteKind::kUpsert);
  }

  // Removes the key; false if absent. Underfull nodes are merged with or
  // refilled from a sibling on the way down; emptied nodes are retired
  // through the epoch layer.
  bool Remove(const Key& key) {
    return Write(key, nullptr, WriteKind::kRemove);
  }

  // Point lookup; copies the value into `out`.
  bool Lookup(const Key& key, Value& out) const {
    EpochGuard guard;
    if constexpr (kSharedLeafReads) {
      return LookupSharedLeaf(key, out);
    } else {
      return LookupOptimistic(key, out);
    }
  }

  // Interleave bounds for LookupBatch: the lane ring lives on the stack,
  // and past ~32 in-flight descents the prefetches start evicting each
  // other instead of overlapping.
  static constexpr size_t kMaxBatchLanes = 32;
  static constexpr size_t kDefaultBatchLanes = 8;

  // Batched point lookup: runs up to `interleave` descents at once as a
  // ring of small state machines (AMAC / group-prefetch style), so the
  // per-level cache-miss chains of the in-flight lookups overlap instead
  // of serializing. One EpochGuard covers the whole batch. `found[i]` is
  // written for every i; `values[i]` only where `found[i]` is true.
  // Returns the number of hits. Results are identical to calling Lookup
  // per key in batch order. Only for versioned leaves: a lane parked on a
  // shared-locked leaf would block every other lane, so reader-writer leaf
  // trees fall back to the generic loop in index_ops.h.
  size_t LookupBatch(const Key* keys, size_t n, Value* values, bool* found,
                     size_t interleave = kDefaultBatchLanes) const
    requires(LeafOps::kVersioned)
  {
    EpochGuard guard;
    return LookupBatchRouted(
        keys, n, values, found, [this](const Key&) { return this; },
        interleave);
  }

  // LookupBatch over many trees of this type: key i is looked up in the
  // tree `tree_of(keys[i])` returns, evaluated once, when a lane takes the
  // key. One lane ring spans every tree's root (a ShardedStore batch keeps
  // `interleave` descents in flight however its keys spread), and a lane
  // restart counts against its own tree. The caller holds an EpochGuard
  // that keeps every tree `tree_of` can return alive.
  template <class TreeOf>
  static size_t LookupBatchRouted(const Key* keys, size_t n, Value* values,
                                  bool* found, TreeOf&& tree_of,
                                  size_t interleave = kDefaultBatchLanes)
    requires(LeafOps::kVersioned)
  {
    if (n == 0) return 0;
    size_t lane_count = interleave < n ? interleave : n;
    if (lane_count > kMaxBatchLanes) lane_count = kMaxBatchLanes;
    if (lane_count <= 1) {
      // Loop of singles — the baseline the interleaved path is
      // benchmarked against, and the right choice for tiny batches where
      // lane bookkeeping costs more than it hides.
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) {
        found[i] = tree_of(keys[i])->LookupOptimistic(keys[i], values[i]);
        if (found[i]) ++hits;
      }
      return hits;
    }
    return LookupInterleaved(keys, n, values, found, tree_of, lane_count);
  }

  // Ascending range scan starting at `start` (inclusive); copies up to
  // `limit` pairs into `out`. Returns the number copied.
  size_t Scan(const Key& start, size_t limit,
              std::vector<std::pair<Key, Value>>& out) const {
    out.clear();
    if (limit == 0) return 0;
    EpochGuard guard;
    if constexpr (kSharedLeafReads) {
      return ScanSharedLeaf(start, limit, out);
    } else {
      return ScanOptimistic(start, limit, out);
    }
  }

  // Bottom-up bulk load of sorted, unique (key, value) pairs into an EMPTY
  // tree. Not thread-safe (call before sharing the tree). Leaves are filled
  // to ~90% so the first trickle of inserts does not split everywhere at
  // once. Aborts if the tree is non-empty or the input is not strictly
  // ascending.
  void BulkLoad(const std::vector<std::pair<Key, Value>>& pairs) {
    OPTIQL_CHECK(Size() == 0);
    if (pairs.empty()) return;
    const uint16_t per_leaf =
        std::max<uint16_t>(1, static_cast<uint16_t>(kLeafMax * 9 / 10));

    std::vector<NodeBase*> level_nodes;
    std::vector<Key> level_keys;  // Minimum key of each node after [0].
    Leaf* prev = nullptr;
    for (size_t i = 0; i < pairs.size();) {
      Leaf* leaf = new Leaf();
      live_nodes_.fetch_add(1, std::memory_order_relaxed);
      const size_t take = std::min<size_t>(per_leaf, pairs.size() - i);
      for (size_t j = 0; j < take; ++j) {
        if (i + j > 0) {
          OPTIQL_CHECK(pairs[i + j - 1].first < pairs[i + j].first);
        }
        leaf->keys[j] = pairs[i + j].first;
        leaf->values[j] = pairs[i + j].second;
      }
      leaf->count = static_cast<uint16_t>(take);
      if (prev != nullptr) prev->next = leaf;
      prev = leaf;
      if (!level_nodes.empty()) level_keys.push_back(leaf->keys[0]);
      level_nodes.push_back(leaf);
      i += take;
    }
    size_.store(pairs.size(), std::memory_order_release);

    // Build inner levels until a single root remains.
    uint16_t level = 1;
    const uint16_t per_inner =
        std::max<uint16_t>(2, static_cast<uint16_t>(kInnerMax * 9 / 10));
    while (level_nodes.size() > 1) {
      std::vector<NodeBase*> upper_nodes;
      std::vector<Key> upper_keys;
      for (size_t i = 0; i < level_nodes.size();) {
        Inner* inner = new Inner(level);
        live_nodes_.fetch_add(1, std::memory_order_relaxed);
        size_t children =
            std::min<size_t>(per_inner + 1u, level_nodes.size() - i);
        // Never leave a single orphan child for the next inner node.
        if (level_nodes.size() - i - children == 1) --children;
        inner->children[0] = level_nodes[i];
        for (size_t j = 1; j < children; ++j) {
          inner->keys[j - 1] = level_keys[i + j - 1];
          inner->children[j] = level_nodes[i + j];
        }
        inner->count = static_cast<uint16_t>(children - 1);
        if (!upper_nodes.empty()) upper_keys.push_back(level_keys[i - 1]);
        upper_nodes.push_back(inner);
        i += children;
      }
      level_nodes.swap(upper_nodes);
      level_keys.swap(upper_keys);
      ++level;
    }
    NodeBase* old_root = root_.load(std::memory_order_acquire);
    root_.store(level_nodes[0], std::memory_order_release);
    // LINT-ALLOW(raw-delete): BulkLoad is documented single-threaded; the
    // replaced initial tree was never visible to a concurrent reader.
    live_nodes_.fetch_sub(static_cast<int64_t>(FreeSubtree(old_root)),
                          std::memory_order_relaxed);  // The initial leaf.
  }

  // Number of live keys (exact when quiescent).
  size_t Size() const { return size_.load(std::memory_order_acquire); }

  int Height() const {
    return root_.load(std::memory_order_acquire)->level + 1;
  }

  // Number of live (reachable) nodes; retired-but-unreclaimed nodes are not
  // counted. Exact when quiescent — the steady-state metric for churn
  // workloads (a tree without merges grows this without bound).
  size_t NodeCount() const {
    return static_cast<size_t>(live_nodes_.load(std::memory_order_acquire));
  }

  // Single-threaded structural check for tests: sortedness, separator
  // bounds, level consistency and key count. Aborts on violation.
  void CheckInvariants() const {
    size_t keys = 0;
    CheckSubtree(root_.load(std::memory_order_acquire), nullptr, nullptr,
                 &keys);
    OPTIQL_CHECK(keys == Size());
  }

  static constexpr size_t LeafCapacity();
  static constexpr size_t InnerCapacity();

  // Operation statistics (relaxed counters; exact when quiescent). Restarts
  // quantify the optimistic protocols' wasted work under contention — the
  // paper's CAS-retry-storm story in numbers.
  struct Stats {
    uint64_t read_restarts;
    uint64_t write_restarts;
    uint64_t leaf_splits;
    uint64_t inner_splits;
    uint64_t leaf_merges;
    uint64_t inner_merges;
    uint64_t rebalance_borrows;
    uint64_t root_collapses;
    uint64_t nodes_retired;
  };

  Stats GetStats() const {
    return Stats{read_restarts_.load(std::memory_order_relaxed),
                 write_restarts_.load(std::memory_order_relaxed),
                 leaf_splits_.load(std::memory_order_relaxed),
                 inner_splits_.load(std::memory_order_relaxed),
                 leaf_merges_.load(std::memory_order_relaxed),
                 inner_merges_.load(std::memory_order_relaxed),
                 rebalance_borrows_.load(std::memory_order_relaxed),
                 root_collapses_.load(std::memory_order_relaxed),
                 nodes_retired_.load(std::memory_order_relaxed)};
  }

  void ResetStats() {
    read_restarts_.store(0, std::memory_order_relaxed);
    write_restarts_.store(0, std::memory_order_relaxed);
    leaf_splits_.store(0, std::memory_order_relaxed);
    inner_splits_.store(0, std::memory_order_relaxed);
    leaf_merges_.store(0, std::memory_order_relaxed);
    inner_merges_.store(0, std::memory_order_relaxed);
    rebalance_borrows_.store(0, std::memory_order_relaxed);
    root_collapses_.store(0, std::memory_order_relaxed);
    nodes_retired_.store(0, std::memory_order_relaxed);
  }

 private:
  // Test peer (tests/btree_test_peer.h): drives PublishSplit with
  // deliberately wrong lock states, and cycles the root's lock.
  friend struct BTreeTestPeer;

  // Accumulates (attempts - 1) restarts into a stats counter on scope exit:
  // an operation ticks once per attempt, so every restart, at any level of
  // the descent, counts once.
  class RestartCounter {
   public:
    explicit RestartCounter(std::atomic<uint64_t>& sink) : sink_(sink) {}
    ~RestartCounter() {
      if (attempts_ > 1) {
        sink_.fetch_add(attempts_ - 1, std::memory_order_relaxed);
      }
    }
    void Tick() { ++attempts_; }

   private:
    std::atomic<uint64_t>& sink_;
    uint64_t attempts_ = 0;
  };

  enum class WriteKind { kInsert, kUpdate, kUpsert, kRemove };

  struct NodeBase {
    uint16_t level;  // 0 = leaf.
    uint16_t count;  // Entries; racy reads are clamped by users.
  };

  struct Inner;

  // Nodes are cacheline-aligned so the kNodeBytes budget maps to whole
  // lines: the header + lock always share line 0 (one prefetch covers
  // them) and key arrays start at a predictable line.
  struct alignas(kCachelineSize) Leaf : NodeBase {
    LeafLock lock;
    Leaf* next = nullptr;  // Right sibling (for scans).

    static constexpr size_t kHeader =
        sizeof(NodeBase) + sizeof(LeafLock) + sizeof(Leaf*);
    static constexpr size_t kMax =
        (kNodeBytes > kHeader + sizeof(Key) + sizeof(Value))
            ? (kNodeBytes - kHeader) / (sizeof(Key) + sizeof(Value))
            : 2;

    Key keys[kMax];
    Value values[kMax];

    Leaf() {
      this->level = 0;
      this->count = 0;
    }

    // First position with keys[pos] >= key. `n` must already be clamped
    // (LoadCount) so the kernel never reads outside the array even when
    // the count was torn by a concurrent writer.
    uint16_t LowerBound(const Key& key, uint16_t n) const {
      return simd::LowerBound(keys, n, key);
    }

    // The in-leaf probe: `pos` = LowerBound(key, n), and whether that slot
    // holds `key` (same clamped-`n` contract).
    bool Find(const Key& key, uint16_t n, uint16_t& pos) const {
      pos = LowerBound(key, n);
      return pos < n && keys[pos] == key;
    }
  };

  struct alignas(kCachelineSize) Inner : NodeBase {
    InnerLock lock;

    static constexpr size_t kHeader = sizeof(NodeBase) + sizeof(InnerLock);
    // `count` keys and `count + 1` children must fit. Floor of 3: splitting
    // an inner with fewer than 3 keys would leave the right sibling with
    // none (mid = count/2 keys stay, one moves up, count - mid - 1 move).
    static constexpr size_t kMaxRaw =
        (kNodeBytes > kHeader + sizeof(Key) + 2 * sizeof(void*))
            ? (kNodeBytes - kHeader - sizeof(void*)) /
                  (sizeof(Key) + sizeof(void*))
            : 3;
    static constexpr size_t kMax = kMaxRaw < 3 ? 3 : kMaxRaw;

    Key keys[kMax];
    NodeBase* children[kMax + 1];

    explicit Inner(uint16_t lvl) {
      this->level = lvl;
      this->count = 0;
    }

    // Child index to follow for `key`: first separator > key. `n` must be
    // clamped by the caller (same torn-count contract as Leaf::LowerBound).
    uint16_t ChildIndex(const Key& key, uint16_t n) const {
      return simd::UpperBound(keys, n, key);
    }

    void InsertAt(uint16_t pos, const Key& separator, NodeBase* right) {
      for (uint16_t i = this->count; i > pos; --i) {
        keys[i] = keys[i - 1];
        children[i + 1] = children[i];
      }
      keys[pos] = separator;
      children[pos + 1] = right;
      ++this->count;
    }
  };

  static constexpr uint16_t kLeafMax = static_cast<uint16_t>(Leaf::kMax);
  static constexpr uint16_t kInnerMax = static_cast<uint16_t>(Inner::kMax);
  static_assert(Leaf::kMax >= 2 && Inner::kMax >= 3,
                "node geometry too small to split safely");

  // Layout assumptions the search/prefetch kernels rely on: the packed
  // header (level + count) is exactly 4 bytes, nodes start on a cacheline
  // (so the header + lock share line 0 and kNodeBytes-sized nodes do not
  // straddle an extra line), and the real node size stays within the
  // nominal budget rounded to whole lines — with at most one line of
  // slack for header padding (reachable only for exotic Key/Value sizes
  // or floor-clamped tiny geometries).
  static constexpr size_t kAlignedNodeBudget =
      ((kNodeBytes + kCachelineSize - 1) / kCachelineSize) * kCachelineSize;
  static_assert(sizeof(NodeBase) == 4, "packed node header grew");
  static_assert(alignof(Leaf) == kCachelineSize &&
                    alignof(Inner) == kCachelineSize,
                "nodes must be cacheline-aligned");
  static_assert(sizeof(Leaf) % kCachelineSize == 0 &&
                    sizeof(Inner) % kCachelineSize == 0,
                "node sizes must be whole cachelines");
  static_assert(sizeof(Leaf) <= kAlignedNodeBudget + kCachelineSize,
                "leaf layout exceeds the node-size budget");
  static_assert(sizeof(Inner) <= kAlignedNodeBudget + kCachelineSize,
                "inner layout exceeds the node-size budget");

  // Whole-node line count for the shared prefetch helpers: a batch lane
  // about to search a leaf warms every line (values included), not just
  // the header.
  static constexpr size_t kLeafLines = PrefetchLinesFor(sizeof(Leaf));

  // Warm the lines a descent touches next: line 0 (header + lock + the
  // leading keys) and, for multi-line nodes, the next line of keys. Safe
  // on unvalidated child pointers — prefetch never faults.
  static void PrefetchNodeHeader(const NodeBase* node) {
    PrefetchLines<(kNodeBytes > kCachelineSize) ? 2 : 1>(node);
  }

  // Underflow thresholds for delete-time rebalancing (quarter-full, the
  // usual lazy bound): a remove descending past a node at or below its
  // minimum merges it with a sibling or refills it by rotation. kInnerMin
  // is at least 1 so a child merge — which costs the parent one separator —
  // only runs under a parent keeping >= 1 key, preserving the non-root
  // inner invariant; rebalances that can make no progress (tiny geometry)
  // back out without touching anything.
  static constexpr uint16_t kLeafMin = kLeafMax / 4;
  static constexpr uint16_t kInnerMin =
      kInnerMax / 4 > 1 ? kInnerMax / 4 : 1;

  static bool IsLeaf(const NodeBase* node) { return node->level == 0; }
  static Leaf* AsLeaf(NodeBase* node) { return static_cast<Leaf*>(node); }
  static Inner* AsInner(NodeBase* node) { return static_cast<Inner*>(node); }

  // Invariant support: exclusive-lock introspection across the leaf/inner
  // lock types. A reader-writer leaf lock cannot report an exclusive hold
  // (no IsLockedEx in its contract), so such a leaf passes unchecked.
  static bool NodeIsLockedEx(NodeBase* node) {
    if constexpr (requires(const LeafLock& l) { l.IsLockedEx(); }) {
      return IsLeaf(node) ? AsLeaf(node)->lock.IsLockedEx()
                          : AsInner(node)->lock.IsLockedEx();
    } else {
      return IsLeaf(node) || AsInner(node)->lock.IsLockedEx();
    }
  }
  static const Leaf* AsLeaf(const NodeBase* node) {
    return static_cast<const Leaf*>(node);
  }
  static const Inner* AsInner(const NodeBase* node) {
    return static_cast<const Inner*>(node);
  }

  // Clamped count for racy reads.
  static uint16_t LoadCount(const NodeBase* node, uint16_t max) {
    const uint16_t n = node->count;
    return n > max ? max : n;
  }

  // --- Optimistic read-lock helpers (OLC and OptiQL protocols) ---
  //
  // ReadLockOrRestart spins until the lock admits readers and returns the
  // snapshot, or reports failure once the node is marked obsolete (it was
  // merged away; spinning would never end because a retired lock admits no
  // reader). Validate re-checks the snapshot. All version access goes
  // through the TxnOps<Lock> contract (sync/txn_ops.h), so any versioned
  // lock family works here and the transaction layer validates against the
  // very same words.

  template <class Lock>
  static bool ReadLockOrRestart(const Lock& lock, uint64_t& v) {
    SpinWait wait;
    while (!TxnOps<Lock>::StableVersion(lock, v)) {
      if (TxnOps<Lock>::IsObsolete(lock)) return false;
      wait.Spin();
    }
    return true;
  }

  template <class Lock>
  static bool Validate(const Lock& lock, uint64_t v) {
    return TxnOps<Lock>::ValidateVersion(lock, v);
  }

  // Exclusive-mode wrappers over the same contract for locks whose
  // ExHandle is stateless (OptLock inner nodes and OLC leaves): the empty
  // handle is created and dropped in place. Queue-based leaf locks thread
  // a real handle instead — the static_assert keeps that honest.

  template <class Lock>
  static void LockNodeEx(Lock& lock, int slot) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    (void)TxnOps<Lock>::LockEx(lock, slot);
  }

  template <class Lock>
  static bool TryUpgradeLock(Lock& lock, uint64_t v) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    typename TxnOps<Lock>::ExHandle handle{};
    return TxnOps<Lock>::TryUpgrade(lock, v, /*slot=*/0, handle);
  }

  template <class Lock>
  static void UnlockNodeEx(Lock& lock) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    TxnOps<Lock>::UnlockEx(lock, typename TxnOps<Lock>::ExHandle{});
  }

  template <class Lock>
  static void UnlockNodeExNoBump(Lock& lock) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    TxnOps<Lock>::UnlockExNoBump(lock, typename TxnOps<Lock>::ExHandle{});
  }

  template <class Lock>
  static void UnlockNodeExObsolete(Lock& lock) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    TxnOps<Lock>::UnlockExObsolete(lock, typename TxnOps<Lock>::ExHandle{});
  }

  // --- One optimistic descent ---
  //
  // Every traversal is built from the same steps, each written once:
  //   * ReadLockRoot, the root snapshot;
  //   * the validated inner step, from an inner node's snapshot to the
  //     child covering the key. Its first half, ValidateChild, picks the
  //     child, prefetches it and validates the pick; its second half,
  //     ReadLockInner, snapshots an inner child and re-validates the
  //     parent so the two reads are mutually consistent. A leaf child is
  //     not read: the step stops at the leaf's edge (LeafEdge);
  //   * ReadLockLeaf, the leaf snapshot taken through that edge.
  // The serial descents (DescendToLeaf, and Write, which adds eager inner
  // splits and merges) run the two halves back to back as ReadLockChild.
  // The batch lanes run them on separate turns, so the prefetch has every
  // other lane's turn to land. Every restart from the root counts once
  // against the tree it restarts in.

  // A leaf reached by a descent, not yet read. The edge is parent-
  // validated: the last inner's separators were read under a validated
  // version `pv`, so the leaf covered the key at that instant. `parent` is
  // null for a root leaf.
  struct LeafEdge {
    Leaf* leaf;
    const Inner* parent;
    uint64_t pv;
  };

  // The root snapshot: an inner root is snapshotted into `v`, then its
  // identity re-checked (a split or collapse may have replaced it between
  // the pointer load and the snapshot). A root leaf is returned unread, as
  // the edge {leaf, null}: a transaction may hold it, and a reader-writer
  // leaf has no version to read. Null: restart.
  NodeBase* ReadLockRoot(uint64_t& v) const {
    NodeBase* node = root_.load(std::memory_order_acquire);
    if (IsLeaf(node)) return node;
    if (!ReadLockOrRestart(AsInner(node)->lock, v)) return nullptr;
    return node == root_.load(std::memory_order_acquire) ? node : nullptr;
  }

  // First half of the inner step: the child of `inner` covering `key`,
  // picked under the snapshot `v`; null once `v` no longer validates. The
  // pointer may be torn until then, so it is only prefetched, which
  // overlaps the child's cache miss with the validation (prefetch cannot
  // fault). The serial descents warm the child's header; a batch lane
  // (kWarmLeaf) warms a whole leaf so its in-leaf search hits cache.
  template <bool kWarmLeaf = false>
  static NodeBase* ValidateChild(const Inner* inner, uint64_t v,
                                 const Key& key) {
    NodeBase* child =
        inner->children[inner->ChildIndex(key, LoadCount(inner, kInnerMax))];
    if (kWarmLeaf && inner->level == 1) {
      PrefetchLines<kLeafLines>(child);
    } else {
      PrefetchNodeHeader(child);
    }
    return Validate(inner->lock, v) ? child : nullptr;
  }

  // Second half of the inner step, for an inner child validated by the
  // first: snapshots it into `v`, then re-validates the parent's `pv`.
  static bool ReadLockInner(const Inner* parent, uint64_t pv,
                            const NodeBase* child, uint64_t& v) {
    return ReadLockOrRestart(AsInner(child)->lock, v) &&
           Validate(parent->lock, pv);
  }

  // The inner step for the serial descents: the child of `inner`
  // (snapshot `v`) covering `key`. An inner child comes back snapshotted
  // into `cv`; a leaf child comes back unread, its edge {child, inner, v}.
  // Null: restart from the root.
  static NodeBase* ReadLockChild(const Inner* inner, uint64_t v,
                                 const Key& key, uint64_t& cv) {
    NodeBase* child = ValidateChild(inner, v, key);
    if (child == nullptr || IsLeaf(child)) return child;
    return ReadLockInner(inner, v, child, cv) ? child : nullptr;
  }

  // Re-checks an edge after its leaf was locked or snapshotted: the parent
  // is unchanged (or the leaf is still the root), so the leaf still covers
  // the key it was reached by.
  bool ValidateEdge(const LeafEdge& edge) const {
    return edge.parent != nullptr
               ? Validate(edge.parent->lock, edge.pv)
               : edge.leaf == root_.load(std::memory_order_acquire);
  }

  // The leaf snapshot: the leaf's version into `v`, then the edge it was
  // reached by re-checked, so `v` is a snapshot of the covering leaf.
  bool ReadLockLeaf(const LeafEdge& edge, uint64_t& v) const {
    return ReadLockOrRestart(edge.leaf->lock, v) && ValidateEdge(edge);
  }

  // Descends to the leaf covering `key` WITHOUT reading the leaf's own
  // lock word: a transaction may already hold that leaf exclusively (a
  // version read would spin on our own lock), and a reader-writer leaf is
  // locked by the caller. Each restart ticks `restarts`, when given.
  LeafEdge DescendToLeaf(const Key& key,
                         RestartCounter* restarts = nullptr) const {
    while (true) {
      uint64_t v = 0;
      NodeBase* node = ReadLockRoot(v);
      const Inner* parent = nullptr;
      uint64_t pv = 0;
      while (node != nullptr && !IsLeaf(node)) {
        parent = AsInner(node);
        pv = v;
        node = ReadLockChild(parent, pv, key, v);
      }
      if (node != nullptr) return {AsLeaf(node), parent, pv};
      if (restarts != nullptr) restarts->Tick();
    }
  }

  // Versioned-leaf point lookup: the record read TxnRead also serves.
  bool LookupOptimistic(const Key& key, Value& out) const {
    TxnReadResult record;
    TxnRead(key, record);
    if (record.found) out = record.value;
    return record.found;
  }

  // --- Interleaved (AMAC-style) batched descent ---
  //
  // Each in-flight lookup is a small state machine (a "lane") that
  // carries the tree its key routes to, so one ring spans many trees. A
  // lane is always in one of two states: it either runs the first half of
  // the inner step (pick, PREFETCH, validate the parent snapshot), or it
  // ENTERS the child it prefetched on its previous turn (the second half:
  // ReadLockInner, or ReadLockLeaf for a leaf child). The scheduler visits
  // the lanes round-robin, so between issuing a lane's prefetch and
  // touching that memory it advances every other lane; that turns one
  // serial cache-miss chain per descent into `lane_count` overlapping
  // ones. A validation failure restarts only the failing lane from its
  // tree's root — the rest of the group never stalls.

  struct BatchLane {
    const BTree* tree = nullptr;  // The tree the lane's key routes to.
    NodeBase* node = nullptr;     // Position (validated snapshot).
    NodeBase* child = nullptr;    // Prefetched, not yet entered.
    uint64_t v = 0;               // Version snapshot of `node`.
    size_t op = 0;                // Index into the caller's batch.
    bool entering = false;        // Next step: enter `child`.
    bool active = false;
  };

  // (Re)points a lane at its tree's root with a fresh snapshot, taking a
  // root leaf's through its edge. Named into the read-lock helper family
  // on purpose: the open snapshot it returns with is validated by the
  // lane's next scheduler step.
  static void ReadLockRootLane(BatchLane& lane) {
    const BTree& tree = *lane.tree;
    while (true) {
      uint64_t v = 0;
      NodeBase* node = tree.ReadLockRoot(v);
      if (node == nullptr) continue;
      if (IsLeaf(node) && !tree.ReadLockLeaf({AsLeaf(node), nullptr, 0}, v)) {
        continue;
      }
      lane.node = node;
      lane.v = v;
      lane.entering = false;
      return;
    }
  }

  // A failed validation: the lane restarts at its tree's root, counted
  // against that tree.
  static void RestartLane(BatchLane& lane) {
    lane.tree->read_restarts_.fetch_add(1, std::memory_order_relaxed);
    ReadLockRootLane(lane);
  }

  template <class TreeOf>
  static size_t LookupInterleaved(const Key* keys, size_t n, Value* values,
                                  bool* found, TreeOf& tree_of,
                                  size_t lane_count) {
    BatchLane lanes[kMaxBatchLanes];
    size_t next_op = 0;
    const auto take_next = [&](BatchLane& lane) {
      lane.op = next_op++;
      lane.tree = tree_of(keys[lane.op]);
      ReadLockRootLane(lane);
    };
    for (size_t i = 0; i < lane_count; ++i) {
      lanes[i].active = true;
      take_next(lanes[i]);
    }

    size_t active = lane_count;
    size_t hits = 0;
    size_t l = 0;
    while (active > 0) {
      BatchLane& lane = lanes[l];
      l = (l + 1 == lane_count) ? 0 : l + 1;
      if (!lane.active) continue;

      if (lane.entering) {
        // Second half of the step, a full round after the prefetch.
        const Inner* parent = AsInner(lane.node);
        uint64_t cv = 0;
        const bool entered =
            IsLeaf(lane.child)
                ? lane.tree->ReadLockLeaf({AsLeaf(lane.child), parent, lane.v},
                                          cv)
                : ReadLockInner(parent, lane.v, lane.child, cv);
        if (!entered) {
          RestartLane(lane);
          continue;
        }
        lane.node = lane.child;
        lane.v = cv;
        lane.entering = false;
        continue;
      }

      if (!IsLeaf(lane.node)) {
        // First half: pick, prefetch, validate; enter on the next turn.
        lane.child = ValidateChild</*kWarmLeaf=*/true>(
            AsInner(lane.node), lane.v, keys[lane.op]);
        if (lane.child == nullptr) {
          RestartLane(lane);
          continue;
        }
        lane.entering = true;
        continue;
      }

      const Leaf* leaf = AsLeaf(lane.node);
      uint16_t pos = 0;
      const bool hit =
          leaf->Find(keys[lane.op], LoadCount(leaf, kLeafMax), pos);
      const Value value = hit ? leaf->values[pos] : Value{};
      if (!Validate(leaf->lock, lane.v)) {
        RestartLane(lane);
        continue;
      }
      found[lane.op] = hit;
      if (hit) {
        values[lane.op] = value;
        ++hits;
      }
      if (next_op < n) {
        take_next(lane);
      } else {
        lane.active = false;
        --active;
      }
    }
    return hits;
  }

  size_t ScanOptimistic(const Key& start, size_t limit,
                        std::vector<std::pair<Key, Value>>& out) const {
    RestartCounter restarts(read_restarts_);
    while (true) {
      restarts.Tick();
      out.clear();
      const LeafEdge edge = DescendToLeaf(start, &restarts);
      uint64_t v = 0;
      if (!ReadLockLeaf(edge, v)) continue;

      // Walk the leaf chain, copying validated batches.
      const Leaf* leaf = edge.leaf;
      bool failed = false;
      while (leaf != nullptr && out.size() < limit) {
        // Read the successor first and start pulling it in while this
        // leaf's batch is copied; the (possibly torn) pointer is only
        // chased after the validation below succeeds.
        const Leaf* next = leaf->next;
        if (next != nullptr) PrefetchNodeHeader(next);
        const uint16_t n = LoadCount(leaf, kLeafMax);
        std::pair<Key, Value> batch[Leaf::kMax];
        uint16_t batch_size = 0;
        for (uint16_t i = leaf->LowerBound(start, n);
             i < n; ++i) {
          batch[batch_size++] = {leaf->keys[i], leaf->values[i]};
        }
        if (!Validate(leaf->lock, v)) {
          failed = true;
          break;
        }
        for (uint16_t i = 0; i < batch_size && out.size() < limit; ++i) {
          out.push_back(batch[i]);
        }
        if (next == nullptr || out.size() >= limit) break;
        uint64_t nv;
        if (!ReadLockOrRestart(next->lock, nv)) {
          failed = true;
          break;
        }
        // Two-step handover, as in the descent: re-validate this leaf
        // after snapshotting `next`. Leaf rotations move keys across this
        // boundary with only version bumps (no obsolete mark), so without
        // the re-check a rotation landing between the batch validation
        // above and the next-leaf snapshot could make the scan miss a key
        // (moved next->current) or return one twice (moved current->next).
        if (!Validate(leaf->lock, v)) {
          failed = true;
          break;
        }
        v = nv;
        leaf = next;
      }
      if (failed) continue;
      return out.size();
    }
  }

  // --- Shared-mode leaf reads (reader-writer leaf locks) ---
  //
  // Readers descend the inner nodes optimistically, lock the leaf shared
  // and re-validate the parent: every split, merge and rotation of a leaf
  // bumps its parent, so a valid parent means the held leaf still covers
  // the key. The held-lock set is data-dependent, which Clang's thread-
  // safety analysis cannot express: these functions and the leaf write
  // step opt out with OPTIQL_NO_THREAD_SAFETY_ANALYSIS.

  // Returns the leaf covering `key`, held shared through `slot`.
  Leaf* LockLeafShared(const Key& key,
                       int slot) const OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    RestartCounter restarts(read_restarts_);
    while (true) {
      restarts.Tick();
      const LeafEdge edge = DescendToLeaf(key, &restarts);
      LeafOps::LockSh(edge.leaf->lock, slot);
      if (ValidateEdge(edge)) return edge.leaf;
      LeafOps::UnlockSh(edge.leaf->lock, slot);
    }
  }

  bool LookupSharedLeaf(const Key& key,
                        Value& out) const OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    Leaf* leaf = LockLeafShared(key, /*slot=*/0);
    uint16_t pos = 0;
    const bool found = leaf->Find(key, leaf->count, pos);
    if (found) out = leaf->values[pos];
    LeafOps::UnlockSh(leaf->lock, /*slot=*/0);
    return found;
  }

  // Couples shared locks rightward along the leaf chain. A leaf's `next`
  // and its boundary with `next` only change under that leaf's exclusive
  // lock, so the sweep sees every key exactly once.
  size_t ScanSharedLeaf(const Key& start, size_t limit,
                        std::vector<std::pair<Key, Value>>& out) const
      OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    int slot = 0;
    Leaf* leaf = LockLeafShared(start, slot);
    while (true) {
      for (uint16_t i = leaf->LowerBound(start, leaf->count);
           i < leaf->count && out.size() < limit; ++i) {
        out.push_back({leaf->keys[i], leaf->values[i]});
      }
      Leaf* next = leaf->next;
      if (next == nullptr || out.size() >= limit) break;
      PrefetchNodeHeader(next);
      const int next_slot = 1 - slot;
      LeafOps::LockSh(next->lock, next_slot);
      LeafOps::UnlockSh(leaf->lock, slot);
      leaf = next;
      slot = next_slot;
    }
    LeafOps::UnlockSh(leaf->lock, slot);
    return out.size();
  }

  // --- Write paths ---

  // One descent for every policy: the validated inner step with eager
  // inner-node splits and merges (OptLock-style upgrades on inner nodes),
  // which is why Write keeps its own loop, then the policy's leaf step.
  bool Write(const Key& key, const Value* value, WriteKind kind) {
    EpochGuard guard;
    RestartCounter restarts(write_restarts_);
    while (true) {
      restarts.Tick();
      uint64_t v = 0;
      NodeBase* node = ReadLockRoot(v);
      if (node == nullptr) continue;

      Inner* parent = nullptr;
      uint64_t pv = 0;
      bool parent_is_root = false;
      bool restart = false;

      while (!IsLeaf(node)) {
        Inner* inner = AsInner(node);
        // Eager split keeps the instability scope at parent+node.
        if (NeedsSplitForWrite(kind) && inner->count == kInnerMax) {
          if (!SplitInnerEagerly(parent, pv, inner, v)) {
            restart = true;
            break;
          }
          restart = true;  // Structure changed; re-traverse.
          break;
        }
        // Eager merge mirrors the eager split: fix an underfull inner node
        // while descending for a remove, so SMOs never propagate upwards.
        if (kind == WriteKind::kRemove && parent != nullptr &&
            inner->count <= kInnerMin) {
          bool screen_restart = false;
          if (RebalanceInnerMightHelp(parent, pv, parent_is_root, inner,
                                      &screen_restart)) {
            if (RebalanceInner(parent, pv, parent_is_root, inner, v)) {
              restart = true;
              break;
            }
          } else if (screen_restart) {
            restart = true;
            break;
          }
          // No profitable rebalance: every lock was released without a
          // version bump (or none was taken at all), so the snapshots stay
          // valid — keep descending.
        }
        uint64_t cv = 0;
        NodeBase* child = ReadLockChild(inner, v, key, cv);
        if (child == nullptr) {
          restart = true;
          break;
        }
        parent_is_root = parent == nullptr;
        parent = inner;
        pv = v;
        node = child;
        v = cv;
      }
      if (restart) continue;

      // The leaf step starts from a leaf snapshot on every versioned leaf,
      // the direct-leaf (OptiQL) step included, although that step locks
      // the leaf outright and never validates the snapshot. The snapshot
      // spins while the leaf is held, so a writer queues on a leaf it has
      // seen stable; dropping it measured slower on the e2ebench SUT (six
      // alternating 10 s pairs, medians: hot_update throughput 0.956x and
      // p50 1.051x, txn_transfer p99 1.086x, worse in 5 of the 6 pairs). A
      // reader-writer leaf has no version: its step locks the leaf and
      // validates the parent.
      Leaf* leaf = AsLeaf(node);
      if constexpr (LeafOps::kVersioned) {
        if (!ReadLockLeaf({leaf, parent, pv}, v)) continue;
      }

      bool result = false;
      LeafWriteStatus status;
      if constexpr (kProtocol == BTreeProtocol::kOptiQl) {
        status = LeafWriteOptiQl(leaf, parent, pv, parent_is_root, key,
                                 value, kind, &result);
      } else {
        status = LeafWriteOlc(leaf, v, parent, pv, parent_is_root, key,
                              value, kind, &result);
      }
      if (status == LeafWriteStatus::kRestart) continue;
      return result;
    }
  }

  enum class LeafWriteStatus { kDone, kRestart };

  static constexpr bool NeedsSplitForWrite(WriteKind kind) {
    return kind == WriteKind::kInsert || kind == WriteKind::kUpsert;
  }

  // Locks a full node for its split (OLC-style, from the snapshots):
  // upgrades the parent, or for a root verifies we still own it, then the
  // node. False, holding nothing, when a step fails or the parent filled
  // up since we passed it (the next descent splits it eagerly first).
  template <class Node>
  bool UpgradeForSplit(Inner* parent, uint64_t pv, Node* node, uint64_t v) {
    if (parent != nullptr && !TryUpgradeLock(parent->lock, pv)) return false;
    if (!TryUpgradeLock(node->lock, v)) {
      if (parent != nullptr) UnlockNodeEx(parent->lock);
      return false;
    }
    if (parent == nullptr ? root_.load(std::memory_order_acquire) != node
                          : parent->count == kInnerMax) {
      if (parent != nullptr) UnlockNodeEx(parent->lock);
      UnlockNodeEx(node->lock);
      return false;
    }
    return true;
  }

  // Splits a full inner node while descending: lock it for the split,
  // split, then restart. Returns false if any lock step failed (caller
  // restarts either way).
  bool SplitInnerEagerly(Inner* parent, uint64_t pv, Inner* inner,
                         uint64_t v) {
    if (!UpgradeForSplit(parent, pv, inner, v)) return false;
    inner_splits_.fetch_add(1, std::memory_order_relaxed);
    // Move the upper half to a new right sibling; middle key moves up.
    const uint16_t mid = inner->count / 2;
    const Key separator = inner->keys[mid];
    Inner* right = new Inner(inner->level);
    live_nodes_.fetch_add(1, std::memory_order_relaxed);
    right->count = static_cast<uint16_t>(inner->count - mid - 1);
    for (uint16_t i = 0; i < right->count; ++i) {
      right->keys[i] = inner->keys[mid + 1 + i];
    }
    for (uint16_t i = 0; i <= right->count; ++i) {
      right->children[i] = inner->children[mid + 1 + i];
    }
    inner->count = mid;

    PublishSplit(parent, inner, right, separator);
    if (parent != nullptr) UnlockNodeEx(parent->lock);
    UnlockNodeEx(inner->lock);
    return true;
  }

  // Inserts (separator, right) into `parent`, or grows a new root when
  // `parent` is null. Caller holds `left` (and `parent` if present)
  // exclusively and has verified root identity when parent is null.
  void PublishSplit(Inner* parent, NodeBase* left, NodeBase* right,
                    const Key& separator) {
    // SMO ordering: a split becomes visible to optimistic readers the
    // moment the separator lands in the parent, so both the parent and the
    // (half-emptied) left node must already be exclusively locked —
    // publishing first and locking after would expose a torn split.
    OPTIQL_INVARIANT(
        parent == nullptr || parent->lock.IsLockedEx(),
        "B+-tree SMO ordering: split published into an unlocked parent");
    OPTIQL_INVARIANT(
        NodeIsLockedEx(left),
        "B+-tree SMO ordering: split published while the left half is "
        "not exclusively locked");
    if (parent != nullptr) {
      parent->InsertAt(parent->ChildIndex(separator, parent->count),
                       separator, right);
      return;
    }
    Inner* new_root = new Inner(static_cast<uint16_t>(left->level + 1));
    live_nodes_.fetch_add(1, std::memory_order_relaxed);
    new_root->count = 1;
    new_root->keys[0] = separator;
    new_root->children[0] = left;
    new_root->children[1] = right;
    root_.store(new_root, std::memory_order_release);
  }

  // OLC leaf step: upgrade from the observed version (CAS); on any failure
  // the operation restarts from the root (paper §6.1's description of the
  // original protocol).
  LeafWriteStatus LeafWriteOlc(Leaf* leaf, uint64_t v, Inner* parent,
                               uint64_t pv, bool parent_is_root,
                               const Key& key, const Value* value,
                               WriteKind kind, bool* result) {
    if (kind == WriteKind::kRemove && parent != nullptr &&
        leaf->count <= kLeafMin) {
      return RebalanceLeafOlc(parent, pv, parent_is_root, leaf, v, key,
                              result);
    }
    if (NeedsSplitForWrite(kind) && leaf->count == kLeafMax) {
      if (!UpgradeForSplit(parent, pv, leaf, v)) {
        return LeafWriteStatus::kRestart;
      }
      *result = SplitLeafAndApply(leaf, parent, key, value, kind);
      if (parent != nullptr) UnlockNodeEx(parent->lock);
      UnlockNodeEx(leaf->lock);
      return LeafWriteStatus::kDone;
    }

    if (!TryUpgradeLock(leaf->lock, v)) return LeafWriteStatus::kRestart;
    *result = ApplyToLeaf(leaf, key, value, kind);
    UnlockNodeEx(leaf->lock);
    return LeafWriteStatus::kDone;
  }

  // OptiQL leaf step (paper Algorithm 4): lock the leaf *directly* with the
  // queue-based lock, then validate the parent; no upgrade, no re-search
  // after waiting in the queue. Reader-writer leaves take the same step.
  LeafWriteStatus LeafWriteOptiQl(Leaf* leaf, Inner* parent, uint64_t pv,
                                  bool parent_is_root, const Key& key,
                                  const Value* value, WriteKind kind,
                                  bool* result)
      OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    typename LeafOps::ExHandle handle{};
    if constexpr (kAor) {
      // The AOR window (deferred acquisition with opportunistic reads) is
      // OptiQL-specific and outside the TxnOps contract; enter it directly
      // and fold the queue node into the contract handle for the releases.
      handle.node = ThreadQNodes::Get(0);
      leaf->lock.AcquireExDeferred(handle.node);
    } else {
      handle = LeafOps::LockEx(leaf->lock, /*slot=*/0);
    }
    auto abort = [&]() OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
      if constexpr (kAor) leaf->lock.FinishAcquireEx(handle.node);
      LeafOps::UnlockEx(leaf->lock, handle);
      return LeafWriteStatus::kRestart;
    };
    // The leaf may have been split/emptied while we waited in the queue;
    // the parent's version tells us (step 3 of the adapted protocol).
    if (parent != nullptr) {
      if (!Validate(parent->lock, pv)) return abort();
    } else if (root_.load(std::memory_order_acquire) != leaf) {
      return abort();
    }

    if (kind == WriteKind::kRemove && parent != nullptr &&
        leaf->count <= kLeafMin) {
      // Structural work modifies the leaf; close any inherited window now.
      if constexpr (kAor) leaf->lock.FinishAcquireEx(handle.node);
      return RebalanceLeafOptiQl(parent, pv, parent_is_root, leaf, handle,
                                 key, result);
    }

    if (NeedsSplitForWrite(kind) && leaf->count == kLeafMax) {
      if constexpr (kAor) leaf->lock.FinishAcquireEx(handle.node);
      if (parent != nullptr) {
        if (!TryUpgradeLock(parent->lock, pv)) {
          LeafOps::UnlockEx(leaf->lock, handle);
          return LeafWriteStatus::kRestart;
        }
        if (parent->count == kInnerMax) {
          UnlockNodeEx(parent->lock);
          LeafOps::UnlockEx(leaf->lock, handle);
          return LeafWriteStatus::kRestart;
        }
      }
      *result = SplitLeafAndApply(leaf, parent, key, value, kind);
      if (parent != nullptr) UnlockNodeEx(parent->lock);
      LeafOps::UnlockEx(leaf->lock, handle);
      return LeafWriteStatus::kDone;
    }

    if constexpr (kAor) {
      // AOR: opportunistic readers stay admitted through the (read-only)
      // in-leaf search; close the window only before modifying.
      uint16_t pos = 0;
      const bool exists = leaf->Find(key, leaf->count, pos);
      leaf->lock.FinishAcquireEx(handle.node);
      *result = ApplyToLeafAt(leaf, pos, exists, key, value, kind);
    } else {
      *result = ApplyToLeaf(leaf, key, value, kind);
    }
    LeafOps::UnlockEx(leaf->lock, handle);
    return LeafWriteStatus::kDone;
  }

  // Splits an exclusively-locked full leaf (parent exclusively locked or
  // root ownership verified), then applies the pending write to the correct
  // half. Returns the operation result.
  bool SplitLeafAndApply(Leaf* leaf, Inner* parent, const Key& key,
                         const Value* value, WriteKind kind) {
    leaf_splits_.fetch_add(1, std::memory_order_relaxed);
    const uint16_t mid = leaf->count / 2;
    Leaf* right = new Leaf();
    live_nodes_.fetch_add(1, std::memory_order_relaxed);
    right->count = static_cast<uint16_t>(leaf->count - mid);
    for (uint16_t i = 0; i < right->count; ++i) {
      right->keys[i] = leaf->keys[mid + i];
      right->values[i] = leaf->values[mid + i];
    }
    leaf->count = mid;
    right->next = leaf->next;
    leaf->next = right;
    const Key separator = right->keys[0];
    PublishSplit(parent, leaf, right, separator);
    Leaf* target = key < separator ? leaf : right;
    return ApplyToLeaf(target, key, value, kind);
  }

  bool ApplyToLeaf(Leaf* leaf, const Key& key, const Value* value,
                   WriteKind kind) {
    uint16_t pos = 0;
    const bool exists = leaf->Find(key, leaf->count, pos);
    return ApplyToLeafAt(leaf, pos, exists, key, value, kind);
  }

  // `pos` and `exists` are the in-leaf probe's result for `key`.
  bool ApplyToLeafAt(Leaf* leaf, uint16_t pos, bool exists, const Key& key,
                     const Value* value, WriteKind kind) {
    switch (kind) {
      case WriteKind::kInsert:
        if (exists) return false;
        InsertIntoLeaf(leaf, pos, key, *value);
        return true;
      case WriteKind::kUpdate:
        if (!exists) return false;
        leaf->values[pos] = *value;
        return true;
      case WriteKind::kUpsert:
        if (exists) {
          leaf->values[pos] = *value;
        } else {
          InsertIntoLeaf(leaf, pos, key, *value);
        }
        return true;
      case WriteKind::kRemove:
        if (!exists) return false;
        for (uint16_t i = pos; i + 1 < leaf->count; ++i) {
          leaf->keys[i] = leaf->keys[i + 1];
          leaf->values[i] = leaf->values[i + 1];
        }
        --leaf->count;
        size_.fetch_sub(1, std::memory_order_acq_rel);
        return true;
    }
    return false;
  }

  void InsertIntoLeaf(Leaf* leaf, uint16_t pos, const Key& key,
                      const Value& value) {
    OPTIQL_CHECK(leaf->count < kLeafMax);
    for (uint16_t i = leaf->count; i > pos; --i) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i] = leaf->values[i - 1];
    }
    leaf->keys[pos] = key;
    leaf->values[pos] = value;
    ++leaf->count;
    size_.fetch_add(1, std::memory_order_acq_rel);
  }

  // --- Delete-time rebalancing (all policies) ---
  //
  // Lock discipline mirrors the split paths: the parent is always held
  // exclusively before any same-level sibling pair, so at most three locks
  // (parent + node + sibling) are held and SMOs never propagate upwards.
  // Merges prefer absorbing the right node into the left (the leaf chain
  // then just skips the victim); when neither a merge fits nor a rotation
  // puts both nodes strictly above their minimum, the pass backs out
  // without publishing any change.

  // True iff balancing `l + r` entries across both nodes leaves each
  // strictly above `min` — i.e. the rotation actually cures the underflow.
  // Signed arithmetic: l + r can be 0 and unsigned wraparound would claim
  // progress where none is possible, re-triggering forever.
  static bool RotationHelps(uint16_t l, uint16_t r, uint16_t min) {
    return (static_cast<int>(l) + static_cast<int>(r)) / 2 >
           static_cast<int>(min);
  }

  // `child` is guaranteed present: every caller holds `parent` exclusively
  // and (re)validated the parent-child edge under that lock.
  static uint16_t FindChildIndex(const Inner* parent, const NodeBase* child) {
    for (uint16_t i = 0; i <= parent->count; ++i) {
      if (parent->children[i] == child) return i;
    }
    OPTIQL_CHECK(!"child vanished from an exclusively held parent");
    return 0;
  }

  // `node` and an adjacent sibling under the exclusively held `parent`, as
  // {left, right, index of the separator between them}: the right
  // neighbour, or the left one for the last child.
  template <class Node>
  static std::tuple<Node*, Node*, uint16_t> SiblingPair(Inner* parent,
                                                        Node* node) {
    const uint16_t idx = FindChildIndex(parent, node);
    if (idx < parent->count) {
      return {node, static_cast<Node*>(parent->children[idx + 1]), idx};
    }
    return {static_cast<Node*>(parent->children[idx - 1]), node,
            static_cast<uint16_t>(idx - 1)};
  }

  // Removes separator keys[child_idx - 1] and children[child_idx].
  static void RemoveChildAt(Inner* parent, uint16_t child_idx) {
    OPTIQL_CHECK(child_idx >= 1 && child_idx <= parent->count);
    for (uint16_t i = child_idx; i < parent->count; ++i) {
      parent->keys[i - 1] = parent->keys[i];
      parent->children[i] = parent->children[i + 1];
    }
    --parent->count;
  }

  // Absorbs `right` into `left` (adjacent leaves under `parent`, all held
  // exclusively) and unlinks it from parent and leaf chain. The victim's
  // contents are deliberately left intact: optimistic readers parked on it
  // may still scan it before their validation fails.
  void MergeLeaves(Inner* parent, uint16_t left_idx, Leaf* left,
                   Leaf* right) {
    OPTIQL_CHECK(left->next == right);
    OPTIQL_CHECK(left->count + right->count <= kLeafMax);
    for (uint16_t i = 0; i < right->count; ++i) {
      left->keys[left->count + i] = right->keys[i];
      left->values[left->count + i] = right->values[i];
    }
    left->count = static_cast<uint16_t>(left->count + right->count);
    left->next = right->next;
    RemoveChildAt(parent, static_cast<uint16_t>(left_idx + 1));
    leaf_merges_.fetch_add(1, std::memory_order_relaxed);
  }

  // Same for inner nodes; the separator between them comes down to bridge
  // left's last child and right's first.
  void MergeInners(Inner* parent, uint16_t left_idx, Inner* left,
                   Inner* right) {
    OPTIQL_CHECK(left->count + right->count + 1 <= kInnerMax);
    left->keys[left->count] = parent->keys[left_idx];
    for (uint16_t i = 0; i < right->count; ++i) {
      left->keys[left->count + 1 + i] = right->keys[i];
    }
    for (uint16_t i = 0; i <= right->count; ++i) {
      left->children[left->count + 1 + i] = right->children[i];
    }
    left->count = static_cast<uint16_t>(left->count + right->count + 1);
    RemoveChildAt(parent, static_cast<uint16_t>(left_idx + 1));
    inner_merges_.fetch_add(1, std::memory_order_relaxed);
  }

  // One-entry rotations between exclusively held adjacent siblings.
  // keys[left_idx] is the separator between them.

  static void RotateLeafLeft(Inner* parent, uint16_t left_idx, Leaf* left,
                             Leaf* right) {
    left->keys[left->count] = right->keys[0];
    left->values[left->count] = right->values[0];
    ++left->count;
    for (uint16_t i = 1; i < right->count; ++i) {
      right->keys[i - 1] = right->keys[i];
      right->values[i - 1] = right->values[i];
    }
    --right->count;
    parent->keys[left_idx] = right->keys[0];
  }

  static void RotateLeafRight(Inner* parent, uint16_t left_idx, Leaf* left,
                              Leaf* right) {
    for (uint16_t i = right->count; i > 0; --i) {
      right->keys[i] = right->keys[i - 1];
      right->values[i] = right->values[i - 1];
    }
    right->keys[0] = left->keys[left->count - 1];
    right->values[0] = left->values[left->count - 1];
    ++right->count;
    --left->count;
    parent->keys[left_idx] = right->keys[0];
  }

  static void RotateInnerLeft(Inner* parent, uint16_t left_idx, Inner* left,
                              Inner* right) {
    // Separator descends to left's tail, adopting right's first child;
    // right's first key ascends.
    left->keys[left->count] = parent->keys[left_idx];
    left->children[left->count + 1] = right->children[0];
    ++left->count;
    parent->keys[left_idx] = right->keys[0];
    for (uint16_t i = 1; i < right->count; ++i) {
      right->keys[i - 1] = right->keys[i];
    }
    for (uint16_t i = 1; i <= right->count; ++i) {
      right->children[i - 1] = right->children[i];
    }
    --right->count;
  }

  static void RotateInnerRight(Inner* parent, uint16_t left_idx, Inner* left,
                               Inner* right) {
    for (uint16_t i = right->count; i > 0; --i) {
      right->keys[i] = right->keys[i - 1];
    }
    for (uint16_t i = static_cast<uint16_t>(right->count + 1); i > 0; --i) {
      right->children[i] = right->children[i - 1];
    }
    right->keys[0] = parent->keys[left_idx];
    right->children[0] = left->children[left->count];
    ++right->count;
    parent->keys[left_idx] = left->keys[left->count - 1];
    --left->count;
  }

  // Unlinks are published before this runs, so late readers of the victim
  // fail validation (obsolete lock) and nobody holds a path to it; the
  // epoch layer defers the actual free past every in-flight guard.
  void RetireNode(NodeBase* node) {
    live_nodes_.fetch_sub(1, std::memory_order_relaxed);
    nodes_retired_.fetch_add(1, std::memory_order_relaxed);
    if (IsLeaf(node)) {
      EpochManager::Instance().Retire(AsLeaf(node));
    } else {
      EpochManager::Instance().Retire(AsInner(node));
    }
  }

  // Releases the exclusively held parent after a child merge, collapsing a
  // root left with zero separators onto its lone child. `parent_is_root`
  // stays truthful under the held lock: any operation that moves root_ away
  // from a node bumps that node's version first, which would have failed
  // the caller's upgrade.
  void ReleaseParentAfterMerge(Inner* parent, bool parent_is_root) {
    if (parent_is_root && parent->count == 0) {
      OPTIQL_CHECK(root_.load(std::memory_order_acquire) == parent);
      root_.store(parent->children[0], std::memory_order_release);
      root_collapses_.fetch_add(1, std::memory_order_relaxed);
      UnlockNodeExObsolete(parent->lock);
      RetireNode(parent);
      return;
    }
    UnlockNodeEx(parent->lock);
  }

  // Lock-free pre-screen for RebalanceInner: peeks at the node's neighbour
  // under the parent snapshot and reports whether a merge could fit or a
  // rotation could cure the underflow. Without it every remove descending
  // past a permanently-underfull inner node (tiny geometry, drained
  // siblings) would upgrade two locks and block on the sibling only to
  // back out, serializing hot inner nodes. The counts are unvalidated —
  // they gate a heuristic only; the locked pass re-checks everything. On a
  // dead parent snapshot sets *restart and returns false.
  bool RebalanceInnerMightHelp(const Inner* parent, uint64_t pv,
                               bool parent_is_root, const Inner* inner,
                               bool* restart) const {
    const uint16_t pn = LoadCount(parent, kInnerMax);
    uint16_t idx = 0;
    while (idx <= pn && parent->children[idx] != inner) ++idx;
    if (idx > pn || pn == 0) {
      // Racy miss, or no visible sibling: let the locked pass decide.
      return true;
    }
    const NodeBase* sibling = parent->children[idx < pn ? idx + 1 : idx - 1];
    if (!Validate(parent->lock, pv)) {
      *restart = true;
      return false;
    }
    // `sibling` is now a real child pointer; even if it is merged away
    // concurrently its memory stays valid under our epoch guard.
    const uint16_t n = LoadCount(inner, kInnerMax);
    const uint16_t s = LoadCount(sibling, kInnerMax);
    const bool merge_fits =
        n + s + 1 <= kInnerMax && (pn >= 2 || parent_is_root);
    return merge_fits || RotationHelps(n, s, kInnerMin);
  }

  // Rebalances an underfull inner node during an optimistic descent.
  // Returns true when the structure changed (caller restarts) and false
  // when no profitable move existed — then every lock was released without
  // a version bump and the caller's snapshots are still valid.
  bool RebalanceInner(Inner* parent, uint64_t pv, bool parent_is_root,
                      Inner* inner, uint64_t v) {
    if (!TryUpgradeLock(parent->lock, pv)) return true;
    if (!TryUpgradeLock(inner->lock, v)) {
      UnlockNodeExNoBump(parent->lock);
      return true;
    }
    const auto [left, right, left_idx] = SiblingPair(parent, inner);
    Inner* sibling = left == inner ? right : left;
    // Blocking acquire is deadlock-free: every writer that locks an inner
    // node holds its parent exclusively first, and we hold the parent.
    LockNodeEx(sibling->lock, /*slot=*/1);

    const uint16_t l = left->count;
    const uint16_t r = right->count;
    if (l + r + 1 <= kInnerMax && (parent->count >= 2 || parent_is_root)) {
      MergeInners(parent, left_idx, left, right);
      UnlockNodeExObsolete(right->lock);
      UnlockNodeEx(left->lock);
      RetireNode(right);
      ReleaseParentAfterMerge(parent, parent_is_root);
      return true;
    }
    if (RotationHelps(l, r, kInnerMin)) {
      while (left->count + 1 < right->count) {
        RotateInnerLeft(parent, left_idx, left, right);
      }
      while (right->count + 1 < left->count) {
        RotateInnerRight(parent, left_idx, left, right);
      }
      rebalance_borrows_.fetch_add(1, std::memory_order_relaxed);
      UnlockNodeEx(sibling->lock);
      UnlockNodeEx(inner->lock);
      UnlockNodeEx(parent->lock);
      return true;
    }
    UnlockNodeExNoBump(sibling->lock);
    UnlockNodeExNoBump(inner->lock);
    UnlockNodeExNoBump(parent->lock);
    return false;
  }

  // Leaf-level rebalance for the OLC protocol: upgrade parent then leaf
  // from their snapshots, lock a sibling, and merge or rotate. When neither
  // helps, the pending remove is applied in place under the held leaf.
  LeafWriteStatus RebalanceLeafOlc(Inner* parent, uint64_t pv,
                                   bool parent_is_root, Leaf* leaf,
                                   uint64_t v, const Key& key,
                                   bool* result) {
    if (!TryUpgradeLock(parent->lock, pv)) return LeafWriteStatus::kRestart;
    if (!TryUpgradeLock(leaf->lock, v)) {
      UnlockNodeExNoBump(parent->lock);
      return LeafWriteStatus::kRestart;
    }
    const auto [left, right, left_idx] = SiblingPair(parent, leaf);
    Leaf* sibling = left == leaf ? right : left;
    LockNodeEx(sibling->lock, /*slot=*/1);

    const uint16_t l = left->count;
    const uint16_t r = right->count;
    if (l + r <= kLeafMax && (parent->count >= 2 || parent_is_root)) {
      MergeLeaves(parent, left_idx, left, right);
      UnlockNodeExObsolete(right->lock);
      UnlockNodeEx(left->lock);
      RetireNode(right);
      ReleaseParentAfterMerge(parent, parent_is_root);
      return LeafWriteStatus::kRestart;
    }
    if (RotationHelps(l, r, kLeafMin)) {
      while (left->count + 1 < right->count) {
        RotateLeafLeft(parent, left_idx, left, right);
      }
      while (right->count + 1 < left->count) {
        RotateLeafRight(parent, left_idx, left, right);
      }
      rebalance_borrows_.fetch_add(1, std::memory_order_relaxed);
      UnlockNodeEx(sibling->lock);
      UnlockNodeEx(leaf->lock);
      UnlockNodeEx(parent->lock);
      return LeafWriteStatus::kRestart;
    }
    // No profitable structural move (tiny geometry, or the siblings are as
    // drained as we are): complete the remove in place.
    UnlockNodeExNoBump(sibling->lock);
    UnlockNodeExNoBump(parent->lock);
    *result = ApplyToLeaf(leaf, key, nullptr, WriteKind::kRemove);
    UnlockNodeEx(leaf->lock);
    return LeafWriteStatus::kDone;
  }

  // Releases the victim of a leaf merge: marked obsolete in a versioned
  // family, so parked optimistic readers fail fast. A reader-writer
  // leaf is released plainly; every waiter on it fails its parent
  // validation afterwards.
  static void UnlockLeafMerged(Leaf* victim, typename LeafOps::ExHandle h)
      OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    if constexpr (LeafOps::kVersioned) {
      LeafOps::UnlockExObsolete(victim->lock, h);
    } else {
      LeafOps::UnlockEx(victim->lock, h);
    }
  }

  // Leaf-level rebalance for the direct-leaf step. The caller already owns
  // the leaf exclusively (queue grant, window closed) and validated the
  // parent edge; we upgrade the parent from its snapshot and lock the
  // sibling through its queue. Queued writers on a merged-away leaf drain
  // normally and fail their parent validation afterwards.
  LeafWriteStatus RebalanceLeafOptiQl(Inner* parent, uint64_t pv,
                                      bool parent_is_root, Leaf* leaf,
                                      typename LeafOps::ExHandle handle,
                                      const Key& key, bool* result)
      OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    if (!TryUpgradeLock(parent->lock, pv)) {
      LeafOps::UnlockEx(leaf->lock, handle);
      return LeafWriteStatus::kRestart;
    }
    const auto [left, right, left_idx] = SiblingPair(parent, leaf);
    Leaf* sibling = left == leaf ? right : left;
    // Deadlock-free: sibling holders either hold only that leaf (plain leaf
    // writers — they never block on the parent, they validate it) or
    // acquired the parent first (structural passes — excluded, we hold it).
    // Shared-mode scans add a third kind: they hold a leaf while blocking
    // on its right neighbour, so reader-writer leaves are locked left to
    // right — with the sibling on the left, drop the leaf, lock the
    // sibling, relock the leaf. The leaf cannot change meanwhile: every
    // writer reaching it must validate the parent, which we hold, so it
    // backs out without modifying the leaf.
    if constexpr (kSharedLeafReads) {
      if (sibling == left) LeafOps::UnlockEx(leaf->lock, handle);
    }
    const typename LeafOps::ExHandle sibling_handle =
        LeafOps::LockEx(sibling->lock, /*slot=*/1);
    if constexpr (kSharedLeafReads) {
      if (sibling == left) handle = LeafOps::LockEx(leaf->lock, /*slot=*/0);
    }

    const uint16_t l = left->count;
    const uint16_t r = right->count;
    if (l + r <= kLeafMax && (parent->count >= 2 || parent_is_root)) {
      MergeLeaves(parent, left_idx, left, right);
      if (right == leaf) {
        UnlockLeafMerged(leaf, handle);
        LeafOps::UnlockEx(sibling->lock, sibling_handle);
      } else {
        UnlockLeafMerged(sibling, sibling_handle);
        LeafOps::UnlockEx(leaf->lock, handle);
      }
      RetireNode(right);
      ReleaseParentAfterMerge(parent, parent_is_root);
      return LeafWriteStatus::kRestart;
    }
    if (RotationHelps(l, r, kLeafMin)) {
      while (left->count + 1 < right->count) {
        RotateLeafLeft(parent, left_idx, left, right);
      }
      while (right->count + 1 < left->count) {
        RotateLeafRight(parent, left_idx, left, right);
      }
      rebalance_borrows_.fetch_add(1, std::memory_order_relaxed);
      LeafOps::UnlockEx(sibling->lock, sibling_handle);
      LeafOps::UnlockEx(leaf->lock, handle);
      UnlockNodeEx(parent->lock);
      return LeafWriteStatus::kRestart;
    }
    // No profitable move; release the sibling with a bump anyway — a
    // spurious version bump only costs overlapping readers a restart.
    LeafOps::UnlockEx(sibling->lock, sibling_handle);
    UnlockNodeExNoBump(parent->lock);
    *result = ApplyToLeaf(leaf, key, nullptr, WriteKind::kRemove);
    LeafOps::UnlockEx(leaf->lock, handle);
    return LeafWriteStatus::kDone;
  }

  // --- Maintenance ---

  // Frees the subtree and returns the number of nodes freed.
  size_t FreeSubtree(NodeBase* node) {
    if (node == nullptr) return 0;
    if (IsLeaf(node)) {
      delete AsLeaf(node);
      return 1;
    }
    Inner* inner = AsInner(node);
    size_t freed = 1;
    for (uint16_t i = 0; i <= inner->count; ++i) {
      freed += FreeSubtree(inner->children[i]);
    }
    delete inner;
    return freed;
  }

  void CheckSubtree(const NodeBase* node, const Key* lower, const Key* upper,
                    size_t* keys) const {
    if (IsLeaf(node)) {
      const Leaf* leaf = AsLeaf(node);
      OPTIQL_CHECK(leaf->count <= kLeafMax);
      for (uint16_t i = 0; i < leaf->count; ++i) {
        if (i > 0) OPTIQL_CHECK(leaf->keys[i - 1] < leaf->keys[i]);
        if (lower != nullptr) OPTIQL_CHECK(!(leaf->keys[i] < *lower));
        if (upper != nullptr) OPTIQL_CHECK(leaf->keys[i] < *upper);
      }
      *keys += leaf->count;
      return;
    }
    const Inner* inner = AsInner(node);
    OPTIQL_CHECK(inner->count >= 1);
    OPTIQL_CHECK(inner->count <= kInnerMax);
    for (uint16_t i = 0; i < inner->count; ++i) {
      if (i > 0) OPTIQL_CHECK(inner->keys[i - 1] < inner->keys[i]);
    }
    for (uint16_t i = 0; i <= inner->count; ++i) {
      const NodeBase* child = inner->children[i];
      OPTIQL_CHECK(child->level + 1 == inner->level);
      const Key* lo = i == 0 ? lower : &inner->keys[i - 1];
      const Key* hi = i == inner->count ? upper : &inner->keys[i];
      CheckSubtree(child, lo, hi, keys);
    }
  }

 public:
  // --- Transaction-layer hooks (src/txn/) ---
  //
  // Available for versioned leaves (the leaf lock carries the
  // version word OCC validates against — the same word single-key
  // operations use, not a shadow table). The hooks assume the CCBench-style
  // transactional workload model: a fixed key population, with structural
  // modifications (Insert/Remove) quiesced while transactions run. Index
  // writers performing splits/merges block on leaf locks while holding
  // inner locks, which a transaction holding leaves could not safely spin
  // against.
  //
  // The caller (a TxnContext) holds one EpochGuard for the whole
  // transaction, so leaf pointers captured here stay dereferenceable until
  // it commits or aborts.

  using TxnLock = LeafLock;

  struct TxnReadResult {
    bool found = false;
    Value value{};
    const LeafLock* lock = nullptr;  // leaf lock guarding the record
    uint64_t version = 0;            // validated snapshot of that word
  };

  // OCC execution-phase read: a validated snapshot of the record plus the
  // leaf word commit-time validation re-checks. Must not be called while
  // the transaction holds leaf locks (it can spin on a held leaf).
  void TxnRead(const Key& key, TxnReadResult& out) const
    requires(LeafOps::kVersioned)
  {
    RestartCounter restarts(read_restarts_);
    while (true) {
      restarts.Tick();
      const LeafEdge edge = DescendToLeaf(key, &restarts);
      uint64_t v = 0;
      if (!ReadLockLeaf(edge, v)) continue;

      const Leaf* leaf = edge.leaf;
      uint16_t pos = 0;
      const bool found = leaf->Find(key, LoadCount(leaf, kLeafMax), pos);
      const Value value = found ? leaf->values[pos] : Value{};
      if (!Validate(leaf->lock, v)) continue;
      out.found = found;
      out.value = value;
      out.lock = &leaf->lock;
      out.version = v;
      return;
    }
  }

  // Exclusive record hold for the transaction layer. Non-owning guards
  // piggyback on a leaf the transaction already holds (two keys can share
  // a leaf), so only the owning guard releases.
  class TxnWriteGuard {
   public:
    TxnWriteGuard() = default;

    const LeafLock* LockPtr() const { return &leaf_->lock; }
    Value Read() const { return leaf_->values[pos_]; }
    void Install(const Value& value) {
      OPTIQL_INVARIANT(leaf_ != nullptr,
                       "Install on a guard that never locked a record");
      leaf_->values[pos_] = value;
    }
    uint64_t HeldVersion() const {
      return LeafOps::HeldVersion(leaf_->lock, handle_);
    }
    bool owns() const { return owns_; }

    // Releases the leaf. `installed` == false releases a versioned leaf
    // without a version bump, so pure-abort unlocks do not invalidate
    // concurrent readers.
    void Unlock(bool installed) {
      if (!owns_) return;
      owns_ = false;
      if constexpr (LeafOps::kVersioned) {
        if (!installed) {
          LeafOps::UnlockExNoBump(leaf_->lock, handle_);
          return;
        }
      }
      (void)installed;
      LeafOps::UnlockEx(leaf_->lock, handle_);
    }

   private:
    friend class BTree;
    Leaf* leaf_ = nullptr;
    uint16_t pos_ = 0;
    bool owns_ = false;
    typename LeafOps::ExHandle handle_{};
  };

  // Commit-time record lock, blocking: queue-based leaf locks wait in the
  // leaf queue. After acquiring, a fresh descent confirms the locked leaf
  // still covers `key` — coverage is then frozen for as long as we hold it
  // (every split/merge/rotation of a leaf requires its lock).
  // `already_held` reports leaf locks this transaction already owns.
  template <class HeldContains>
  TxnLockStatus TxnLockForWrite(const Key& key, int slot,
                                const HeldContains& already_held,
                                TxnWriteGuard& guard)
    requires(LeafOps::kVersioned)
  {
    while (true) {
      Leaf* leaf = DescendToLeaf(key).leaf;
      if (already_held(&leaf->lock)) {
        return BindHeldGuard(leaf, key, guard);
      }
      guard.handle_ = LeafOps::LockEx(leaf->lock, slot);
      guard.leaf_ = leaf;
      guard.owns_ = true;
      if (LeafOps::IsObsolete(leaf->lock) || DescendToLeaf(key).leaf != leaf) {
        guard.Unlock(/*installed=*/false);
        continue;
      }
      uint16_t pos = 0;
      if (leaf->Find(key, LoadCount(leaf, kLeafMax), pos)) {
        guard.pos_ = pos;
        return TxnLockStatus::kAcquired;
      }
      guard.Unlock(/*installed=*/false);
      return TxnLockStatus::kAbsent;
    }
  }

  // No-wait variant (2PL deadlock avoidance): the record is locked by
  // promoting a validated leaf snapshot (TryUpgrade), so a competing
  // holder or a concurrent change both come back kBusy, never a wait.
  template <class HeldContains>
  TxnLockStatus TxnTryLockForWrite(const Key& key, int slot,
                                   const HeldContains& already_held,
                                   TxnWriteGuard& guard)
    requires(LeafOps::kVersioned)
  {
    Leaf* leaf = DescendToLeaf(key).leaf;
    if (already_held(&leaf->lock)) {
      return BindHeldGuard(leaf, key, guard);
    }
    uint64_t v;
    if (!LeafOps::StableVersion(leaf->lock, v)) return TxnLockStatus::kBusy;
    uint16_t pos = 0;
    const bool found = leaf->Find(key, LoadCount(leaf, kLeafMax), pos);
    if (!LeafOps::ValidateVersion(leaf->lock, v)) return TxnLockStatus::kBusy;
    if (!found) return TxnLockStatus::kAbsent;
    if (!LeafOps::TryUpgrade(leaf->lock, v, slot, guard.handle_)) {
      return TxnLockStatus::kBusy;
    }
    guard.leaf_ = leaf;
    guard.pos_ = pos;
    guard.owns_ = true;
    return TxnLockStatus::kAcquired;
  }

  // Deadlock-avoidance rank: leaf ranges are ordered by key, so
  // transactions that lock their write sets in ascending key order acquire
  // leaf locks in a consistent global order.
  static std::pair<uint64_t, uint64_t> TxnLockRank(const Key& key)
    requires(LeafOps::kVersioned)
  {
    return {static_cast<uint64_t>(key), 0};
  }

 private:
  // Completes a guard over a leaf this transaction already holds: the leaf
  // is stable under our own exclusive hold, so a plain search suffices.
  TxnLockStatus BindHeldGuard(Leaf* leaf, const Key& key,
                              TxnWriteGuard& guard) {
    guard.leaf_ = leaf;
    guard.owns_ = false;
    uint16_t pos = 0;
    if (leaf->Find(key, LoadCount(leaf, kLeafMax), pos)) {
      guard.pos_ = pos;
      return TxnLockStatus::kAcquired;
    }
    return TxnLockStatus::kAbsent;
  }

  std::atomic<NodeBase*> root_;
  std::atomic<size_t> size_{0};
  mutable std::atomic<uint64_t> read_restarts_{0};
  std::atomic<uint64_t> write_restarts_{0};
  std::atomic<uint64_t> leaf_splits_{0};
  std::atomic<uint64_t> inner_splits_{0};
  std::atomic<uint64_t> leaf_merges_{0};
  std::atomic<uint64_t> inner_merges_{0};
  std::atomic<uint64_t> rebalance_borrows_{0};
  std::atomic<uint64_t> root_collapses_{0};
  std::atomic<uint64_t> nodes_retired_{0};
  // Live (reachable) nodes; starts at 1 for the empty root leaf.
  std::atomic<int64_t> live_nodes_{1};
};

template <class Key, class Value, class SyncPolicy, size_t kNodeBytes>
constexpr size_t BTree<Key, Value, SyncPolicy, kNodeBytes>::LeafCapacity() {
  return Leaf::kMax;
}

template <class Key, class Value, class SyncPolicy, size_t kNodeBytes>
constexpr size_t BTree<Key, Value, SyncPolicy, kNodeBytes>::InnerCapacity() {
  return Inner::kMax;
}

}  // namespace optiql

#endif  // OPTIQL_INDEX_BTREE_H_
