// Queue-node management for queue-based locks (OptiQL, MCS, MCS-RW).
//
// OptiQL keeps its lock word at 8 bytes by storing a *queue node ID* instead
// of a 64-bit pointer (paper §4.2/§6.3). That requires a globally accessible
// ID⇄pointer translation. Following the paper (and FOEDUS), all queue nodes
// are pre-allocated in one contiguous array so translation is plain pointer
// arithmetic; IDs are array indexes. Nodes are handed to threads in small
// blocks, cached thread-locally, and recycled on thread exit.
#ifndef OPTIQL_QNODE_QNODE_POOL_H_
#define OPTIQL_QNODE_QNODE_POOL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "common/model_atomic.h"
#include "common/platform.h"

namespace optiql {

// One queue node = one cacheline, so local spinning on `version` never
// contends with a neighbouring thread's node.
//
// Field use by lock type:
//   OptiQL : `next` = successor node, `version` = version to adopt
//            (kInvalidVersion while waiting; the release protocol stores the
//            successor's new version here, which doubles as the grant signal).
//   MCS    : `version` = 0 while waiting, 1 once granted.
//   MCS-RW : `version` = grant/blocked flag, `aux` = packed
//            {class, successor_class} state.
struct OPTIQL_CACHELINE_ALIGNED QNode {
  static constexpr uint64_t kInvalidVersion = ~0ULL;

  ModelAtomic<QNode*> next{nullptr};
  ModelAtomic<uint64_t> version{kInvalidVersion};
  ModelAtomic<uint64_t> aux{0};

  // Ownership state for the checked-invariant build: free in the pool,
  // owned by a thread but idle, or enqueued in some lock's queue. Declared
  // unconditionally (the cacheline has 40 spare bytes, so the layout is
  // identical in every build) but only touched under
  // OPTIQL_CHECK_INVARIANTS. Catches double release, releasing a node
  // never enqueued, and returning a still-enqueued node to the pool — the
  // misuse class that otherwise shows up as a queue hang or silent
  // corruption far from the bug.
  static constexpr uint8_t kDbgPooled = 0;
  static constexpr uint8_t kDbgIdle = 1;
  static constexpr uint8_t kDbgQueued = 2;
  ModelAtomic<uint8_t> dbg_state{kDbgPooled};

  void DbgTransition(uint8_t from, uint8_t to, const char* msg) {
#if defined(OPTIQL_CHECK_INVARIANTS) && OPTIQL_CHECK_INVARIANTS
    // Ownership bookkeeping, not protocol: under the model checker the
    // exchange runs quietly (no scheduling point) so the checked build
    // explores the same interleavings as the release build.
#if defined(OPTIQL_MODEL) && OPTIQL_MODEL
    model::QuietScope quiet;
#endif
    const uint8_t prev = dbg_state.exchange(to, std::memory_order_acq_rel);
    OPTIQL_INVARIANT(prev == from, msg);
#else
    (void)from;
    (void)to;
    (void)msg;
#endif
  }

  // Returns the node to its pristine state before (re)joining a queue.
  // Deliberately leaves dbg_state alone: ownership does not change here.
  void Reset() {
#if defined(OPTIQL_MODEL) && OPTIQL_MODEL
    // Reset only touches a node the caller owns exclusively (idle, never
    // enqueued), so no other thread can observe these stores: quiet.
    model::QuietScope quiet;
#endif
    next.store(nullptr, std::memory_order_relaxed);
    version.store(kInvalidVersion, std::memory_order_relaxed);
    aux.store(0, std::memory_order_relaxed);
  }
};

static_assert(sizeof(QNode) == kCachelineSize,
              "QNode must occupy exactly one cacheline");

// Fixed-capacity pool of queue nodes with O(1) ID⇄pointer translation.
// ID 0 is reserved as the null ID so an all-zero lock word means
// "unlocked, version 0, no tail".
class QNodePool {
 public:
  // 10 ID bits in the OptiQL lock word => up to 1024 IDs; ID 0 reserved.
  static constexpr uint32_t kIdBits = 10;
  static constexpr uint32_t kDefaultCapacity = 1u << kIdBits;
  static constexpr uint32_t kNullId = 0;

  explicit QNodePool(uint32_t capacity = kDefaultCapacity);
  ~QNodePool();

  QNodePool(const QNodePool&) = delete;
  QNodePool& operator=(const QNodePool&) = delete;

  // The process-wide pool used by all locks. Never destroyed (trivial
  // teardown order issues with detached threads otherwise).
  static QNodePool& Instance();

  // Takes a free node out of the pool, reset and ready to use. Returns
  // nullptr when the pool is exhausted.
  QNode* Acquire();

  // Returns a node to the pool. The caller must no longer reference it.
  void Release(QNode* node);

  QNode* ToPtr(uint32_t id) {
    OPTIQL_CHECK(id != kNullId && id < capacity_);
    return &nodes_[id];
  }

  uint32_t ToId(const QNode* node) const {
    auto id = static_cast<uint32_t>(node - nodes_);
    OPTIQL_CHECK(id != kNullId && id < capacity_);
    return id;
  }

  uint32_t capacity() const { return capacity_; }

  // Number of nodes currently handed out (approximate under concurrency;
  // exact when quiescent). Intended for tests and diagnostics.
  uint32_t in_use() const;

 private:
  const uint32_t capacity_;
  QNode* nodes_;  // Aligned array of `capacity_` nodes; index 0 unused.

  mutable std::mutex mu_;
  std::vector<uint32_t> free_ids_;  // Guarded by mu_.
};

namespace qnode_internal {
// Shortcut to this thread's slots in its registry-keyed cache
// (qnode_pool.cc); null before the first Get and after the exit flush.
inline thread_local QNode** t_direct_slots = nullptr;
}  // namespace qnode_internal

// Per-thread cache of queue nodes, keyed by ThreadRegistry ID. Index
// operations hold at most three queue-based locks at a time (parent + node +
// sibling during delete-time rebalancing; slots 0..2), and the transaction
// layer holds up to kMaxTxnLocks write locks at commit (slots
// kTxnSlotBase..). Nodes are lazily acquired from the global pool on first
// use and flushed back by a registry exit hook when the thread deregisters.
class ThreadQNodes {
 public:
  static constexpr int kNodesPerThread = 16;
  // Slots reserved for the txn layer (src/txn/): index ops use 0..2, so a
  // txn commit that re-enters the index still has its own disjoint range.
  static constexpr int kTxnSlotBase = 4;
  static constexpr int kMaxTxnLocks = kNodesPerThread - kTxnSlotBase;

  // Returns this thread's i-th cached queue node (0 <= i < kNodesPerThread).
  // Aborts if the global pool is exhausted: that means the system was
  // oversubscribed past the lock word's ID capacity, which the paper's
  // deployment model (threads <= hardware contexts) excludes. Every
  // queue-lock acquire calls this, so the hit path (slot already filled) is
  // inline; filling a slot from the pool is out of line.
  static QNode* Get(int i) {
    OPTIQL_CHECK(i >= 0 && i < kNodesPerThread);
    QNode** slots = qnode_internal::t_direct_slots;
    if (OPTIQL_LIKELY(slots != nullptr && slots[i] != nullptr)) {
      return slots[i];
    }
    return Fill(i);
  }

 private:
  static QNode* Fill(int i);
};

// RAII convenience for callers that want an explicit, scoped queue node
// rather than the thread-local cache (e.g., tests exercising pool pressure).
class QNodeGuard {
 public:
  explicit QNodeGuard(QNodePool& pool = QNodePool::Instance())
      : pool_(pool), node_(pool.Acquire()) {
    OPTIQL_CHECK(node_ != nullptr);
  }
  ~QNodeGuard() { pool_.Release(node_); }

  QNodeGuard(const QNodeGuard&) = delete;
  QNodeGuard& operator=(const QNodeGuard&) = delete;

  QNode* node() { return node_; }

 private:
  QNodePool& pool_;
  QNode* node_;
};

}  // namespace optiql

#endif  // OPTIQL_QNODE_QNODE_POOL_H_
