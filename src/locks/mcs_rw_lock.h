// Fair (FIFO) queue-based reader-writer lock, after Mellor-Crummey & Scott,
// "Scalable Reader-Writer Synchronization for Shared-Memory Multiprocessors"
// (PPoPP '91) — the paper's MCS-RW baseline (§7.1).
//
// The original algorithm needs three lock fields (`tail`, `next_writer`,
// `reader_count`, >16 bytes). Following the paper, we compact all three into
// one 8-byte word using queue-node IDs (§6.3 encoding):
//
//   bits 0..9   tail queue-node ID          (0 = empty queue)
//   bits 10..19 next_writer queue-node ID   (0 = none)
//   bits 20..45 active reader count
//
// Enqueueing becomes a CAS loop on the packed word (the original's XCHG
// would clobber the sibling fields). In exchange, the packed word makes the
// original's trickiest step *simpler*: a single fetch_sub on the word hands
// the departing reader a consistent snapshot of (reader_count, next_writer).
//
// Per-node state lives in QNode::aux:
//   bit 0     blocked
//   bit 1     class (1 = writer)
//   bits 2..3 successor class (0 none, 1 reader, 2 writer)
#ifndef OPTIQL_LOCKS_MCS_RW_LOCK_H_
#define OPTIQL_LOCKS_MCS_RW_LOCK_H_

#include <atomic>
#include <cstdint>

#include "common/annotations.h"
#include "common/check.h"
#include "common/model_atomic.h"
#include "common/platform.h"
#include "qnode/qnode_pool.h"

namespace optiql {

class OPTIQL_CAPABILITY("shared_mutex") McsRwLock {
 public:
  McsRwLock() = default;
  McsRwLock(const McsRwLock&) = delete;
  McsRwLock& operator=(const McsRwLock&) = delete;

  void AcquireEx(QNode* qnode) OPTIQL_ACQUIRE() {
    qnode->DbgTransition(QNode::kDbgIdle, QNode::kDbgQueued,
                         "MCS-RW AcquireEx with a node that is already "
                         "enqueued or not owned by this thread");
    qnode->next.store(nullptr, std::memory_order_relaxed);
    qnode->aux.store(kBlockedBit | kClassWriterBit, std::memory_order_relaxed);
    const uint32_t self = Pool().ToId(qnode);
    const uint32_t pred_id = SwapTail(self);
    if (pred_id == kNullId) {
      // Queue was empty, but readers may still be active (they leave the
      // queue before dropping their reader count). Register as the next
      // writer; if no readers are active and we can atomically deregister
      // ourselves, the lock is ours — otherwise the last reader wakes us.
      SetNextWriter(self);
      uint64_t w = word_.load(std::memory_order_acquire);
      while (ReaderCount(w) == 0 && NextWriterId(w) == self) {
        if (word_.compare_exchange_weak(w, ClearNextWriter(w),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          qnode->aux.fetch_and(~kBlockedBit, std::memory_order_acq_rel);
          break;
        }
      }
    } else {
      QNode* pred = Pool().ToPtr(pred_id);
      // Successor class must be published before the link (the predecessor
      // reads it only after observing `next`).
      pred->aux.fetch_or(kSuccWriter << kSuccShift, std::memory_order_acq_rel);
      pred->next.store(qnode, std::memory_order_release);
    }
    SpinUntilGranted(qnode);
  }

  void ReleaseEx(QNode* qnode) OPTIQL_RELEASE() {
    qnode->DbgTransition(QNode::kDbgQueued, QNode::kDbgIdle,
                         "MCS-RW ReleaseEx with a node that is not enqueued "
                         "(double release, or release without acquire?)");
    QNode* next = WaitForSuccessorOrLeave(qnode);
    if (next == nullptr) return;
    if ((next->aux.load(std::memory_order_acquire) & kClassWriterBit) == 0) {
      // Reader successor: account for it before unblocking it.
      word_.fetch_add(kReaderOne, std::memory_order_acq_rel);
    }
    Unblock(next);
  }

  void AcquireSh(QNode* qnode) OPTIQL_ACQUIRE_SHARED() {
    qnode->DbgTransition(QNode::kDbgIdle, QNode::kDbgQueued,
                         "MCS-RW AcquireSh with a node that is already "
                         "enqueued or not owned by this thread");
    qnode->next.store(nullptr, std::memory_order_relaxed);
    qnode->aux.store(kBlockedBit, std::memory_order_relaxed);
    const uint32_t self = Pool().ToId(qnode);
    const uint32_t pred_id = SwapTail(self);
    if (pred_id == kNullId) {
      const uint64_t old_word =
          word_.fetch_add(kReaderOne, std::memory_order_acq_rel);
      OPTIQL_INVARIANT(ReaderCount(old_word) <
                           (kReaderMask >> kReaderShift),
                       "MCS-RW reader count overflow");
      qnode->aux.fetch_and(~kBlockedBit, std::memory_order_acq_rel);
    } else {
      QNode* pred = Pool().ToPtr(pred_id);
      const uint64_t pred_blocked_reader = kBlockedBit;  // reader, no succ
      uint64_t expected = pred_blocked_reader;
      const bool pred_will_wake_us =
          (pred->aux.load(std::memory_order_acquire) & kClassWriterBit) != 0 ||
          pred->aux.compare_exchange_strong(
              expected, pred_blocked_reader | (kSuccReader << kSuccShift),
              std::memory_order_acq_rel, std::memory_order_acquire);
      if (pred_will_wake_us) {
        pred->next.store(qnode, std::memory_order_release);
        SpinWait wait;
        while ((qnode->aux.load(std::memory_order_acquire) & kBlockedBit) !=
               0) {
          wait.Spin();
        }
      } else {
        // Predecessor is an active reader: join the read group directly.
        // The count must be raised *before* linking so the predecessor's
        // departure cannot observe a zero count and wake a writer early.
        word_.fetch_add(kReaderOne, std::memory_order_acq_rel);
        pred->next.store(qnode, std::memory_order_release);
        qnode->aux.fetch_and(~kBlockedBit, std::memory_order_acq_rel);
      }
    }
    // A reader successor may have registered with us while we were blocked;
    // it is now ours to admit.
    if (SuccClass(qnode->aux.load(std::memory_order_acquire)) == kSuccReader) {
      SpinWait wait;
      QNode* next;
      while ((next = qnode->next.load(std::memory_order_acquire)) == nullptr) {
        wait.Spin();
      }
      word_.fetch_add(kReaderOne, std::memory_order_acq_rel);
      Unblock(next);
    }
  }

  void ReleaseSh(QNode* qnode) OPTIQL_RELEASE_SHARED() {
    qnode->DbgTransition(QNode::kDbgQueued, QNode::kDbgIdle,
                         "MCS-RW ReleaseSh with a node that is not enqueued "
                         "(double release, or release without acquire? — "
                         "this would otherwise hang waiting for a successor)");
    QNode* next = WaitForSuccessorOrLeave(qnode);
    if (next != nullptr &&
        SuccClass(qnode->aux.load(std::memory_order_acquire)) == kSuccWriter) {
      SetNextWriter(Pool().ToId(next));
    }
    // Drop our reader count; the fetch_sub snapshot atomically pairs the old
    // count with the next_writer field.
    const uint64_t old_word =
        word_.fetch_sub(kReaderOne, std::memory_order_acq_rel);
    OPTIQL_INVARIANT(ReaderCount(old_word) >= 1,
                     "MCS-RW ReleaseSh underflowed the reader count "
                     "(release without a matching shared acquire)");
    const uint32_t waiting_writer = NextWriterId(old_word);
    if (ReaderCount(old_word) == 1 && waiting_writer != kNullId) {
      // We were the last active reader and a writer is registered: try to
      // take responsibility for waking it. The CAS arbitrates against the
      // writer's self-grant in AcquireEx.
      uint64_t w = word_.load(std::memory_order_acquire);
      while (ReaderCount(w) == 0 && NextWriterId(w) == waiting_writer) {
        if (word_.compare_exchange_weak(w, ClearNextWriter(w),
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
          Unblock(Pool().ToPtr(waiting_writer));
          return;
        }
      }
    }
  }

  // --- Introspection (tests/diagnostics) ---

  uint32_t ActiveReaders() const {
    return ReaderCount(word_.load(std::memory_order_acquire));
  }
  bool HasQueue() const {
    return TailId(word_.load(std::memory_order_acquire)) != kNullId;
  }

 private:
  static constexpr uint32_t kNullId = QNodePool::kNullId;
  static constexpr uint64_t kIdFieldMask = (1u << QNodePool::kIdBits) - 1;
  static constexpr int kTailShift = 0;
  static constexpr int kNextWriterShift = 10;
  static constexpr int kReaderShift = 20;
  static constexpr uint64_t kReaderOne = 1ULL << kReaderShift;
  static constexpr uint64_t kReaderMask = ((1ULL << 26) - 1) << kReaderShift;

  // QNode::aux bit assignments.
  static constexpr uint64_t kBlockedBit = 1;
  static constexpr uint64_t kClassWriterBit = 2;
  static constexpr int kSuccShift = 2;
  static constexpr uint64_t kSuccNone = 0;
  static constexpr uint64_t kSuccReader = 1;
  static constexpr uint64_t kSuccWriter = 2;

  static QNodePool& Pool() { return QNodePool::Instance(); }

  static uint32_t TailId(uint64_t w) {
    return static_cast<uint32_t>((w >> kTailShift) & kIdFieldMask);
  }
  static uint32_t NextWriterId(uint64_t w) {
    return static_cast<uint32_t>((w >> kNextWriterShift) & kIdFieldMask);
  }
  static uint32_t ReaderCount(uint64_t w) {
    return static_cast<uint32_t>((w & kReaderMask) >> kReaderShift);
  }
  static uint64_t ClearNextWriter(uint64_t w) {
    return w & ~(kIdFieldMask << kNextWriterShift);
  }
  static uint64_t SuccClass(uint64_t aux) { return (aux >> kSuccShift) & 3; }

  // Atomically replaces the tail field, returning the previous tail ID.
  uint32_t SwapTail(uint32_t id) {
    uint64_t w = word_.load(std::memory_order_relaxed);
    while (true) {
      const uint64_t desired =
          (w & ~(kIdFieldMask << kTailShift)) | (uint64_t{id} << kTailShift);
      if (word_.compare_exchange_weak(w, desired, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return TailId(w);
      }
    }
  }

  void SetNextWriter(uint32_t id) {
    uint64_t w = word_.load(std::memory_order_relaxed);
    while (true) {
      const uint64_t desired = ClearNextWriter(w) |
                               (uint64_t{id} << kNextWriterShift);
      if (word_.compare_exchange_weak(w, desired, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

  static void Unblock(QNode* node) {
    node->aux.fetch_and(~kBlockedBit, std::memory_order_acq_rel);
  }

  void SpinUntilGranted(QNode* qnode) {
    SpinWait wait;
    while ((qnode->aux.load(std::memory_order_acquire) & kBlockedBit) != 0) {
      wait.Spin();
    }
  }

  // Common exit step: if we have (or will have) a successor, wait for it to
  // link and return it; otherwise remove ourselves from the queue tail and
  // return nullptr.
  QNode* WaitForSuccessorOrLeave(QNode* qnode) {
    if (qnode->next.load(std::memory_order_acquire) == nullptr) {
      // Try to swing the tail from us back to "empty".
      const uint32_t self = Pool().ToId(qnode);
      uint64_t w = word_.load(std::memory_order_relaxed);
      while (TailId(w) == self) {
        const uint64_t desired = w & ~(kIdFieldMask << kTailShift);
        if (word_.compare_exchange_weak(w, desired, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
          return nullptr;  // Indeed no successor.
        }
      }
      // A successor swapped itself in; wait for the link below.
    }
    SpinWait wait;
    QNode* next;
    while ((next = qnode->next.load(std::memory_order_acquire)) == nullptr) {
      wait.Spin();
    }
    return next;
  }

  ModelAtomic<uint64_t> word_{0};
};

static_assert(sizeof(McsRwLock) == 8, "MCS-RW lock must be one 8-byte word");

}  // namespace optiql

#endif  // OPTIQL_LOCKS_MCS_RW_LOCK_H_
