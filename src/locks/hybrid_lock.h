// Hybrid latch after Böttcher et al., "Scalable and Robust Latches for
// Database Systems" (DaMoN'20) — the paper's reference [6] and the §8
// "pessimistic readers combined with optimistic locks" design point.
//
// A centralized 8-byte lock supporting three access modes:
//   * optimistic read  — snapshot + validate, no shared-memory write;
//   * pessimistic read — a shared counter in the word blocks writers, for
//     readers that keep failing validation under write-heavy contention;
//   * exclusive write  — blocks until no shared readers and no writer.
//
// Word layout: [63] exclusive  [48..62] shared count (15 bits)
//              [0..47] version (48 bits).
//
// Optimistic validation masks out the shared-count field: pessimistic
// readers do not invalidate optimistic ones (data is unchanged), only
// writers do. `ReadCriticalHybrid` packages the adaptive policy the DaMoN
// paper advocates: try optimistically a few times, then fall back.
#ifndef OPTIQL_LOCKS_HYBRID_LOCK_H_
#define OPTIQL_LOCKS_HYBRID_LOCK_H_

#include <atomic>
#include <cstdint>

#include "common/backoff.h"
#include "common/check.h"
#include "common/model_atomic.h"
#include "common/platform.h"
#include "sync/lock_telemetry.h"

namespace optiql {

class HybridLock {
 public:
  static constexpr uint64_t kExclusiveBit = 1ULL << 63;
  static constexpr int kSharedShift = 48;
  static constexpr uint64_t kSharedOne = 1ULL << kSharedShift;
  static constexpr uint64_t kSharedMask = ((1ULL << 15) - 1) << kSharedShift;
  static constexpr uint64_t kVersionMask = (1ULL << kSharedShift) - 1;

  // Optimistic attempts before a reader falls back to pessimistic mode.
  static constexpr int kOptimisticAttempts = 4;

  HybridLock() = default;
  HybridLock(const HybridLock&) = delete;
  HybridLock& operator=(const HybridLock&) = delete;

  // --- Optimistic reader interface ---

  bool AcquireSh(uint64_t& v) const {
    v = word_.load(std::memory_order_acquire);
    if ((v & kExclusiveBit) != 0) {
      LockTelemetry::Count(LockTelemetry::kOptimisticRestart);
      return false;
    }
    return true;
  }

  bool ReleaseSh(uint64_t v) const {
    ModelThreadFence(std::memory_order_acquire);
    const uint64_t now = word_.load(std::memory_order_relaxed);
    // Shared-count churn is invisible to optimistic readers: pessimistic
    // readers do not modify the protected data.
    if ((now & ~kSharedMask) != (v & ~kSharedMask)) {
      LockTelemetry::Count(LockTelemetry::kOptimisticRestart);
      return false;
    }
    return true;
  }

  // --- Pessimistic reader interface ---

  void AcquireShPessimistic() {
    NoBackoff backoff;
    uint64_t v = word_.load(std::memory_order_relaxed);
    while (true) {
      if ((v & kExclusiveBit) != 0) {
        backoff.Pause();
        v = word_.load(std::memory_order_relaxed);
        continue;
      }
      // Mode-transition legality: one more reader must fit in the 15-bit
      // count; overflowing it would carry into the exclusive bit and
      // fabricate a writer.
      OPTIQL_INVARIANT((v & kSharedMask) != kSharedMask,
                       "hybrid shared-count overflow: more than 2^15-1 "
                       "concurrent pessimistic readers");
      if (word_.compare_exchange_weak(v, v + kSharedOne,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

  void ReleaseShPessimistic() {
    const uint64_t prev =
        word_.fetch_sub(kSharedOne, std::memory_order_release);
    // A release with no reader registered underflows the count into the
    // version field, silently invalidating every optimistic snapshot.
    OPTIQL_INVARIANT((prev & kSharedMask) != 0,
                     "hybrid ReleaseShPessimistic without a pessimistic "
                     "reader registered");
    (void)prev;
  }

  // --- Exclusive writer interface ---

  void AcquireEx() {
    NoBackoff backoff;
    bool waited = false;
    uint64_t v = word_.load(std::memory_order_relaxed);
    while (true) {
      if ((v & (kExclusiveBit | kSharedMask)) != 0) {
        if (!waited) {
          // Once per contended acquisition, not per spin iteration.
          waited = true;
          LockTelemetry::Count(LockTelemetry::kExclusiveWait);
        }
        backoff.Pause();
        v = word_.load(std::memory_order_relaxed);
        continue;
      }
      if (word_.compare_exchange_weak(v, v | kExclusiveBit,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

  bool TryAcquireEx() {
    uint64_t v = word_.load(std::memory_order_relaxed);
    return (v & (kExclusiveBit | kSharedMask)) == 0 &&
           word_.compare_exchange_strong(v, v | kExclusiveBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  bool TryUpgrade(uint64_t v) {
    if ((v & (kExclusiveBit | kSharedMask)) != 0) return false;
    return word_.compare_exchange_strong(v, v | kExclusiveBit,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  void ReleaseEx() {
    const uint64_t v = word_.load(std::memory_order_relaxed);
    // Mode-transition legality: only the exclusive state may transition
    // back to free, and exclusive excludes shared readers by acquisition
    // order — a nonzero count here means the word was corrupted.
    OPTIQL_INVARIANT((v & kExclusiveBit) != 0,
                     "hybrid ReleaseEx without holding the lock");
    OPTIQL_INVARIANT((v & kSharedMask) == 0,
                     "hybrid ReleaseEx with pessimistic readers registered");
    word_.store(((v & kVersionMask) + 1) & kVersionMask,
                std::memory_order_release);
  }

  // --- Adaptive read (the hybrid policy) ---
  //
  // Runs `f` under optimistic protection, falling back to pessimistic
  // shared mode after kOptimisticAttempts failed validations. Always
  // succeeds; returns true if the fallback was used (diagnostics).
  template <class F>
  bool ReadCriticalHybrid(F&& f) {
    for (int attempt = 0; attempt < kOptimisticAttempts; ++attempt) {
      uint64_t v;
      if (!AcquireSh(v)) continue;
      f();
      if (ReleaseSh(v)) return false;
    }
    LockTelemetry::Count(LockTelemetry::kPessimisticFallback);
    AcquireShPessimistic();
    f();
    ReleaseShPessimistic();
    return true;
  }

  // --- Introspection ---

  bool IsLockedEx() const {
    return (word_.load(std::memory_order_acquire) & kExclusiveBit) != 0;
  }
  uint32_t SharedCount() const {
    return static_cast<uint32_t>(
        (word_.load(std::memory_order_acquire) & kSharedMask) >>
        kSharedShift);
  }
  uint64_t LoadWord() const { return word_.load(std::memory_order_acquire); }

 private:
  ModelAtomic<uint64_t> word_{0};
};

static_assert(sizeof(HybridLock) == 8, "Hybrid lock must be 8 bytes");

}  // namespace optiql

#endif  // OPTIQL_LOCKS_HYBRID_LOCK_H_
