// Lock telemetry: process-wide counters for the events that drive (and
// evaluate) contention adaptation — optimistic restarts, pessimistic
// fallbacks, exclusive-acquire waits, and the latch-free leaf update paths.
//
// Design constraints (ISSUE 6 tentpole):
//  * Compiled out by default. Counting sites call LockTelemetry::Count(...)
//    unconditionally; with OPTIQL_LOCK_TELEMETRY undefined the body is an
//    `if constexpr (false)` and the call vanishes. Enabled via
//    -DOPTIQL_LOCK_TELEMETRY=ON (CMake option).
//  * Counting must never become its own contention point. Each thread owns
//    one cacheline-aligned slot indexed by ThreadRegistry::CurrentThreadId();
//    increments are single-writer relaxed load+store (no RMW, no sharing).
//  * Thread IDs are recycled. A ThreadRegistry::AtThreadExit hook folds the
//    exiting thread's slot into a global retired accumulator *before* the ID
//    is reused, so Snapshot() totals are loss-free across thread churn.
//
// The storage is tiny (kMaxThreads cachelines) and kept unconditionally so
// tests and benches compile identically in both modes; only the counting
// fast path is gated.
#ifndef OPTIQL_SYNC_LOCK_TELEMETRY_H_
#define OPTIQL_SYNC_LOCK_TELEMETRY_H_

#include <atomic>
#include <cstdint>

#include "common/platform.h"
#include "sync/thread_registry.h"

namespace optiql {

#if defined(OPTIQL_LOCK_TELEMETRY) && OPTIQL_LOCK_TELEMETRY
inline constexpr bool kLockTelemetryEnabled = true;
#else
inline constexpr bool kLockTelemetryEnabled = false;
#endif

class LockTelemetry {
 public:
  enum Counter : uint32_t {
    // An optimistic read section failed validation (ReleaseSh mismatch or
    // AcquireSh on a locked/obsolete word) and the caller must restart.
    kOptimisticRestart = 0,
    // A read entered a pessimistic mode (shared count / queued) after the
    // optimistic policy gave up.
    kPessimisticFallback,
    // An exclusive acquisition found the lock held and had to wait (counted
    // once per contended acquisition, not per spin iteration).
    kExclusiveWait,
    // B+-tree latch-free leaf value updates: published in place, and
    // attempts that bounced to the locked path.
    kInPlaceUpdate,
    kInPlaceFallback,
    kNumCounters,
  };

  static constexpr bool kEnabled = kLockTelemetryEnabled;

  struct Snapshot {
    uint64_t counts[kNumCounters] = {};

    uint64_t operator[](Counter c) const { return counts[c]; }
    uint64_t restarts() const { return counts[kOptimisticRestart]; }
    uint64_t fallbacks() const { return counts[kPessimisticFallback]; }
    uint64_t waits() const { return counts[kExclusiveWait]; }
  };

  // Hot path: bump the calling thread's private counter. Single writer per
  // slot, so a relaxed load+store pair suffices (no lock-prefixed RMW).
  static void Count(Counter c) {
    if constexpr (kEnabled) {
      std::atomic<uint64_t>& cell = LocalSlot().counts[c];
      cell.store(cell.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    }
  }

  // Adds `n` at once (e.g. a batch of restarts measured locally).
  static void CountN(Counter c, uint64_t n) {
    if constexpr (kEnabled) {
      std::atomic<uint64_t>& cell = LocalSlot().counts[c];
      cell.store(cell.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
    }
  }

  // Sums retired totals plus every live slot. Safe to call concurrently
  // with counting; the result is a consistent lower bound that is exact
  // whenever no thread is mid-increment (e.g. between bench phases).
  static Snapshot Take() {
    Snapshot s;
    for (uint32_t c = 0; c < kNumCounters; ++c) {
      s.counts[c] = retired_[c].load(std::memory_order_acquire);
    }
    const uint32_t hw = ThreadRegistry::Instance().high_watermark();
    for (uint32_t id = 0; id < hw; ++id) {
      for (uint32_t c = 0; c < kNumCounters; ++c) {
        s.counts[c] += slots_[id].counts[c].load(std::memory_order_acquire);
      }
    }
    return s;
  }

  // Zeroes all counters. Only meaningful while no other thread is counting
  // (between bench phases / in single-threaded tests): concurrent
  // increments may be lost.
  static void Reset() {
    for (uint32_t c = 0; c < kNumCounters; ++c) {
      retired_[c].store(0, std::memory_order_release);
    }
    const uint32_t hw = ThreadRegistry::Instance().high_watermark();
    for (uint32_t id = 0; id < hw; ++id) {
      for (uint32_t c = 0; c < kNumCounters; ++c) {
        slots_[id].counts[c].store(0, std::memory_order_release);
      }
    }
  }

  static const char* Name(Counter c) {
    switch (c) {
      case kOptimisticRestart: return "optimistic_restarts";
      case kPessimisticFallback: return "pessimistic_fallbacks";
      case kExclusiveWait: return "exclusive_waits";
      case kInPlaceUpdate: return "inplace_updates";
      case kInPlaceFallback: return "inplace_fallbacks";
      default: return "unknown";
    }
  }

 private:
  struct alignas(kCachelineSize) Slot {
    // Zero-initialized: slots_ has static storage duration and C++20
    // value-initializes atomics.
    std::atomic<uint64_t> counts[kNumCounters];
  };

  // Per-thread slot, resolved once per thread then cached. The AtThreadExit
  // hook folds the slot into retired_ and clears it before the registry
  // recycles the ID, so a successor thread starts from zero.
  static Slot& LocalSlot() {
    thread_local Slot* slot = [] {
      const uint32_t id = ThreadRegistry::CurrentThreadId();
      Slot* s = &slots_[id];
      ThreadRegistry::AtThreadExit(&FoldSlot, s);
      return s;
    }();
    return *slot;
  }

  static void FoldSlot(void* arg) {
    Slot* s = static_cast<Slot*>(arg);
    for (uint32_t c = 0; c < kNumCounters; ++c) {
      const uint64_t n = s->counts[c].exchange(0, std::memory_order_acq_rel);
      retired_[c].fetch_add(n, std::memory_order_acq_rel);
    }
  }

  static inline Slot slots_[ThreadRegistry::kMaxThreads];
  static inline std::atomic<uint64_t> retired_[kNumCounters];
};

}  // namespace optiql

#endif  // OPTIQL_SYNC_LOCK_TELEMETRY_H_
