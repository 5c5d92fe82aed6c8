// The paper's lock microbenchmark framework (§7.1): each thread issues
// acquire/release requests against a set of pre-allocated locks chosen
// uniformly at random; the critical section increments a volatile stack
// variable a configurable number of times (default 50). Contention is
// controlled by the number of locks: 1 (extreme), 5 (high), 30000 (medium),
// 1M (low), or one lock per thread ("no contention").
//
// Reads follow the read protocol of the lock under test (ReadCritical
// below) and retry until they validate (§7.2); attempts and successes are
// recorded separately so Table 1's reader success rates can be reproduced.
// Every lock is driven through its TxnOps<Lock> contract.
#ifndef OPTIQL_HARNESS_MICRO_BENCH_H_
#define OPTIQL_HARNESS_MICRO_BENCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/platform.h"
#include "common/random.h"
#include "harness/bench_runner.h"
#include "sync/txn_ops.h"

namespace optiql {

struct MicroBenchConfig {
  size_t num_locks = 5;
  int read_pct = 0;       // Percentage of operations that are reads.
  int cs_length = 50;     // Volatile increments inside the critical section.
  int threads = 4;
  int duration_ms = 200;
  uint32_t latency_sampling = 0;
};

// Contention levels used throughout §7.2, keyed by the paper's names.
struct ContentionLevel {
  const char* name;
  size_t num_locks;  // 0 = one lock per thread ("no contention").
};

inline constexpr ContentionLevel kContentionLevels[] = {
    {"extreme", 1},
    {"high", 5},
    {"medium", 30000},
    {"low", 1000000},
    {"none", 0},
};

inline void CriticalSectionWork(int cs_length) {
  volatile int work = 0;
  for (int i = 0; i < cs_length; ++i) {
    work = work + 1;
  }
}

// Runs `f` under `lock`'s read protection, picked by the TxnOps contract
// flags, and returns false if an optimistic read failed validation (the
// caller decides whether to retry):
//  * versioned families: snapshot, run, validate;
//  * shared-mode families: the blocking shared lock;
//  * exclusive-only families: the exclusive lock.
template <class Lock, class F>
bool ReadCritical(Lock& lock, F&& f) {
  using Ops = TxnOps<Lock>;
  if constexpr (Ops::kVersioned) {
    uint64_t v;
    if (!Ops::StableVersion(lock, v)) return false;
    f();
    return Ops::ValidateVersion(lock, v);
  } else if constexpr (Ops::kSharedMode) {
    Ops::LockSh(lock, /*slot=*/0);
    f();
    Ops::UnlockSh(lock, /*slot=*/0);
    return true;
  } else {
    const typename Ops::ExHandle handle = Ops::LockEx(lock, /*slot=*/0);
    f();
    Ops::UnlockEx(lock, handle);
    return true;
  }
}

template <class Lock>
RunResult RunLockMicroBench(const MicroBenchConfig& config) {
  using Ops = TxnOps<Lock>;
  struct OPTIQL_CACHELINE_ALIGNED PaddedLock {
    Lock lock;
  };
  const size_t num_locks = config.num_locks == 0
                               ? static_cast<size_t>(config.threads)
                               : config.num_locks;
  std::vector<PaddedLock> locks(num_locks);

  RunOptions options;
  options.threads = config.threads;
  options.duration_ms = config.duration_ms;
  options.latency_sampling = config.latency_sampling;

  return RunFixedDuration(options, [&](int tid,
                                       const std::atomic<bool>& stop,
                                       WorkerStats& stats) {
    Xoshiro256 rng(0x5eedULL * 7919 + static_cast<uint64_t>(tid));
    const bool per_thread_lock = config.num_locks == 0;
    while (!stop.load(std::memory_order_acquire)) {
      Lock& lock =
          per_thread_lock
              ? locks[static_cast<size_t>(tid)].lock
              : locks[rng.NextBounded(num_locks)].lock;
      const bool is_read =
          config.read_pct > 0 &&
          rng.NextBounded(100) < static_cast<uint64_t>(config.read_pct);
      if (is_read) {
        // Retry until the read validates (or the run ends).
        while (true) {
          ++stats.reads_attempted;
          const bool ok = ReadCritical(
              lock, [&] { CriticalSectionWork(config.cs_length); });
          if (ok) {
            ++stats.reads_ok;
            ++stats.ops;
            break;
          }
          ++stats.aborts;
          if (stop.load(std::memory_order_acquire)) break;
        }
      } else {
        const typename Ops::ExHandle handle = Ops::LockEx(lock, /*slot=*/0);
        CriticalSectionWork(config.cs_length);
        Ops::UnlockEx(lock, handle);
        ++stats.ops;
      }
    }
  });
}

}  // namespace optiql

#endif  // OPTIQL_HARNESS_MICRO_BENCH_H_
