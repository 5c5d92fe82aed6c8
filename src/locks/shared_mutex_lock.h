// Wrapper over std::shared_mutex presenting the repo's lock interface
// naming. This is the paper's "pthread" baseline (§7.1): on Linux/libstdc++
// it is pthread_rwlock_t underneath, uses a 56-byte lock word, and expands
// into a queue-based structure in the kernel under contention.
#ifndef OPTIQL_LOCKS_SHARED_MUTEX_LOCK_H_
#define OPTIQL_LOCKS_SHARED_MUTEX_LOCK_H_

#include <shared_mutex>

#include "common/annotations.h"

namespace optiql {

class OPTIQL_CAPABILITY("shared_mutex") SharedMutexLock {
 public:
  SharedMutexLock() = default;
  SharedMutexLock(const SharedMutexLock&) = delete;
  SharedMutexLock& operator=(const SharedMutexLock&) = delete;

  void AcquireEx() OPTIQL_ACQUIRE() { mutex_.lock(); }
  void ReleaseEx() OPTIQL_RELEASE() { mutex_.unlock(); }

  void AcquireSh() OPTIQL_ACQUIRE_SHARED() { mutex_.lock_shared(); }
  void ReleaseSh() OPTIQL_RELEASE_SHARED() { mutex_.unlock_shared(); }

 private:
  std::shared_mutex mutex_;
};

}  // namespace optiql

#endif  // OPTIQL_LOCKS_SHARED_MUTEX_LOCK_H_
