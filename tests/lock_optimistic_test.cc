// Typed suite for the optimistic-reader interface shared by OptLock and
// OptiQL (paper Algorithm 2 / Figure 2b): snapshot semantics, validation,
// version monotonicity, and a seqlock-style reader/writer stress test.
// Writers and validated reads go through the TxnOps contract.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/micro_bench.h"
#include "sync/txn_ops.h"

namespace optiql {
namespace {

template <class Lock>
class OptimisticLockTest : public ::testing::Test {};

using OptimisticTypes =
    ::testing::Types<OptLock, OptBackoffLock, OptiQL, OptiQLNor>;
TYPED_TEST_SUITE(OptimisticLockTest, OptimisticTypes);

TYPED_TEST(OptimisticLockTest, FreeLockAdmitsAndValidatesReader) {
  TypeParam lock;
  uint64_t v = 0;
  EXPECT_TRUE(lock.AcquireSh(v));
  EXPECT_TRUE(lock.ReleaseSh(v));
}

TYPED_TEST(OptimisticLockTest, ReaderFailsWhileWriterHolds) {
  using Ops = TxnOps<TypeParam>;
  TypeParam lock;
  const auto handle = Ops::LockEx(lock, /*slot=*/0);
  uint64_t v = 0;
  EXPECT_FALSE(lock.AcquireSh(v));
  Ops::UnlockEx(lock, handle);
  EXPECT_TRUE(lock.AcquireSh(v));
  EXPECT_TRUE(lock.ReleaseSh(v));
}

TYPED_TEST(OptimisticLockTest, ValidationFailsAfterInterveningWriter) {
  using Ops = TxnOps<TypeParam>;
  TypeParam lock;
  uint64_t v = 0;
  ASSERT_TRUE(lock.AcquireSh(v));
  Ops::UnlockEx(lock, Ops::LockEx(lock, /*slot=*/0));
  EXPECT_FALSE(lock.ReleaseSh(v));
}

TYPED_TEST(OptimisticLockTest, ValidationFailsWhileWriterActive) {
  using Ops = TxnOps<TypeParam>;
  TypeParam lock;
  uint64_t v = 0;
  ASSERT_TRUE(lock.AcquireSh(v));
  const auto handle = Ops::LockEx(lock, /*slot=*/0);
  EXPECT_FALSE(lock.ReleaseSh(v));
  Ops::UnlockEx(lock, handle);
}

TYPED_TEST(OptimisticLockTest, SnapshotChangesAcrossCriticalSections) {
  using Ops = TxnOps<TypeParam>;
  TypeParam lock;
  uint64_t v1 = 0, v2 = 0;
  ASSERT_TRUE(lock.AcquireSh(v1));
  Ops::UnlockEx(lock, Ops::LockEx(lock, /*slot=*/0));
  ASSERT_TRUE(lock.AcquireSh(v2));
  EXPECT_NE(v1, v2);
  // Each subsequent writer changes the snapshot again.
  Ops::UnlockEx(lock, Ops::LockEx(lock, /*slot=*/0));
  uint64_t v3 = 0;
  ASSERT_TRUE(lock.AcquireSh(v3));
  EXPECT_NE(v2, v3);
  EXPECT_NE(v1, v3);
}

TYPED_TEST(OptimisticLockTest, ReadersDoNotDisturbEachOther) {
  TypeParam lock;
  uint64_t v1 = 0, v2 = 0;
  ASSERT_TRUE(lock.AcquireSh(v1));
  ASSERT_TRUE(lock.AcquireSh(v2));
  EXPECT_EQ(v1, v2);
  EXPECT_TRUE(lock.ReleaseSh(v1));
  EXPECT_TRUE(lock.ReleaseSh(v2));
  EXPECT_TRUE(lock.ReleaseSh(v1));  // Validation is idempotent.
}

TYPED_TEST(OptimisticLockTest, SeqlockStressNoTornReads) {
  // Writers keep two mirrored counters in sync; readers either observe a
  // consistent pair or fail validation. Any torn read that validates is a
  // correctness bug.
  using Ops = TxnOps<TypeParam>;
  struct Shared {
    TypeParam lock;
    volatile int64_t a = 0;
    volatile int64_t b = 0;
  };
  Shared shared;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> validated_reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        int64_t a = 0, b = 0;
        const bool ok = ReadCritical(shared.lock, [&] {
          a = shared.a;
          b = shared.b;
        });
        if (ok) {
          ASSERT_EQ(a, b);
          validated_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  constexpr int kWriters = 2;
  constexpr int kWrites = 4000;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (int i = 0; i < kWrites; ++i) {
        const auto handle = Ops::LockEx(shared.lock, /*slot=*/0);
        shared.a = shared.a + 1;
        // Widen the window between the two stores.
        for (int spin = 0; spin < 8; ++spin) {
          asm volatile("" ::: "memory");
        }
        shared.b = shared.b + 1;
        Ops::UnlockEx(shared.lock, handle);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(shared.a, kWriters * kWrites);
  EXPECT_EQ(shared.b, kWriters * kWrites);
}

TYPED_TEST(OptimisticLockTest, ReadersEventuallySucceedUnderWriters) {
  // Liveness: with intermittent writers, optimistic readers must complete
  // some successful reads (for OptiQL this also exercises validation
  // against opportunistic-read snapshots).
  using Ops = TxnOps<TypeParam>;
  TypeParam lock;
  std::atomic<bool> stop{false};
  uint64_t successes = 0;

  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      Ops::UnlockEx(lock, Ops::LockEx(lock, /*slot=*/0));
      std::this_thread::yield();
    }
  });

  for (int i = 0; i < 20000 || successes == 0; ++i) {
    if (ReadCritical(lock, [] {})) ++successes;
    if (i > 2000000) break;  // Safety valve.
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GT(successes, 0u);
}

}  // namespace
}  // namespace optiql
