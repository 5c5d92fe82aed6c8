// Typed correctness suite for exclusive (writer) mode, instantiated for
// every lock in the repository and driven through its TxnOps contract:
// mutual exclusion under contention, sequential reacquisition, and
// multi-lock independence.
#include <gtest/gtest.h>

#include <atomic>
#include <concepts>
#include <thread>
#include <vector>

#include "sync/txn_ops.h"

namespace optiql {
namespace {

template <class Lock>
class ExclusiveLockTest : public ::testing::Test {};

template <class Lock>
concept HasContractName = requires {
  { TxnOps<Lock>::kName } -> std::convertible_to<const char*>;
};

template <class... Locks>
struct LockList {
  static constexpr bool kAllInContract = (HasContractName<Locks> && ...);
  using Types = ::testing::Types<Locks...>;
};

using AllLocks =
    LockList<TtsLock, TtsBackoffLock, OptLock, OptBackoffLock, McsLock,
             McsRwLock, SharedMutexLock, OptiQL, OptiQLNor>;
static_assert(AllLocks::kAllInContract,
              "every lock family needs a TxnOps specialization with kName");
using AllLockTypes = AllLocks::Types;
TYPED_TEST_SUITE(ExclusiveLockTest, AllLockTypes);

TYPED_TEST(ExclusiveLockTest, SequentialAcquireRelease) {
  using Ops = TxnOps<TypeParam>;
  TypeParam lock;
  for (int i = 0; i < 100; ++i) {
    const auto handle = Ops::LockEx(lock, /*slot=*/0);
    Ops::UnlockEx(lock, handle);
  }
}

TYPED_TEST(ExclusiveLockTest, MutualExclusionCounter) {
  using Ops = TxnOps<TypeParam>;
  TypeParam lock;
  // Two mirrored plain counters: torn/racy increments would desynchronize
  // them or lose updates.
  int64_t counter_a = 0;
  int64_t counter_b = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 5000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        const auto handle = Ops::LockEx(lock, /*slot=*/0);
        const int64_t a = counter_a;
        const int64_t b = counter_b;
        ASSERT_EQ(a, b);
        counter_a = a + 1;
        counter_b = b + 1;
        Ops::UnlockEx(lock, handle);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter_a, kThreads * kIncrements);
  EXPECT_EQ(counter_b, kThreads * kIncrements);
}

TYPED_TEST(ExclusiveLockTest, IndependentLocksDoNotInterfere) {
  using Ops = TxnOps<TypeParam>;
  constexpr int kLocks = 8;
  struct Protected {
    TypeParam lock;
    int64_t value = 0;
  };
  std::vector<Protected> slots(kLocks);
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIncrements; ++i) {
        auto& slot = slots[static_cast<size_t>((i + t) % kLocks)];
        const auto handle = Ops::LockEx(slot.lock, /*slot=*/0);
        ++slot.value;
        Ops::UnlockEx(slot.lock, handle);
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (const auto& slot : slots) total += slot.value;
  EXPECT_EQ(total, kThreads * kIncrements);
}

TYPED_TEST(ExclusiveLockTest, HandoverUnderOversubscription) {
  // Many short critical sections with more threads than cores: exercises
  // the spin-then-yield path and (for queue locks) long handover chains.
  using Ops = TxnOps<TypeParam>;
  TypeParam lock;
  std::atomic<int> active{0};
  constexpr int kThreads = 8;
  constexpr int kRounds = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        const auto handle = Ops::LockEx(lock, /*slot=*/0);
        ASSERT_EQ(active.fetch_add(1, std::memory_order_acq_rel), 0);
        active.fetch_sub(1, std::memory_order_acq_rel);
        Ops::UnlockEx(lock, handle);
      }
    });
  }
  for (auto& t : threads) t.join();
}

// --- Non-typed, lock-specific behaviours ---

TEST(TtsLockTest, TryAcquireSemantics) {
  TtsLock lock;
  EXPECT_TRUE(lock.TryAcquireEx());
  EXPECT_TRUE(lock.IsLockedEx());
  EXPECT_FALSE(lock.TryAcquireEx());
  lock.ReleaseEx();
  EXPECT_FALSE(lock.IsLockedEx());
  EXPECT_TRUE(lock.TryAcquireEx());
  lock.ReleaseEx();
}

TEST(McsLockTest, TryAcquireOnlySucceedsOnEmptyQueue) {
  McsLock lock;
  QNodeGuard g1, g2;
  EXPECT_TRUE(lock.TryAcquireEx(g1.node()));
  EXPECT_TRUE(lock.IsLockedEx());
  EXPECT_FALSE(lock.TryAcquireEx(g2.node()));
  lock.ReleaseEx(g1.node());
  EXPECT_FALSE(lock.IsLockedEx());
}

TEST(McsLockTest, FifoGrantOrder) {
  McsLock lock;
  QNodeGuard holder;
  lock.AcquireEx(holder.node());
  std::vector<int> grant_order;
  std::atomic<int> queued{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&, i] {
      while (queued.load(std::memory_order_acquire) != i) {
        std::this_thread::yield();
      }
      QNodeGuard guard;
      // XCHG into the queue happens inside AcquireEx; serialize arrivals by
      // only signaling after we are provably enqueued. TryAcquireEx must
      // fail (lock held), so enqueue via AcquireEx in a helper thread is
      // the only option: signal first, then enqueue, then re-check below.
      queued.fetch_add(1, std::memory_order_acq_rel);
      lock.AcquireEx(guard.node());
      grant_order.push_back(i);
      lock.ReleaseEx(guard.node());
    });
    // Wait until thread i is *likely* enqueued before releasing thread i+1.
    while (queued.load(std::memory_order_acquire) != i + 1) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  lock.ReleaseEx(holder.node());
  for (auto& t : waiters) t.join();
  ASSERT_EQ(grant_order.size(), 4u);
  EXPECT_EQ(grant_order, (std::vector<int>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace optiql
