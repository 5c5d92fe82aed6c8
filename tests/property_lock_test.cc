// Parameterized property sweeps over the lock protocols (TEST_P):
//
//  * Conservation: after T threads each complete N exclusive critical
//    sections over L locks, the per-lock counters sum to T*N and every
//    lock ends free.
//  * Version accounting: an OptiQL/OptiCLH lock's final version equals the
//    number of exclusive critical sections executed on it, regardless of
//    interleaving, handover pattern, or upgrade usage.
//  * Reader soundness: concurrent optimistic readers never validate a torn
//    snapshot, across the whole parameter grid.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "sync/txn_ops.h"

namespace optiql {
namespace {

struct GridParam {
  int threads;
  int num_locks;
  int ops_per_thread;
};

std::string GridName(const ::testing::TestParamInfo<GridParam>& info) {
  return "t" + std::to_string(info.param.threads) + "_l" +
         std::to_string(info.param.num_locks) + "_n" +
         std::to_string(info.param.ops_per_thread);
}

class LockGridTest : public ::testing::TestWithParam<GridParam> {};

template <class Lock>
void RunConservationSweep(const GridParam& param) {
  using Ops = TxnOps<Lock>;
  struct Slot {
    Lock lock;
    int64_t counter = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(param.num_locks));
  std::vector<std::thread> threads;
  for (int t = 0; t < param.threads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) * 1000003 + 17);
      for (int i = 0; i < param.ops_per_thread; ++i) {
        Slot& slot =
            slots[rng.NextBounded(static_cast<uint64_t>(param.num_locks))];
        const auto handle = Ops::LockEx(slot.lock, /*slot=*/0);
        ++slot.counter;
        Ops::UnlockEx(slot.lock, handle);
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (const auto& slot : slots) total += slot.counter;
  EXPECT_EQ(total, static_cast<int64_t>(param.threads) *
                       param.ops_per_thread);
}

TEST_P(LockGridTest, ConservationAcrossLockTypes) {
  const GridParam param = GetParam();
  RunConservationSweep<TtsLock>(param);
  RunConservationSweep<TicketLock>(param);
  RunConservationSweep<OptLock>(param);
  RunConservationSweep<McsLock>(param);
  RunConservationSweep<ClhLock>(param);
  RunConservationSweep<McsRwLock>(param);
  RunConservationSweep<OptiQL>(param);
  RunConservationSweep<OptiQLNor>(param);
  RunConservationSweep<OptiCLH>(param);
}

TEST_P(LockGridTest, OptiQlVersionCountsCriticalSections) {
  const GridParam param = GetParam();
  struct Slot {
    OptiQL lock;
    std::atomic<uint64_t> acquisitions{0};
  };
  std::vector<Slot> slots(static_cast<size_t>(param.num_locks));
  std::vector<std::thread> threads;
  for (int t = 0; t < param.threads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) * 7919 + 3);
      QNode* qnode = ThreadQNodes::Get(0);
      for (int i = 0; i < param.ops_per_thread; ++i) {
        Slot& slot =
            slots[rng.NextBounded(static_cast<uint64_t>(param.num_locks))];
        // Mix plain acquires with upgrade-based ones.
        if (rng.NextBounded(4) == 0) {
          uint64_t v;
          if (slot.lock.AcquireSh(v) && slot.lock.TryUpgrade(v, qnode)) {
            slot.acquisitions.fetch_add(1, std::memory_order_relaxed);
            slot.lock.ReleaseEx(qnode);
          }
          continue;  // Failed upgrades don't count.
        }
        slot.lock.AcquireEx(qnode);
        slot.acquisitions.fetch_add(1, std::memory_order_relaxed);
        slot.lock.ReleaseEx(qnode);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& slot : slots) {
    EXPECT_FALSE(slot.lock.IsLockedEx());
    EXPECT_EQ(OptiQL::VersionOf(slot.lock.LoadWord()),
              slot.acquisitions.load());
  }
}

TEST_P(LockGridTest, OptiClhVersionCountsCriticalSections) {
  const GridParam param = GetParam();
  struct Slot {
    OptiCLH lock;
    std::atomic<uint64_t> acquisitions{0};
  };
  std::vector<Slot> slots(static_cast<size_t>(param.num_locks));
  std::vector<std::thread> threads;
  for (int t = 0; t < param.threads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) * 104729 + 11);
      for (int i = 0; i < param.ops_per_thread; ++i) {
        Slot& slot =
            slots[rng.NextBounded(static_cast<uint64_t>(param.num_locks))];
        QNode* handle = slot.lock.AcquireEx();
        slot.acquisitions.fetch_add(1, std::memory_order_relaxed);
        slot.lock.ReleaseEx(handle);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& slot : slots) {
    EXPECT_FALSE(slot.lock.IsLockedEx());
    EXPECT_EQ(OptiCLH::VersionOf(slot.lock.LoadWord()),
              slot.acquisitions.load());
  }
}

TEST_P(LockGridTest, OptimisticReadersNeverValidateTornState) {
  const GridParam param = GetParam();
  struct Slot {
    OptiQL lock;
    volatile int64_t a = 0;
    volatile int64_t b = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(param.num_locks));
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Xoshiro256 rng(static_cast<uint64_t>(r) + 1);
      while (!stop.load(std::memory_order_acquire)) {
        Slot& slot =
            slots[rng.NextBounded(static_cast<uint64_t>(param.num_locks))];
        uint64_t v;
        if (!slot.lock.AcquireSh(v)) continue;
        const int64_t x = slot.a;
        const int64_t y = slot.b;
        if (slot.lock.ReleaseSh(v) && x != y) {
          torn.store(true, std::memory_order_release);
        }
      }
    });
  }
  std::vector<std::thread> writers;
  for (int t = 0; t < param.threads; ++t) {
    writers.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<uint64_t>(t) * 31 + 7);
      QNode* qnode = ThreadQNodes::Get(0);
      for (int i = 0; i < param.ops_per_thread; ++i) {
        Slot& slot =
            slots[rng.NextBounded(static_cast<uint64_t>(param.num_locks))];
        slot.lock.AcquireEx(qnode);
        slot.a = slot.a + 1;
        slot.b = slot.b + 1;
        slot.lock.ReleaseEx(qnode);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_FALSE(torn.load());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LockGridTest,
    ::testing::Values(GridParam{1, 1, 2000},    // Single thread.
                      GridParam{4, 1, 1500},    // Extreme contention.
                      GridParam{4, 3, 1500},    // High contention.
                      GridParam{8, 2, 800},     // Oversubscribed.
                      GridParam{4, 64, 1500},   // Low contention.
                      GridParam{2, 1, 4000}),   // Long handover chains.
    GridName);

}  // namespace
}  // namespace optiql
