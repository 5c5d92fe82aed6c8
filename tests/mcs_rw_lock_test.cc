// MCS-RW (fair queue-based reader-writer lock) semantics: reader
// concurrency, writer exclusion, reader-count accounting in the packed
// 8-byte word, and reader/writer invariant stress.
#include "locks/mcs_rw_lock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "qnode/qnode_pool.h"

namespace optiql {
namespace {

TEST(McsRwLockTest, SequentialWriter) {
  McsRwLock lock;
  QNodeGuard guard;
  for (int i = 0; i < 50; ++i) {
    lock.AcquireEx(guard.node());
    EXPECT_EQ(lock.ActiveReaders(), 0u);
    lock.ReleaseEx(guard.node());
  }
  EXPECT_FALSE(lock.HasQueue());
}

TEST(McsRwLockTest, SequentialReader) {
  McsRwLock lock;
  QNodeGuard guard;
  for (int i = 0; i < 50; ++i) {
    lock.AcquireSh(guard.node());
    EXPECT_EQ(lock.ActiveReaders(), 1u);
    lock.ReleaseSh(guard.node());
    EXPECT_EQ(lock.ActiveReaders(), 0u);
  }
}

TEST(McsRwLockTest, ReadersShareTheLock) {
  McsRwLock lock;
  constexpr int kReaders = 4;
  std::atomic<int> holding{0};
  std::atomic<bool> release{false};
  int max_concurrent = 0;
  std::atomic<int> observed_max{0};

  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      QNodeGuard guard;
      lock.AcquireSh(guard.node());
      int now = holding.fetch_add(1, std::memory_order_acq_rel) + 1;
      int seen = observed_max.load(std::memory_order_relaxed);
      while (now > seen &&
             !observed_max.compare_exchange_weak(seen, now)) {
      }
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      holding.fetch_sub(1, std::memory_order_acq_rel);
      lock.ReleaseSh(guard.node());
    });
  }
  // All readers must be able to hold the lock simultaneously.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (holding.load(std::memory_order_acquire) != kReaders &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  max_concurrent = holding.load(std::memory_order_acquire);
  EXPECT_EQ(max_concurrent, kReaders);
  EXPECT_EQ(lock.ActiveReaders(), static_cast<uint32_t>(kReaders));
  release.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(lock.ActiveReaders(), 0u);
  EXPECT_EQ(observed_max.load(), kReaders);
}

TEST(McsRwLockTest, WriterExcludesReaders) {
  McsRwLock lock;
  QNodeGuard writer_node;
  lock.AcquireEx(writer_node.node());

  std::atomic<bool> reader_done{false};
  std::thread reader([&] {
    QNodeGuard guard;
    lock.AcquireSh(guard.node());
    reader_done.store(true, std::memory_order_release);
    lock.ReleaseSh(guard.node());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(reader_done.load());
  lock.ReleaseEx(writer_node.node());
  reader.join();
  EXPECT_TRUE(reader_done.load());
}

TEST(McsRwLockTest, ReadersExcludeWriter) {
  McsRwLock lock;
  QNodeGuard reader_node;
  lock.AcquireSh(reader_node.node());

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    QNodeGuard guard;
    lock.AcquireEx(guard.node());
    writer_done.store(true, std::memory_order_release);
    lock.ReleaseEx(guard.node());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(writer_done.load());
  lock.ReleaseSh(reader_node.node());
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(McsRwLockTest, WriterWokenByLastReader) {
  McsRwLock lock;
  QNodeGuard r1, r2;
  lock.AcquireSh(r1.node());
  lock.AcquireSh(r2.node());
  ASSERT_EQ(lock.ActiveReaders(), 2u);

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    QNodeGuard guard;
    lock.AcquireEx(guard.node());
    writer_done.store(true, std::memory_order_release);
    lock.ReleaseEx(guard.node());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  lock.ReleaseSh(r1.node());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(writer_done.load());  // One reader still active.
  lock.ReleaseSh(r2.node());
  writer.join();
  EXPECT_TRUE(writer_done.load());
}

TEST(McsRwLockTest, ReadersQueuedBehindWriterJoinTogether) {
  // Queue: [writer holds] <- R1 <- R2. When the writer leaves, both readers
  // must become active simultaneously (reader-group chaining).
  McsRwLock lock;
  QNodeGuard writer_node;
  lock.AcquireEx(writer_node.node());

  std::atomic<int> active_readers{0};
  std::atomic<bool> release_readers{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      QNodeGuard guard;
      lock.AcquireSh(guard.node());
      active_readers.fetch_add(1, std::memory_order_acq_rel);
      while (!release_readers.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      lock.ReleaseSh(guard.node());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(active_readers.load(), 0);
  lock.ReleaseEx(writer_node.node());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (active_readers.load(std::memory_order_acquire) != 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(active_readers.load(), 2);
  release_readers.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
}

TEST(McsRwLockTest, MixedStressInvariant) {
  // Writers mutate two mirrored plain counters; readers assert equality.
  // Any reader admitted concurrently with a writer would observe a tear.
  McsRwLock lock;
  volatile int64_t a = 0;
  volatile int64_t b = 0;
  std::atomic<bool> failed{false};
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kWrites = 3000;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      QNodeGuard guard;
      for (int i = 0; i < kWrites; ++i) {
        lock.AcquireEx(guard.node());
        a = a + 1;
        for (int spin = 0; spin < 8; ++spin) {
          asm volatile("" ::: "memory");
        }
        b = b + 1;
        lock.ReleaseEx(guard.node());
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      QNodeGuard guard;
      while (!stop.load(std::memory_order_acquire)) {
        lock.AcquireSh(guard.node());
        if (a != b) failed.store(true, std::memory_order_release);
        lock.ReleaseSh(guard.node());
      }
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(a, kWriters * kWrites);
  EXPECT_EQ(b, kWriters * kWrites);
  EXPECT_EQ(lock.ActiveReaders(), 0u);
  EXPECT_FALSE(lock.HasQueue());
}

}  // namespace
}  // namespace optiql
