// Telemetry counter exactness. Every counting site fires once per *event*,
// not per spin iteration, so a replayed scenario has an exact expected
// count — these tests pin those contracts. In default builds
// (OPTIQL_LOCK_TELEMETRY off) the counting is compiled out; the suite then
// verifies the counters stay zero and skips the exactness checks. The
// telemetry CI job re-runs it with -DOPTIQL_LOCK_TELEMETRY=ON where the
// exact counts are enforced.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <thread>

#include "locks/optlock.h"
#include "sync/lock_telemetry.h"
#include "sync/txn_ops.h"

namespace optiql {
namespace {

#define SKIP_UNLESS_TELEMETRY()                                       \
  if constexpr (!LockTelemetry::kEnabled) {                           \
    GTEST_SKIP() << "telemetry compiled out; configure with "         \
                    "-DOPTIQL_LOCK_TELEMETRY=ON";                     \
  }

TEST(LockTelemetryTest, DisabledBuildCountsNothing) {
  if constexpr (LockTelemetry::kEnabled) {
    GTEST_SKIP() << "counting is live in this build";
  }
  LockTelemetry::Reset();
  OptLock lock;
  lock.AcquireEx();
  uint64_t v = 0;
  EXPECT_FALSE(lock.AcquireSh(v));  // Would count a restart if enabled.
  lock.ReleaseEx();
  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  for (uint32_t c = 0; c < LockTelemetry::kNumCounters; ++c) {
    EXPECT_EQ(s.counts[c], 0u);
  }
}

TEST(LockTelemetryTest, NamesAreStable) {
  // The bench layer keys JSON fields off these; renames break consumers.
  EXPECT_STREQ(LockTelemetry::Name(LockTelemetry::kOptimisticRestart),
               "optimistic_restarts");
  EXPECT_STREQ(LockTelemetry::Name(LockTelemetry::kExclusiveWait),
               "exclusive_waits");
}

TEST(LockTelemetryTest, OptLockRestartExactness) {
  SKIP_UNLESS_TELEMETRY();
  LockTelemetry::Reset();
  OptLock lock;

  // Failed AcquireSh (word locked): exactly one restart.
  lock.AcquireEx();
  uint64_t v = 0;
  EXPECT_FALSE(lock.AcquireSh(v));
  lock.ReleaseEx();

  // Failed ReleaseSh (version moved under the snapshot): one more.
  ASSERT_TRUE(lock.AcquireSh(v));
  lock.AcquireEx();  // Uncontended: must NOT count a wait.
  lock.ReleaseEx();
  EXPECT_FALSE(lock.ReleaseSh(v));

  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  EXPECT_EQ(s.restarts(), 2u);
  EXPECT_EQ(s.waits(), 0u);
}

// One wait per contended acquire, however long the contender spins, and
// the contender's slot folds into the totals when its thread exits.
template <class Lock>
void ExclusiveWaitCountedOnce() {
  using Ops = TxnOps<Lock>;
  LockTelemetry::Reset();
  Lock lock;
  const auto held = Ops::LockEx(lock, /*slot=*/0);  // Uncontended: 0 waits.
  std::thread contender([&] {
    Ops::UnlockEx(lock, Ops::LockEx(lock, /*slot=*/0));  // Contended.
  });
  // The wait is counted before the contender spins: hold the lock until it
  // shows, then let the contender spin a while longer.
  while (LockTelemetry::Take().waits() == 0) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Ops::UnlockEx(lock, held);
  contender.join();  // Thread exit folds its slot into the retired totals.

  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  EXPECT_EQ(s.waits(), 1u) << Ops::kName;
  EXPECT_EQ(s.restarts(), 0u) << Ops::kName;
}

TEST(LockTelemetryTest, ExclusiveWaitCountedOncePerContendedAcquire) {
  SKIP_UNLESS_TELEMETRY();
  ExclusiveWaitCountedOnce<OptLock>();
  ExclusiveWaitCountedOnce<OptiQL>();
}

TEST(LockTelemetryTest, ResetZeroesEverything) {
  SKIP_UNLESS_TELEMETRY();
  OptLock lock;
  lock.AcquireEx();
  uint64_t v = 0;
  EXPECT_FALSE(lock.AcquireSh(v));
  lock.ReleaseEx();
  EXPECT_GE(LockTelemetry::Take().restarts(), 1u);
  LockTelemetry::Reset();
  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  for (uint32_t c = 0; c < LockTelemetry::kNumCounters; ++c) {
    EXPECT_EQ(s.counts[c], 0u);
  }
}

}  // namespace
}  // namespace optiql
