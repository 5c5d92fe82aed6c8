// Telemetry counter exactness (ISSUE 6 tentpole plumbing). Every counting
// site fires once per *event*, not per spin iteration, so a replayed
// single-threaded scenario has an exact expected count — these tests pin
// those contracts. In default builds (OPTIQL_LOCK_TELEMETRY off) the
// counting is compiled out; the suite then verifies the counters stay
// zero and skips the exactness checks. The telemetry CI job re-runs it
// with -DOPTIQL_LOCK_TELEMETRY=ON where the exact counts are enforced.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "index/btree.h"
#include "locks/hybrid_lock.h"
#include "locks/optlock.h"
#include "sync/lock_telemetry.h"

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
  EXPECT_STREQ(LockTelemetry::Name(LockTelemetry::kPessimisticFallback),
               "pessimistic_fallbacks");
  EXPECT_STREQ(LockTelemetry::Name(LockTelemetry::kExclusiveWait),
               "exclusive_waits");
  EXPECT_STREQ(LockTelemetry::Name(LockTelemetry::kInPlaceUpdate),
               "inplace_updates");
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
  EXPECT_EQ(s.fallbacks(), 0u);
  EXPECT_EQ(s.waits(), 0u);
}

TEST(LockTelemetryTest, HybridFallbackExactness) {
  SKIP_UNLESS_TELEMETRY();
  LockTelemetry::Reset();
  HybridLock lock;

  // Self-invalidate the first kOptimisticAttempts validations, then let
  // the pessimistic leg run clean: exactly kOptimisticAttempts restarts
  // and exactly one fallback, with zero waits (every AcquireEx below is
  // uncontended).
  int calls = 0;
  const bool fell_back = lock.ReadCriticalHybrid([&] {
    if (calls < HybridLock::kOptimisticAttempts) {
      lock.AcquireEx();
      lock.ReleaseEx();
    }
    ++calls;
  });
  EXPECT_TRUE(fell_back);
  EXPECT_EQ(calls, HybridLock::kOptimisticAttempts + 1);

  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  EXPECT_EQ(s.restarts(),
            static_cast<uint64_t>(HybridLock::kOptimisticAttempts));
  EXPECT_EQ(s.fallbacks(), 1u);
  EXPECT_EQ(s.waits(), 0u);
}

TEST(LockTelemetryTest, ExclusiveWaitCountedOncePerContendedAcquire) {
  SKIP_UNLESS_TELEMETRY();
  LockTelemetry::Reset();
  HybridLock lock;
  lock.AcquireEx();  // Uncontended: 0 waits.
  std::thread contender([&] {
    lock.AcquireEx();  // Contended: exactly 1 wait, however long it spins.
    lock.ReleaseEx();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.ReleaseEx();
  contender.join();  // Thread exit folds its slot into the retired totals.

  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  EXPECT_EQ(s.waits(), 1u);
  EXPECT_EQ(s.restarts(), 0u);
}

// Single-threaded replay: every Update of an existing key must take the
// in-place path exactly once — no fallbacks, no restarts.
template <class Tree>
void InPlaceReplayExactness() {
  LockTelemetry::Reset();
  Tree tree;
  constexpr uint64_t kKeys = 512;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree.Insert(k, k));
  }
  LockTelemetry::Reset();  // Preload splits are not part of the replay.

  for (int round = 1; round <= 2; ++round) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      ASSERT_TRUE(tree.Update(k, k + static_cast<uint64_t>(round)));
    }
  }
  // A miss and an upsert-of-a-missing-key must NOT count as in-place
  // events (the miss is a validated no-op; the upsert takes the locked
  // insert path before any upgrade is attempted).
  EXPECT_FALSE(tree.Update(kKeys + 7, 0));
  tree.Upsert(kKeys + 7, 7);

  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  EXPECT_EQ(s[LockTelemetry::kInPlaceUpdate], 2 * kKeys);
  EXPECT_EQ(s[LockTelemetry::kInPlaceFallback], 0u);
  EXPECT_EQ(s.restarts(), 0u);

  uint64_t out = 0;
  ASSERT_TRUE(tree.Lookup(3, out));
  EXPECT_EQ(out, 5u);  // 3 + round 2.
  tree.CheckInvariants();
}

TEST(LockTelemetryTest, InPlaceReplayExactnessOlc) {
  SKIP_UNLESS_TELEMETRY();
  InPlaceReplayExactness<BTree<uint64_t, uint64_t, BTreeOlcInPlacePolicy>>();
}

TEST(LockTelemetryTest, InPlaceReplayExactnessOptiQl) {
  SKIP_UNLESS_TELEMETRY();
  InPlaceReplayExactness<
      BTree<uint64_t, uint64_t, BTreeOptiQlInPlacePolicy<OptiQL>>>();
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
