// Benchmark-harness tests: histogram quantile accuracy, merge semantics,
// the fixed-duration runner, fairness metric, environment parsing, and a
// smoke run of the micro/index bench frameworks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "harness/bench_runner.h"
#include "harness/histogram.h"
#include "harness/index_bench.h"
#include "harness/micro_bench.h"
#include "index/btree.h"

namespace optiql {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 32; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 32u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 31u);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 0u);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 31u);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 16u);
}

TEST(HistogramTest, QuantilesWithinRelativeErrorBound) {
  Histogram h;
  // Uniform 1..100000.
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto expected = static_cast<double>(q * 100000);
    const auto got = static_cast<double>(h.ValueAtQuantile(q));
    EXPECT_NEAR(got, expected, expected * 0.05) << "q=" << q;
  }
}

TEST(HistogramTest, MeanAndExtremes) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(90);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 90u);
  EXPECT_DOUBLE_EQ(h.Mean(), 40.0);
}

TEST(HistogramTest, MergeCombinesPopulations) {
  Histogram a, b;
  for (uint64_t v = 0; v < 1000; ++v) a.Record(v);
  for (uint64_t v = 10000; v < 11000; ++v) b.Record(v);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2000u);
  EXPECT_EQ(a.min(), 0u);
  EXPECT_GE(a.ValueAtQuantile(0.75), 10000u);
  EXPECT_LT(a.ValueAtQuantile(0.25), 1000u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ValueAtQuantile(0.99), 0u);
}

TEST(HistogramTest, LargeValuesBucketedWithBoundedError) {
  Histogram h;
  const uint64_t big = 123456789012ULL;
  h.Record(big);
  const uint64_t got = h.ValueAtQuantile(1.0);
  EXPECT_GE(got, big);
  EXPECT_LE(static_cast<double>(got - big), static_cast<double>(big) / 32);
}

TEST(BenchRunnerTest, RunsAllThreadsForDuration) {
  RunOptions options;
  options.threads = 3;
  options.duration_ms = 60;
  options.pin_threads = false;
  RunResult result =
      RunFixedDuration(options, [](int, const std::atomic<bool>& stop,
                                   WorkerStats& stats) {
        while (!stop.load(std::memory_order_acquire)) ++stats.ops;
      });
  EXPECT_EQ(result.per_thread.size(), 3u);
  for (const auto& s : result.per_thread) EXPECT_GT(s.ops, 0u);
  EXPECT_GE(result.seconds, 0.05);
  EXPECT_GT(result.MopsPerSec(), 0.0);
  EXPECT_EQ(result.TotalOps(), result.per_thread[0].ops +
                                   result.per_thread[1].ops +
                                   result.per_thread[2].ops);
}

TEST(BenchRunnerTest, JainFairnessIndex) {
  RunResult result;
  result.per_thread.resize(4);
  for (auto& s : result.per_thread) s.ops = 100;
  EXPECT_DOUBLE_EQ(result.JainFairness(), 1.0);
  // One thread hogging: index = (sum^2)/(n*sumsq) = 400^2/(4*160000)=0.25.
  result.per_thread[0].ops = 400;
  result.per_thread[1].ops = 0;
  result.per_thread[2].ops = 0;
  result.per_thread[3].ops = 0;
  EXPECT_DOUBLE_EQ(result.JainFairness(), 0.25);
}

TEST(BenchRunnerTest, EnvIntParsing) {
  unsetenv("OPTIQL_TEST_ENVINT");
  EXPECT_EQ(EnvInt("OPTIQL_TEST_ENVINT", 7), 7);
  setenv("OPTIQL_TEST_ENVINT", "123", 1);
  EXPECT_EQ(EnvInt("OPTIQL_TEST_ENVINT", 7), 123);
  setenv("OPTIQL_TEST_ENVINT", "junk", 1);
  EXPECT_EQ(EnvInt("OPTIQL_TEST_ENVINT", 7), 7);
  unsetenv("OPTIQL_TEST_ENVINT");
}

TEST(BenchRunnerTest, ThreadCountsFromEnvironment) {
  setenv("OPTIQL_BENCH_THREADS", "1,3,9", 1);
  EXPECT_EQ(BenchThreadCounts(), (std::vector<int>{1, 3, 9}));
  unsetenv("OPTIQL_BENCH_THREADS");
  const auto counts = BenchThreadCounts();
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(counts.front(), 1);
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[i - 1] * 2);
  }
}

TEST(RepeatedResultTest, Statistics) {
  RepeatedResult r;
  r.mops = {10, 12, 14};
  EXPECT_DOUBLE_EQ(r.Mean(), 12.0);
  EXPECT_NEAR(r.StdDev(), 2.0, 1e-9);
  EXPECT_NEAR(r.Ci95(), 1.96 * 2.0 / std::sqrt(3.0), 1e-9);
  RepeatedResult single;
  single.mops = {5};
  EXPECT_DOUBLE_EQ(single.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(single.StdDev(), 0.0);
  EXPECT_DOUBLE_EQ(single.Ci95(), 0.0);
}

TEST(RepeatedResultTest, RunRepeatedCollectsAllRuns) {
  RunOptions options;
  options.threads = 2;
  options.duration_ms = 20;
  options.pin_threads = false;
  const RepeatedResult result = RunRepeated(
      options,
      [](int, const std::atomic<bool>& stop, WorkerStats& stats) {
        while (!stop.load(std::memory_order_acquire)) ++stats.ops;
      },
      /*repeats=*/3);
  ASSERT_EQ(result.mops.size(), 3u);
  for (double m : result.mops) EXPECT_GT(m, 0.0);
  EXPECT_GT(result.Mean(), 0.0);
}

TEST(MicroBenchTest, ExclusiveOnlySmoke) {
  MicroBenchConfig config;
  config.num_locks = 4;
  config.read_pct = 0;
  config.threads = 3;
  config.duration_ms = 50;
  const RunResult result = RunLockMicroBench<OptiQL>(config);
  EXPECT_GT(result.TotalOps(), 0u);
  EXPECT_EQ(result.TotalReadsAttempted(), 0u);
}

TEST(MicroBenchTest, MixedReadsRecordSuccessRates) {
  MicroBenchConfig config;
  config.num_locks = 1;  // Extreme contention.
  config.read_pct = 50;
  config.threads = 4;
  config.duration_ms = 80;
  const RunResult result = RunLockMicroBench<OptiQL>(config);
  EXPECT_GT(result.TotalOps(), 0u);
  EXPECT_GT(result.TotalReadsAttempted(), 0u);
  EXPECT_GT(result.TotalReadsOk(), 0u);
  EXPECT_LE(result.TotalReadsOk(), result.TotalReadsAttempted());
}

TEST(MicroBenchTest, PerThreadLockMeansNoContention) {
  MicroBenchConfig config;
  config.num_locks = 0;  // One lock per thread.
  config.read_pct = 0;
  config.threads = 2;
  config.duration_ms = 50;
  const RunResult result = RunLockMicroBench<TtsLock>(config);
  EXPECT_GT(result.TotalOps(), 0u);
  // Perfectly partitioned: fairness should be high.
  EXPECT_GT(result.JainFairness(), 0.5);
}

// A read drawn for a lock with no read mode must still run (under the
// exclusive lock) and count, or a read-mixed row reports only its writes.
TEST(LockMicroBenchTest, ExclusiveOnlyLockServesReads) {
  MicroBenchConfig config;
  config.num_locks = 4;
  config.read_pct = 100;
  config.threads = 2;
  config.duration_ms = 50;
  const RunResult result = RunLockMicroBench<TtsLock>(config);
  EXPECT_GT(result.TotalReadsOk(), 0u);
  EXPECT_GT(result.TotalOps(), 0u);
  EXPECT_EQ(result.TotalReadsOk(), result.TotalReadsAttempted());
}

TEST(IndexBenchTest, PreloadAndMixedRunSmoke) {
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  IndexWorkload workload;
  workload.records = 5000;
  workload.lookup_pct = 50;
  workload.update_pct = 30;
  workload.insert_pct = 15;
  workload.remove_pct = 5;
  workload.distribution = IndexWorkload::Distribution::kSelfSimilar;
  workload.threads = 3;
  workload.duration_ms = 80;
  PreloadIndex(tree, workload);
  EXPECT_EQ(tree.Size(), workload.records);
  const RunResult result = RunIndexBench(tree, workload);
  EXPECT_GT(result.TotalOps(), 0u);
  tree.CheckInvariants();
  // Lookups of the preloaded range still work.
  uint64_t out = 0;
  EXPECT_TRUE(tree.Lookup(0, out));
}

TEST(IndexBenchTest, LatencySamplingPopulatesHistogram) {
  BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
  IndexWorkload workload;
  workload.records = 2000;
  workload.lookup_pct = 100;
  workload.threads = 2;
  workload.duration_ms = 60;
  workload.latency_sampling = 16;
  PreloadIndex(tree, workload);
  const RunResult result = RunIndexBench(tree, workload);
  const Histogram merged = result.MergedLatency();
  EXPECT_GT(merged.count(), 0u);
  EXPECT_GT(merged.ValueAtQuantile(0.99), 0u);
}

}  // namespace
}  // namespace optiql
