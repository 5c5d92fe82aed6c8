// Benchmark-harness tests: histogram quantile accuracy, merge semantics,
// the fixed-duration runner, fairness metric, the bench binaries' flag and
// environment parsing, and a smoke run of the micro/index bench frameworks.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
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

BenchFlags ParseFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return BenchFlags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchRunnerTest, ThreadCountsFromEnvironment) {
  setenv("OPTIQL_BENCH_THREADS", "1,3,9", 1);
  setenv("OPTIQL_BENCH_REPEATS", "5", 1);
  const BenchFlags flags = ParseFlags({});
  EXPECT_EQ(flags.threads, (std::vector<int>{1, 3, 9}));
  EXPECT_EQ(flags.repeats, 5);
  EXPECT_EQ(ParseFlags({"--threads=2"}).threads, std::vector<int>{2});
  unsetenv("OPTIQL_BENCH_THREADS");
  unsetenv("OPTIQL_BENCH_REPEATS");
  EXPECT_EQ(ParseFlags({}).repeats, 3);
  const auto counts = ParseFlags({}).threads;
  EXPECT_EQ(counts, BenchThreadCounts());
  ASSERT_FALSE(counts.empty());
  EXPECT_EQ(counts.front(), 1);
  for (size_t i = 1; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], counts[i - 1] * 2);
  }
}

// A malformed number, from a flag or the environment, is a usage error:
// exit 2 with the usage line, never a silent default.
TEST(BenchFlagsDeathTest, MalformedNumbersExitWithUsage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(ParseFlags({"--batch=2x"}), ::testing::ExitedWithCode(2),
              "usage:");
  EXPECT_EXIT(ParseFlags({"--batch=0"}), ::testing::ExitedWithCode(2),
              "usage:");
  EXPECT_EQ(ParseFlags({"--batch=4"}).batch, 4);
  setenv("OPTIQL_BENCH_REPEATS", "abc", 1);
  EXPECT_EXIT(ParseFlags({}), ::testing::ExitedWithCode(2), "usage:");
  unsetenv("OPTIQL_BENCH_REPEATS");
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
  workload.dist = KeyDist::SelfSimilar(0.2);
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
