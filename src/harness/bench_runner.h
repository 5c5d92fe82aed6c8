// Fixed-duration multithreaded benchmark runner (PiBench-style, §7.1): it
// spawns worker threads, releases them through a barrier, lets them run for
// a fixed wall-clock duration, then gathers per-thread operation counts,
// abort counts and optional latency histograms.
#ifndef OPTIQL_HARNESS_BENCH_RUNNER_H_
#define OPTIQL_HARNESS_BENCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "harness/histogram.h"

namespace optiql {

struct RunOptions {
  int threads = 4;
  int duration_ms = 300;
  // Pin worker i to CPU (i % cores). A no-op when pinning fails (e.g., more
  // threads than cores is fine; restricted cpusets are not fatal).
  bool pin_threads = true;
  // Sample one latency measurement every `latency_sampling` operations;
  // 0 disables latency collection.
  uint32_t latency_sampling = 0;
};

// Per-thread benchmark state handed to the worker function.
struct WorkerStats {
  uint64_t ops = 0;       // Completed operations.
  uint64_t aborts = 0;    // Failed optimistic attempts / retries.
  uint64_t reads_ok = 0;  // Successful read operations (for Table 1).
  uint64_t reads_attempted = 0;
  // ThreadRegistry ID of the worker thread (filled in by the runner): the
  // same ID that keys the epoch slot and the qnode cache, so diagnostics
  // can correlate benchmark threads with runtime state.
  uint32_t registry_tid = 0;
  Histogram latency;      // Populated only when latency_sampling > 0.
};

struct RunResult {
  std::vector<WorkerStats> per_thread;
  double seconds = 0;

  uint64_t TotalOps() const;
  uint64_t TotalAborts() const;
  uint64_t TotalReadsOk() const;
  uint64_t TotalReadsAttempted() const;
  double MopsPerSec() const;
  // Jain's fairness index over per-thread op counts: 1.0 = perfectly fair,
  // 1/N = maximally unfair. Used for the backoff-fairness ablation.
  double JainFairness() const;
  // Merged latency histogram across threads.
  Histogram MergedLatency() const;
};

// Worker signature: Worker(thread_id, stop_flag, stats). The worker must
// poll `stop_flag` (acquire) frequently and return promptly once set.
using WorkerFn =
    std::function<void(int, const std::atomic<bool>&, WorkerStats&)>;

RunResult RunFixedDuration(const RunOptions& options, const WorkerFn& worker);

// Default thread sweep for benchmarks: {1, 2, 4, ...} up to
// 2*hardware_concurrency (at least 8). The bench binaries' --threads and
// OPTIQL_BENCH_THREADS (BenchFlags::Parse) replace it.
std::vector<int> BenchThreadCounts();

}  // namespace optiql

#endif  // OPTIQL_HARNESS_BENCH_RUNNER_H_
