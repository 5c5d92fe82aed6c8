#include "harness/bench_runner.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "sync/thread_registry.h"

namespace optiql {

namespace {

void TryPinThread(std::thread& t, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best effort: failure (restricted cpuset, fewer cores) is ignored.
  pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
}

}  // namespace

uint64_t RunResult::TotalOps() const {
  uint64_t total = 0;
  for (const auto& s : per_thread) total += s.ops;
  return total;
}

uint64_t RunResult::TotalAborts() const {
  uint64_t total = 0;
  for (const auto& s : per_thread) total += s.aborts;
  return total;
}

uint64_t RunResult::TotalReadsOk() const {
  uint64_t total = 0;
  for (const auto& s : per_thread) total += s.reads_ok;
  return total;
}

uint64_t RunResult::TotalReadsAttempted() const {
  uint64_t total = 0;
  for (const auto& s : per_thread) total += s.reads_attempted;
  return total;
}

double RunResult::MopsPerSec() const {
  if (seconds <= 0) return 0;
  return static_cast<double>(TotalOps()) / seconds / 1e6;
}

double RunResult::JainFairness() const {
  if (per_thread.empty()) return 1.0;
  double sum = 0, sum_sq = 0;
  for (const auto& s : per_thread) {
    const double x = static_cast<double>(s.ops);
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0) return 1.0;
  const double n = static_cast<double>(per_thread.size());
  return (sum * sum) / (n * sum_sq);
}

Histogram RunResult::MergedLatency() const {
  Histogram merged;
  for (const auto& s : per_thread) merged.Merge(s.latency);
  return merged;
}

RunResult RunFixedDuration(const RunOptions& options, const WorkerFn& worker) {
  RunResult result;
  result.per_thread.resize(static_cast<size_t>(options.threads));

  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(options.threads));
  for (int i = 0; i < options.threads; ++i) {
    threads.emplace_back([&, i] {
      WorkerStats& stats = result.per_thread[static_cast<size_t>(i)];
      stats.registry_tid = ThreadRegistry::CurrentThreadId();
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      worker(i, stop, stats);
    });
    if (options.pin_threads) {
      TryPinThread(threads.back(), static_cast<int>(i % cores));
    }
  }

  while (ready.load(std::memory_order_acquire) < options.threads) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(options.duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const auto end = std::chrono::steady_clock::now();

  result.seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

std::vector<int> BenchThreadCounts() {
  // Sweep to 2x the hardware threads (the paper's x-axis spans both
  // sockets plus hyperthreads), but at least to 8 so queueing behaviour is
  // visible even on very small machines.
  const int cap = static_cast<int>(
      std::max(8u, 2 * std::max(1u, std::thread::hardware_concurrency())));
  std::vector<int> counts;
  for (int n = 1; n <= cap; n *= 2) counts.push_back(n);
  return counts;
}

}  // namespace optiql
