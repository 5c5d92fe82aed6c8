// Ablation (paper §1.1, §3 D3): fairness of centralized locks with and
// without exponential backoff versus queue-based locks, under high
// contention. The paper reports "lucky" threads being ~3x more likely to
// acquire a backoff lock; queue-based locks grant FIFO. We report Jain's
// fairness index and the max/min per-thread acquisition ratio, one row per
// lock at each --threads count.
#include <string>

#include "bench_common.h"
#include "harness/micro_bench.h"
#include "harness/table_printer.h"

namespace optiql {
namespace {

template <class Lock>
void RunRow(const BenchFlags& flags, int threads, TablePrinter& table) {
  MicroBenchConfig config;
  config.num_locks = 1;  // Extreme contention exposes unfairness best.
  config.read_pct = 0;
  config.cs_length = 50;
  config.threads = threads;
  config.duration_ms = flags.duration_ms;
  const RunResult result = RunLockMicroBench<Lock>(config);
  uint64_t min_ops = ~0ULL, max_ops = 0;
  for (const auto& s : result.per_thread) {
    min_ops = std::min(min_ops, s.ops);
    max_ops = std::max(max_ops, s.ops);
  }
  table.AddRow({TxnOps<Lock>::kName, std::to_string(threads),
                TablePrinter::Fmt(result.MopsPerSec()),
                TablePrinter::Fmt(result.JainFairness(), 3),
                TablePrinter::Fmt(min_ops == 0
                                      ? 0.0
                                      : static_cast<double>(max_ops) /
                                            static_cast<double>(min_ops),
                                  2)});
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Ablation: backoff vs. fairness under extreme contention",
              "paper §1.1 ('lucky' threads ~3x with backoff) and §3 D3",
              flags);
  TablePrinter table(
      {"lock", "threads", "Mops/s", "Jain fairness", "max/min thread ratio"});
  for (const int threads : flags.threads) {
    RunRow<TtsLock>(flags, threads, table);
    RunRow<TtsBackoffLock>(flags, threads, table);
    RunRow<OptLock>(flags, threads, table);
    RunRow<OptBackoffLock>(flags, threads, table);
    RunRow<McsLock>(flags, threads, table);
    RunRow<OptiQL>(flags, threads, table);
  }
  table.Print();
  std::printf(
      "\nExpected shape: backoff variants raise throughput but lower "
      "fairness (higher max/min); queue-based locks stay near Jain=1.\n");
  return 0;
}
