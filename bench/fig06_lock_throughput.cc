// Figure 6: exclusive-lock throughput under five contention levels
// (extreme / high / medium / low / none), sweeping thread counts across
// all seven lock variants. Queue-based locks must hold their throughput
// under extreme/high contention; centralized ones collapse.
#include "bench_common.h"
#include "harness/micro_bench.h"
#include "harness/table_printer.h"

namespace optiql {
namespace {

template <class Lock>
void RunRows(const BenchFlags& flags, const ContentionLevel& level,
             TablePrinter& table) {
  std::vector<std::string> row = {TxnOps<Lock>::kName};
  for (int threads : flags.threads) {
    MicroBenchConfig config;
    config.num_locks = level.num_locks;
    config.read_pct = 0;
    config.cs_length = 50;
    config.threads = threads;
    config.duration_ms = flags.duration_ms;
    const RunResult result = RunLockMicroBench<Lock>(config);
    row.push_back(TablePrinter::Fmt(result.MopsPerSec()));
  }
  table.AddRow(std::move(row));
}

void RunLevel(const BenchFlags& flags, const ContentionLevel& level) {
  std::printf("-- Contention: %s (%zu lock(s)%s) --\n", level.name,
              level.num_locks == 0 ? 1 : level.num_locks,
              level.num_locks == 0 ? " per thread" : "");
  std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));
  TablePrinter table(std::move(header));
  RunRows<OptLock>(flags, level, table);
  RunRows<OptiQLNor>(flags, level, table);
  RunRows<OptiQL>(flags, level, table);
  RunRows<SharedMutexLock>(flags, level, table);
  RunRows<McsRwLock>(flags, level, table);
  RunRows<TtsLock>(flags, level, table);
  RunRows<McsLock>(flags, level, table);
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 6: exclusive lock throughput vs. contention",
              "paper Fig. 6 (§7.2, pure-write microbenchmark, CS=50)",
              flags);
  for (const ContentionLevel& level : kContentionLevels) {
    RunLevel(flags, level);
  }
  return 0;
}
