// Figure 7: lock throughput under varying read/write ratios at the maximum
// thread count, for four contention levels. OptiQL must track OptLock on
// read-dominant/low-contention cells while avoiding collapse on
// write-dominant/high-contention cells.
#include "bench_common.h"
#include "harness/micro_bench.h"
#include "harness/table_printer.h"

namespace optiql {
namespace {

constexpr int kReadPcts[] = {0, 20, 50, 80, 90};

template <class Lock>
void RunRow(const BenchFlags& flags, size_t num_locks, TablePrinter& table) {
  std::vector<std::string> row = {TxnOps<Lock>::kName};
  for (int read_pct : kReadPcts) {
    MicroBenchConfig config;
    config.num_locks = num_locks;
    config.read_pct = read_pct;
    config.cs_length = 50;
    config.threads = flags.MaxThreads();
    config.duration_ms = flags.duration_ms;
    const RunResult result = RunLockMicroBench<Lock>(config);
    row.push_back(TablePrinter::Fmt(result.MopsPerSec()));
  }
  table.AddRow(std::move(row));
}

void RunLevel(const BenchFlags& flags, const ContentionLevel& level) {
  std::printf("-- Contention: %s (%zu locks), %d threads --\n", level.name,
              level.num_locks, flags.MaxThreads());
  std::vector<std::string> header = {"lock \\ read/write (Mops/s)"};
  for (int pct : kReadPcts) {
    header.push_back(std::to_string(pct) + "/" + std::to_string(100 - pct));
  }
  TablePrinter table(std::move(header));
  RunRow<OptLock>(flags, level.num_locks, table);
  RunRow<OptiQLNor>(flags, level.num_locks, table);
  RunRow<OptiQL>(flags, level.num_locks, table);
  RunRow<SharedMutexLock>(flags, level.num_locks, table);
  RunRow<McsRwLock>(flags, level.num_locks, table);
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 7: lock throughput vs. read/write ratio",
              "paper Fig. 7 (§7.2, mixed microbenchmark at 80 threads)",
              flags);
  // Figure 7 shows extreme/high/medium/low (the "none" level is excluded
  // because read-only results are identical across locks).
  for (size_t i = 0; i < 4; ++i) {
    RunLevel(flags, kContentionLevels[i]);
  }
  return 0;
}
