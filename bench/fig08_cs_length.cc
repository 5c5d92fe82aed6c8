// Figure 8: lock throughput as a function of critical-section length under
// low and high contention with a read-mostly (80/20) mix. Opportunistic
// read mainly benefits short reads; with long critical sections OptiQL
// converges toward OptiQL-NOR.
#include "bench_common.h"
#include "harness/micro_bench.h"
#include "harness/table_printer.h"

namespace optiql {
namespace {

constexpr int kCsLengths[] = {5, 50, 100, 150, 200};

template <class Lock>
void RunRow(const BenchFlags& flags, size_t num_locks, TablePrinter& table) {
  std::vector<std::string> row = {TxnOps<Lock>::kName};
  for (int cs : kCsLengths) {
    MicroBenchConfig config;
    config.num_locks = num_locks;
    config.read_pct = 80;
    config.cs_length = cs;
    config.threads = flags.MaxThreads();
    config.duration_ms = flags.duration_ms;
    const RunResult result = RunLockMicroBench<Lock>(config);
    row.push_back(TablePrinter::Fmt(result.MopsPerSec()));
  }
  table.AddRow(std::move(row));
}

void RunLevel(const BenchFlags& flags, const char* name, size_t num_locks) {
  std::printf("-- Contention: %s, 80%%/20%% read/write, %d threads --\n",
              name, flags.MaxThreads());
  std::vector<std::string> header = {"lock \\ CS length (Mops/s)"};
  for (int cs : kCsLengths) header.push_back(std::to_string(cs));
  TablePrinter table(std::move(header));
  RunRow<OptLock>(flags, num_locks, table);
  RunRow<OptiQLNor>(flags, num_locks, table);
  RunRow<OptiQL>(flags, num_locks, table);
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 8: throughput vs. critical-section length",
              "paper Fig. 8 (§7.2, 80% reads, low vs. high contention)",
              flags);
  RunLevel(flags, "low", 1000000);
  RunLevel(flags, "high", 5);
  return 0;
}
