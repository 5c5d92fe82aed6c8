// Extension (paper §8 future work): CLH adapted with optimistic reads
// ("OptiCLH") head-to-head with OptiQL across the Figure-6/7 conditions.
// CLH's node-migration design removes the wait-for-link step from release
// and folds version handover into the unblocking store, at the cost of a
// pooled-node pop/push per acquisition.
#include "bench_common.h"
#include "harness/micro_bench.h"
#include "harness/table_printer.h"

namespace optiql {
namespace {

template <class Lock>
void RunExclusiveRow(const BenchFlags& flags, const ContentionLevel& level,
                     TablePrinter& table) {
  std::vector<std::string> row = {TxnOps<Lock>::kName};
  for (int threads : flags.threads) {
    MicroBenchConfig config;
    config.num_locks = level.num_locks;
    config.read_pct = 0;
    config.threads = threads;
    config.duration_ms = flags.duration_ms;
    row.push_back(TablePrinter::Fmt(RunLockMicroBench<Lock>(config).MopsPerSec()));
  }
  table.AddRow(std::move(row));
}

template <class Lock>
void RunMixedRow(const BenchFlags& flags, TablePrinter& table) {
  std::vector<std::string> row = {TxnOps<Lock>::kName};
  for (int read_pct : {0, 20, 50, 80, 90}) {
    MicroBenchConfig config;
    config.num_locks = 5;  // High contention.
    config.read_pct = read_pct;
    config.threads = flags.MaxThreads();
    config.duration_ms = flags.duration_ms;
    const RunResult result = RunLockMicroBench<Lock>(config);
    row.push_back(TablePrinter::Fmt(result.MopsPerSec()));
  }
  table.AddRow(std::move(row));
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Extension: OptiCLH (CLH + optimistic reads) vs OptiQL",
              "paper §8 future work ('CLH could also be adapted')", flags);

  for (const ContentionLevel& level : {kContentionLevels[0],
                                       kContentionLevels[1],
                                       kContentionLevels[3]}) {
    std::printf("-- Exclusive-only, contention: %s --\n", level.name);
    std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
    for (int t : flags.threads) header.push_back(std::to_string(t));
    TablePrinter table(std::move(header));
    RunExclusiveRow<McsLock>(flags, level, table);
    RunExclusiveRow<ClhLock>(flags, level, table);
    RunExclusiveRow<OptiQL>(flags, level, table);
    RunExclusiveRow<OptiCLH>(flags, level, table);
    table.Print();
    std::printf("\n");
  }

  std::printf("-- Mixed read/write, high contention (5 locks), %d threads "
              "--\n",
              flags.MaxThreads());
  TablePrinter table({"lock \\ read/write (Mops/s)", "0/100", "20/80",
                      "50/50", "80/20", "90/10"});
  RunMixedRow<OptiQL>(flags, table);
  RunMixedRow<OptiCLH>(flags, table);
  RunMixedRow<HybridLock>(flags, table);
  table.Print();
  std::printf(
      "\n(Hybrid = Bottcher et al.'s optimistic latch with pessimistic "
      "reader fallback, the paper's ref [6].)\n");
  return 0;
}
