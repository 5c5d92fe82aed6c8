// Table 1: reader success rate of OptiQL-NOR vs OptiQL under varying
// read/write ratios at high contention. Without opportunistic read the
// queue keeps the lock word continuously "locked", starving optimistic
// readers (<2% success in the paper); opportunistic read admits them
// during handover windows (~27-32%).
#include "bench_common.h"
#include "harness/micro_bench.h"
#include "harness/table_printer.h"

namespace optiql {
namespace {

constexpr int kReadPcts[] = {20, 50, 80, 90};

template <class Lock>
void RunRow(const BenchFlags& flags, TablePrinter& table) {
  std::vector<std::string> row = {TxnOps<Lock>::kName};
  for (int read_pct : kReadPcts) {
    MicroBenchConfig config;
    config.num_locks = 5;  // High contention.
    config.read_pct = read_pct;
    config.cs_length = 50;
    config.threads = flags.MaxThreads();
    config.duration_ms = flags.duration_ms;
    const RunResult result = RunLockMicroBench<Lock>(config);
    const double rate =
        result.TotalReadsAttempted() == 0
            ? 0.0
            : 100.0 * static_cast<double>(result.TotalReadsOk()) /
                  static_cast<double>(result.TotalReadsAttempted());
    row.push_back(TablePrinter::Fmt(rate) + "%");
  }
  table.AddRow(std::move(row));
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Table 1: reader success rate under high contention",
              "paper Table 1 (§7.2, 5 locks, CS=50)", flags);
  std::vector<std::string> header = {"lock \\ read/write"};
  for (int pct : kReadPcts) {
    header.push_back(std::to_string(pct) + "%/" + std::to_string(100 - pct) +
                     "%");
  }
  TablePrinter table(std::move(header));
  RunRow<OptiQLNor>(flags, table);
  RunRow<OptiQL>(flags, table);
  table.Print();
  std::printf(
      "\nExpected shape (paper): OptiQL-NOR < 2%% everywhere; OptiQL in "
      "the tens of percent.\n");
  return 0;
}
