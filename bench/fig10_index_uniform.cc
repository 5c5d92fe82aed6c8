// Figure 10: index throughput under low contention (uniform keys) with the
// balanced 50/50 mix. All optimistic variants (OptLock, OptiQL, OptiQL-NOR)
// should be indistinguishable; the pessimistic RW locks trail.
#include "index_bench_common.h"

namespace optiql {
namespace {

const KeyDist kBuiltinDist = KeyDist::Uniform();

template <class Tree>
void RunRow(const BenchFlags& flags, const char* name, TablePrinter& table) {
  IndexWorkload base;
  base.records = flags.records;
  base.dist = kBuiltinDist;
  std::vector<std::string> row = {name};
  row.resize(1 + flags.threads.size());
  SweepIndex<Tree>(flags, base, {{"Balanced", 50, 50}},
                   [&](size_t, size_t t, const RunResult& result) {
                     row[1 + t] = TablePrinter::Fmt(result.MopsPerSec());
                   });
  table.AddRow(std::move(row));
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 10: index throughput under low contention (balanced)",
              "paper Fig. 10 (§7.3, " + flags.DistOr(kBuiltinDist).Name() +
                  " keys, 50% lookup / 50% update)",
              flags);

  std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));

  std::printf("-- (a) B+-tree --\n");
  {
    TablePrinter table(header);
    RunRow<BTreeOptLock>(flags, "OptLock", table);
    RunRow<BTreeOptiQlNor>(flags, "OptiQL-NOR", table);
    RunRow<BTreeOptiQl>(flags, "OptiQL", table);
    RunRow<BTreePthread>(flags, "pthread", table);
    RunRow<BTreeMcsRw>(flags, "MCS-RW", table);
    table.Print();
  }
  std::printf("\n-- (b) ART --\n");
  {
    TablePrinter table(header);
    RunRow<ArtOptLock>(flags, "OptLock", table);
    RunRow<ArtOptiQlNor>(flags, "OptiQL-NOR", table);
    RunRow<ArtOptiQl>(flags, "OptiQL", table);
    RunRow<ArtPthread>(flags, "pthread", table);
    RunRow<ArtMcsRw>(flags, "MCS-RW", table);
    table.Print();
  }
  return 0;
}
