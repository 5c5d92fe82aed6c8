// Figure 1 (the motivating experiment): update-only throughput of a
// memory-optimized B+-tree, centralized optimistic locking vs OptiQL, under
// (a) low contention (uniform keys) and (b) high contention (self-similar,
// skew 0.2). OptLock collapses beyond one socket under contention; OptiQL
// holds its plateau.
#include "index_bench_common.h"

namespace optiql {
namespace {

template <class Tree>
void RunRow(const BenchFlags& flags, const KeyDist& dist, const char* name,
            TablePrinter& table) {
  IndexWorkload base;
  base.records = flags.records;
  base.dist = dist;
  std::vector<std::string> row = {name};
  row.resize(1 + flags.threads.size());
  SweepIndex<Tree>(flags, base, {{"Update-only", 0, 100}},
                   [&](size_t, size_t t, const RunResult& result) {
                     row[1 + t] = TablePrinter::Fmt(result.MopsPerSec());
                   });
  table.AddRow(std::move(row));
}

void RunCase(const BenchFlags& flags, const KeyDist& dist,
             const char* title) {
  std::printf("-- %s: %s keys --\n", title, dist.Name().c_str());
  std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));
  TablePrinter table(std::move(header));
  RunRow<BTreeOptLock>(flags, dist, "Centralized optimistic (OptLock)",
                       table);
  RunRow<BTreeOptiQl>(flags, dist, "OptiQL (this work)", table);
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 1: B+-tree update throughput, OptLock vs OptiQL",
              "paper Fig. 1 (§1, 100% updates, dense 8-byte keys)", flags);
  if (flags.dist_given) {
    RunCase(flags, flags.dist, "--dist");
  } else {
    RunCase(flags, KeyDist::Uniform(), "(a) Low contention");
    RunCase(flags, KeyDist::SelfSimilar(0.2), "(b) High contention");
  }
  return 0;
}
