// Figure 13: ART throughput with *sparse* integer keys under the skewed
// distribution — sparse keys force lazy expansion, so hot leaves hang off
// higher-level nodes and updates must upgrade (CAS) instead of taking a
// last-level lock directly. OptLock suffers excessive retries; the OptiQL
// variants use contention expansion (§6.2) to materialize hot paths and
// local-spin. The expansion count is reported as a diagnostic.
#include "index_bench_common.h"

namespace optiql {
namespace {

const std::vector<OpMix> kMixes = {{"Read-heavy", 80, 20},
                                   {"Write-heavy", 20, 80}};
const KeyDist kBuiltinDist = KeyDist::SelfSimilar(0.2);

template <class Tree>
void RunRow(const BenchFlags& flags, const char* name, size_t mix,
            TablePrinter& table, std::string* diag) {
  IndexWorkload base;
  base.records = flags.records;
  base.dist = flags.DistOr(kBuiltinDist);
  base.key_space = KeySpace::kSparse;

  auto tree = std::make_unique<Tree>();
  IndexWorkload workload = base;
  workload.duration_ms = flags.duration_ms;
  PreloadIndex(*tree, workload);
  workload.lookup_pct = kMixes[mix].lookup_pct;
  workload.update_pct = kMixes[mix].update_pct;

  std::vector<std::string> row = {name};
  for (int threads : flags.threads) {
    workload.threads = threads;
    const RunResult result = RunIndexBench(*tree, workload);
    row.push_back(TablePrinter::Fmt(result.MopsPerSec()));
  }
  if (diag != nullptr) {
    *diag = std::to_string(tree->ContentionExpansions());
  }
  table.AddRow(std::move(row));
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 13: ART with sparse keys (lazy expansion)",
              "paper Fig. 13 (§7.6, " + flags.DistOr(kBuiltinDist).Name() +
                  " keys, sparse 8-byte)",
              flags);
  for (size_t m = 0; m < kMixes.size(); ++m) {
    std::printf("-- (%c) %s (%d%% lookup / %d%% update) --\n",
                static_cast<char>('a' + m), kMixes[m].name,
                kMixes[m].lookup_pct, kMixes[m].update_pct);
    std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
    for (int t : flags.threads) header.push_back(std::to_string(t));
    TablePrinter table(std::move(header));
    std::string ql_expansions, nor_expansions;
    RunRow<ArtOptLock>(flags, "OptLock", m, table, nullptr);
    RunRow<ArtOptiQlNor>(flags, "OptiQL-NOR", m, table, &nor_expansions);
    RunRow<ArtOptiQl>(flags, "OptiQL", m, table, &ql_expansions);
    RunRow<ArtPthread>(flags, "pthread", m, table, nullptr);
    RunRow<ArtMcsRw>(flags, "MCS-RW", m, table, nullptr);
    table.Print();
    std::printf("contention expansions: OptiQL=%s OptiQL-NOR=%s\n\n",
                ql_expansions.c_str(), nor_expansions.c_str());
  }
  return 0;
}
