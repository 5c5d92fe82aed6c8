// Figure 9: B+-tree (top) and ART (bottom) throughput under the skewed
// workload (self-similar, skew 0.2, dense keys) across five operation
// mixes and a thread sweep. Pessimistic MCS-RW/pthread fail to scale even
// read-only; OptLock collapses as writes grow; OptiQL holds; opportunistic
// read separates OptiQL from OptiQL-NOR whenever reads are present.
#include "index_bench_common.h"

namespace optiql {
namespace {

const std::vector<OpMix> kMixes(std::begin(kPaperOpMixes),
                                std::end(kPaperOpMixes));
const KeyDist kBuiltinDist = KeyDist::SelfSimilar(0.2);

struct Sheet {
  // [mix][lock] -> row of throughput per thread count.
  std::vector<std::vector<std::vector<std::string>>> cells;
  std::vector<std::string> lock_names;
};

template <class Tree>
void RunTree(const BenchFlags& flags, const char* lock_name, Sheet& sheet) {
  IndexWorkload base;
  base.records = flags.records;
  base.dist = kBuiltinDist;
  base.key_space = KeySpace::kDense;

  const size_t lock_idx = sheet.lock_names.size();
  sheet.lock_names.push_back(lock_name);
  for (auto& mix_rows : sheet.cells) {
    mix_rows.emplace_back(flags.threads.size());
  }
  SweepIndex<Tree>(flags, base, kMixes,
                   [&](size_t m, size_t t, const RunResult& result) {
                     sheet.cells[m][lock_idx][t] =
                         TablePrinter::Fmt(result.MopsPerSec());
                   });
}

void PrintSheet(const char* index_name, const BenchFlags& flags,
                const Sheet& sheet) {
  for (size_t m = 0; m < kMixes.size(); ++m) {
    std::printf("-- %s, %s (%d%% lookup / %d%% update) --\n", index_name,
                kMixes[m].name, kMixes[m].lookup_pct, kMixes[m].update_pct);
    std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
    for (int t : flags.threads) header.push_back(std::to_string(t));
    TablePrinter table(std::move(header));
    for (size_t l = 0; l < sheet.lock_names.size(); ++l) {
      std::vector<std::string> row = {sheet.lock_names[l]};
      for (const auto& cell : sheet.cells[m][l]) row.push_back(cell);
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 9: index throughput under skewed access",
              "paper Fig. 9 (§7.3, " + flags.DistOr(kBuiltinDist).Name() +
                  " keys, dense)",
              flags);

  {
    Sheet sheet;
    sheet.cells.resize(kMixes.size());
    RunTree<BTreeOptLock>(flags, "OptLock", sheet);
    RunTree<BTreeOptiQlNor>(flags, "OptiQL-NOR", sheet);
    RunTree<BTreeOptiQl>(flags, "OptiQL", sheet);
    RunTree<BTreePthread>(flags, "pthread", sheet);
    RunTree<BTreeMcsRw>(flags, "MCS-RW", sheet);
    PrintSheet("B+-tree", flags, sheet);
  }
  {
    Sheet sheet;
    sheet.cells.resize(kMixes.size());
    RunTree<ArtOptLock>(flags, "OptLock", sheet);
    RunTree<ArtOptiQlNor>(flags, "OptiQL-NOR", sheet);
    RunTree<ArtOptiQl>(flags, "OptiQL", sheet);
    RunTree<ArtPthread>(flags, "pthread", sheet);
    RunTree<ArtMcsRw>(flags, "MCS-RW", sheet);
    PrintSheet("ART", flags, sheet);
  }
  return 0;
}
