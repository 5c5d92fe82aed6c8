// Figure 11: B+-tree throughput under the skewed workload as the node size
// grows from 256 B to 16 KB (longer critical sections), for read-heavy /
// balanced / write-heavy mixes, including adjustable opportunistic read
// (OptiQL-AOR). AOR pays off with larger nodes, where readers need more
// time to finish inside the handover window.
#include "index_bench_common.h"

namespace optiql {
namespace {

const std::vector<OpMix> kMixes = {
    {"Read-heavy", 80, 20}, {"Balanced", 50, 50}, {"Write-heavy", 20, 80}};
const KeyDist kBuiltinDist = KeyDist::SelfSimilar(0.2);

// results[mix][lock][size] in Mops/s, as strings.
using ResultGrid = std::vector<std::vector<std::vector<std::string>>>;

template <class Tree>
void RunCell(const BenchFlags& flags, size_t lock_idx, size_t size_idx,
             ResultGrid& grid) {
  IndexWorkload base;
  base.records = flags.records;
  base.dist = kBuiltinDist;
  BenchFlags one = flags;
  one.threads = {flags.MaxThreads()};  // Fixed thread count (paper: 40).
  SweepIndex<Tree>(one, base, kMixes,
                   [&](size_t m, size_t, const RunResult& result) {
                     grid[m][lock_idx][size_idx] =
                         TablePrinter::Fmt(result.MopsPerSec());
                   });
}

template <size_t kNodeBytes>
void RunSize(const BenchFlags& flags, size_t size_idx, ResultGrid& grid) {
  RunCell<BTree<uint64_t, uint64_t, BTreeOlcPolicy, kNodeBytes>>(
      flags, 0, size_idx, grid);
  RunCell<BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQLNor>,
                kNodeBytes>>(flags, 1, size_idx, grid);
  RunCell<BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>, kNodeBytes>>(
      flags, 2, size_idx, grid);
  RunCell<BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL, true>,
                kNodeBytes>>(flags, 3, size_idx, grid);
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 11: B+-tree throughput vs. node size (incl. AOR)",
              "paper Fig. 11 (§7.4, " + flags.DistOr(kBuiltinDist).Name() +
                  " keys, fixed thread count)",
              flags);

  const std::vector<std::string> sizes = {"256",  "512",  "1024", "2048",
                                          "4096", "8192", "16384"};
  const std::vector<std::string> locks = {"OptLock", "OptiQL-NOR", "OptiQL",
                                          "OptiQL-AOR"};
  ResultGrid grid(kMixes.size(),
                  std::vector<std::vector<std::string>>(
                      locks.size(), std::vector<std::string>(sizes.size())));

  RunSize<256>(flags, 0, grid);
  RunSize<512>(flags, 1, grid);
  RunSize<1024>(flags, 2, grid);
  RunSize<2048>(flags, 3, grid);
  RunSize<4096>(flags, 4, grid);
  RunSize<8192>(flags, 5, grid);
  RunSize<16384>(flags, 6, grid);

  for (size_t m = 0; m < kMixes.size(); ++m) {
    std::printf("-- %s (%d%% lookup / %d%% update), %d threads --\n",
                kMixes[m].name, kMixes[m].lookup_pct, kMixes[m].update_pct,
                flags.MaxThreads());
    std::vector<std::string> header = {"lock \\ node bytes (Mops/s)"};
    for (const auto& s : sizes) header.push_back(s);
    TablePrinter table(std::move(header));
    for (size_t l = 0; l < locks.size(); ++l) {
      std::vector<std::string> row = {locks[l]};
      for (const auto& cell : grid[m][l]) row.push_back(cell);
      table.AddRow(std::move(row));
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
