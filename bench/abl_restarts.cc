// Ablation: wasted work under contention, quantified. The centralized
// optimistic protocol aborts and re-traverses from the root whenever an
// upgrade CAS or a validation fails; OptiQL's adapted protocol (Algorithm
// 4) queues on the leaf instead. This bench reports *restarts per
// completed operation* for both across contention levels — the
// CAS-retry-storm mechanism behind Figure 1/9, made visible.
#include "index_bench_common.h"

namespace optiql {
namespace {

template <class Tree>
void RunRow(const BenchFlags& flags, const char* name,
            const KeyDist& dist, int lookup_pct, int update_pct,
            TablePrinter& table) {
  auto tree = std::make_unique<Tree>();
  IndexWorkload workload;
  workload.records = flags.records;
  workload.lookup_pct = lookup_pct;
  workload.update_pct = update_pct;
  workload.dist = dist;
  workload.duration_ms = flags.duration_ms;
  PreloadIndex(*tree, workload);

  std::vector<std::string> row = {name};
  for (int threads : flags.threads) {
    workload.threads = threads;
    tree->ResetStats();
    const RunResult result = RunIndexBench(*tree, workload);
    const auto stats = tree->GetStats();
    const double restarts_per_kop =
        result.TotalOps() == 0
            ? 0.0
            : 1000.0 *
                  static_cast<double>(stats.read_restarts +
                                      stats.write_restarts) /
                  static_cast<double>(result.TotalOps());
    row.push_back(TablePrinter::Fmt(result.MopsPerSec()) + " / " +
                  TablePrinter::Fmt(restarts_per_kop, 2));
  }
  table.AddRow(std::move(row));
}

void RunCase(const BenchFlags& flags, const KeyDist& dist, int lookup_pct,
             int update_pct, const char* title) {
  std::printf("-- %s: %s keys (%d%% lookup / %d%% update) --\n", title,
              dist.Name().c_str(), lookup_pct, update_pct);
  std::vector<std::string> header = {
      "lock \\ threads (Mops/s / restarts-per-1k-ops)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));
  TablePrinter table(std::move(header));
  RunRow<BTreeOptLock>(flags, "OptLock", dist, lookup_pct, update_pct,
                       table);
  RunRow<BTreeOptiQlNor>(flags, "OptiQL-NOR", dist, lookup_pct, update_pct,
                         table);
  RunRow<BTreeOptiQl>(flags, "OptiQL", dist, lookup_pct, update_pct, table);
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Ablation: protocol restarts per operation",
              "mechanism behind paper Figs. 1/9 — OLC abort-and-retry vs "
              "OptiQL's queue-on-leaf",
              flags);
  if (flags.dist_given) {
    RunCase(flags, flags.dist, 20, 80, "Write-heavy, --dist");
    RunCase(flags, flags.dist, 90, 10, "Read-mostly, --dist");
  } else {
    RunCase(flags, KeyDist::Uniform(), 20, 80, "Low contention");
    RunCase(flags, KeyDist::SelfSimilar(0.2), 20, 80, "High contention");
    RunCase(flags, KeyDist::SelfSimilar(0.2), 90, 10, "Read-mostly hot set");
  }
  return 0;
}
