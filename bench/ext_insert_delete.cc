// Extension of §7.3's remark: "We also tested workloads that involve
// inserts and deletes, and observed the same performance characteristics
// for OptiQL." This bench runs insert-heavy and insert/delete-churn mixes
// over both indexes (SMOs, node growth and retirement included) so the
// claim can be checked on this substrate.
#include "index_bench_common.h"

namespace optiql {
namespace {

struct ChurnMix {
  const char* name;
  int lookup_pct;
  int insert_pct;
  int remove_pct;
};

constexpr ChurnMix kMixes[] = {
    {"Insert-heavy (50/50 lookup/insert)", 50, 50, 0},
    {"Churn (50 lookup / 25 insert / 25 remove)", 50, 25, 25},
};
// Built-in key distributions of the mix tables and of the steady-state
// table; --dist replaces both.
const KeyDist kMixDist = KeyDist::SelfSimilar(0.2);
const KeyDist kSteadyDist = KeyDist::Uniform();

template <class Tree>
void RunRow(const BenchFlags& flags, const char* name, const ChurnMix& mix,
            TablePrinter& table) {
  std::vector<std::string> row = {name};
  for (int threads : flags.threads) {
    // Fresh tree per cell: insert-heavy cells grow the tree, which would
    // otherwise skew later cells.
    auto tree = std::make_unique<Tree>();
    IndexWorkload workload;
    workload.records = flags.records;
    workload.lookup_pct = mix.lookup_pct;
    workload.insert_pct = mix.insert_pct;
    workload.remove_pct = mix.remove_pct;
    workload.update_pct = 0;
    workload.dist = flags.DistOr(kMixDist);
    workload.threads = threads;
    workload.duration_ms = flags.duration_ms;
    PreloadIndex(*tree, workload);
    row.push_back(TablePrinter::Fmt(RunIndexBench(*tree, workload).MopsPerSec()));
  }
  table.AddRow(std::move(row));
}

// Fixed-population steady-state churn (50/50 insert/remove over the
// preloaded key range): with delete-time merges the node count levels off
// after the first window instead of growing monotonically, and the epoch
// layer's reclaim total tracks its retire total. All three B+-tree
// synchronization protocols are exercised.
template <class Tree>
void RunSteadyStateRow(const BenchFlags& flags, const char* name,
                       TablePrinter& table) {
  auto tree = std::make_unique<Tree>();
  IndexWorkload workload;
  workload.records = flags.records;
  workload.lookup_pct = 0;
  workload.update_pct = 0;
  workload.insert_pct = 50;
  workload.remove_pct = 50;
  workload.fixed_population = true;
  workload.dist = flags.DistOr(kSteadyDist);
  workload.threads = flags.threads.back();
  workload.duration_ms = flags.duration_ms;
  PreloadIndex(*tree, workload);
  const SteadyStateReport report = RunChurnWindows(*tree, workload);
  const auto stats = tree->GetStats();
  table.AddRow({name, TablePrinter::Fmt(report.mops),
                std::to_string(report.nodes_preload),
                std::to_string(report.nodes_after_first),
                std::to_string(report.nodes_after_second),
                std::to_string(stats.leaf_merges + stats.inner_merges),
                std::to_string(stats.rebalance_borrows),
                std::to_string(report.retired_delta),
                std::to_string(report.reclaimed_delta)});
}

void RunSteadyState(const BenchFlags& flags) {
  std::printf(
      "-- B+-tree steady state: fixed-population 50/50 insert/remove churn, "
      "%s keys (%d threads) --\n",
      flags.DistOr(kSteadyDist).Name().c_str(), flags.threads.back());
  TablePrinter table({"lock", "Mops/s", "nodes preload", "nodes W1",
                      "nodes W2", "merges", "borrows", "retired",
                      "reclaimed"});
  RunSteadyStateRow<BTreeOptLock>(flags, "OptLock", table);
  RunSteadyStateRow<BTreeOptiQl>(flags, "OptiQL", table);
  RunSteadyStateRow<BTreeMcsRw>(flags, "MCS-RW leaf", table);
  table.Print();
  std::printf("\n");
}

void RunMix(const BenchFlags& flags, const ChurnMix& mix) {
  const std::string dist = flags.DistOr(kMixDist).Name();
  std::printf("-- B+-tree, %s, %s keys --\n", mix.name, dist.c_str());
  std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));
  {
    TablePrinter table(header);
    RunRow<BTreeOptLock>(flags, "OptLock", mix, table);
    RunRow<BTreeOptiQlNor>(flags, "OptiQL-NOR", mix, table);
    RunRow<BTreeOptiQl>(flags, "OptiQL", mix, table);
    table.Print();
  }
  std::printf("\n-- ART, %s, %s keys --\n", mix.name, dist.c_str());
  {
    TablePrinter table(header);
    RunRow<ArtOptLock>(flags, "OptLock", mix, table);
    RunRow<ArtOptiQlNor>(flags, "OptiQL-NOR", mix, table);
    RunRow<ArtOptiQl>(flags, "OptiQL", mix, table);
    table.Print();
  }
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Extension: insert/delete workloads",
              "paper §7.3 ('same performance characteristics') — SMO-heavy "
              "mixes",
              flags);
  for (const ChurnMix& mix : kMixes) RunMix(flags, mix);
  RunSteadyState(flags);
  return 0;
}
