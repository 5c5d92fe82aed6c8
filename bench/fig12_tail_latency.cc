// Figure 12: operation latency at percentiles up to 99.999% under the
// skewed workload, at two thread counts, for both indexes. OptLock's tail
// explodes with update share (CAS-retry unfairness); OptiQL's FIFO queue
// keeps the tail flat.
#include "index_bench_common.h"

namespace optiql {
namespace {

const std::vector<OpMix> kMixes = {
    {"Read-only", 100, 0}, {"Balanced", 50, 50}, {"Update-only", 0, 100}};
const KeyDist kBuiltinDist = KeyDist::SelfSimilar(0.2);

constexpr double kQuantiles[] = {0.0, 0.5, 0.9, 0.99, 0.999, 0.9999,
                                 0.99999};
constexpr const char* kQuantileNames[] = {"min",    "50%",    "90%", "99%",
                                          "99.9%",  "99.99%", "99.999%"};

template <class Tree>
void RunRows(const BenchFlags& flags, const char* lock_name, int threads,
             std::vector<std::vector<std::string>>& rows_per_mix) {
  IndexWorkload base;
  base.records = flags.records;
  base.dist = kBuiltinDist;
  base.latency_sampling = 8;  // Sample 1/8 operations.
  BenchFlags one = flags;
  one.threads = {threads};
  SweepIndex<Tree>(one, base, kMixes,
                   [&](size_t m, size_t, const RunResult& result) {
                     const Histogram merged = result.MergedLatency();
                     std::vector<std::string> row = {lock_name};
                     for (double q : kQuantiles) {
                       const double us =
                           static_cast<double>(q == 0.0
                                                   ? merged.min()
                                                   : merged.ValueAtQuantile(q)) /
                           1000.0;
                       row.push_back(TablePrinter::Fmt(us, 1));
                     }
                     rows_per_mix[m] = std::move(row);
                   });
}

template <class TreeOptLock, class TreeNor, class TreeQl>
void RunIndex(const char* index_name, const BenchFlags& flags) {
  const int max_threads = flags.MaxThreads();
  const int threads_pairs[2] = {std::max(1, max_threads / 2), max_threads};
  for (int threads : threads_pairs) {
    std::vector<std::vector<std::string>> optlock(kMixes.size()),
        nor(kMixes.size()), ql(kMixes.size());
    RunRows<TreeOptLock>(flags, "OptLock", threads, optlock);
    RunRows<TreeNor>(flags, "OptiQL-NOR", threads, nor);
    RunRows<TreeQl>(flags, "OptiQL", threads, ql);
    for (size_t m = 0; m < kMixes.size(); ++m) {
      std::printf("-- %s, %s, %d threads (latency in microseconds) --\n",
                  index_name, kMixes[m].name, threads);
      std::vector<std::string> header = {"lock \\ percentile"};
      for (const char* q : kQuantileNames) header.push_back(q);
      TablePrinter table(std::move(header));
      table.AddRow(optlock[m]);
      table.AddRow(nor[m]);
      table.AddRow(ql[m]);
      table.Print();
      std::printf("\n");
    }
  }
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Figure 12: tail latency percentiles",
              "paper Fig. 12 (§7.5, " + flags.DistOr(kBuiltinDist).Name() +
                  " keys, two thread counts)",
              flags);
  RunIndex<BTreeOptLock, BTreeOptiQlNor, BTreeOptiQl>("B+-tree", flags);
  RunIndex<ArtOptLock, ArtOptiQlNor, ArtOptiQl>("ART", flags);
  return 0;
}
