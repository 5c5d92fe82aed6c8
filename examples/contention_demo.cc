// Contention robustness demo (the paper's Figure 1 story, interactive):
// hammers a single hot B+-tree leaf with updates and contrasts the
// centralized optimistic lock against OptiQL, then shows what the lock
// itself experiences via the microbenchmark (CAS-retry storm vs. FIFO
// queue) and the fairness spread across threads.
//
// Build & run:  ./build/examples/contention_demo [num_threads]
#include <cstdio>
#include <cstdlib>

#include "harness/index_bench.h"
#include "harness/micro_bench.h"
#include "index/btree.h"

namespace {

using optiql::IndexWorkload;
using optiql::MicroBenchConfig;
using optiql::RunResult;

template <class Tree>
RunResult HotLeafUpdates(int threads) {
  Tree tree;
  IndexWorkload workload;
  workload.records = 100000;
  workload.lookup_pct = 0;
  workload.update_pct = 100;
  // Self-similar 0.2 over a dense keyspace: the head keys live in a
  // handful of leaves whose locks become the bottleneck.
  workload.dist = optiql::KeyDist::SelfSimilar(0.2);
  workload.threads = threads;
  workload.duration_ms = 500;
  PreloadIndex(tree, workload);
  return RunIndexBench(tree, workload);
}

void PrintRun(const char* name, const RunResult& result) {
  uint64_t min_ops = ~0ULL, max_ops = 0;
  for (const auto& s : result.per_thread) {
    min_ops = std::min(min_ops, s.ops);
    max_ops = std::max(max_ops, s.ops);
  }
  std::printf("  %-28s %8.2f Mops/s   fairness(Jain) %.3f   "
              "luckiest/unluckiest thread %.2fx\n",
              name, result.MopsPerSec(), result.JainFairness(),
              min_ops == 0 ? 0.0
                           : static_cast<double>(max_ops) /
                                 static_cast<double>(min_ops));
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 8;

  std::printf("contention_demo: %d threads updating a skewed B+-tree\n\n",
              threads);

  std::printf("[1] Index level: update-only, self-similar(0.2) keys\n");
  PrintRun("OptLock (centralized)",
           HotLeafUpdates<optiql::BTree<
               uint64_t, uint64_t, optiql::BTreeOlcPolicy>>(threads));
  PrintRun("OptiQL (queue-based)",
           HotLeafUpdates<optiql::BTree<
               uint64_t, uint64_t,
               optiql::BTreeOptiQlPolicy<optiql::OptiQL>>>(threads));

  std::printf("\n[2] Lock level: all threads on ONE lock (extreme "
              "contention, CS=50)\n");
  MicroBenchConfig config;
  config.num_locks = 1;
  config.read_pct = 0;
  config.threads = threads;
  config.duration_ms = 500;
  PrintRun("OptLock (centralized)",
           optiql::RunLockMicroBench<optiql::OptLock>(config));
  PrintRun("OptiQL (queue-based)",
           optiql::RunLockMicroBench<optiql::OptiQL>(config));

  std::printf(
      "\nOn a large multicore, the centralized lock's CAS-retry storm "
      "collapses\nits throughput and skews fairness; OptiQL's FIFO queue "
      "holds both steady\n(paper Figures 1 and 6).\n");
  return 0;
}
