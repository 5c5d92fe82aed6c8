// Shared scaffolding for the index benchmark binaries (Figures 1, 9-13):
// tree typedefs matching the paper's legend and a generic sweep runner.
#ifndef OPTIQL_BENCH_INDEX_BENCH_COMMON_H_
#define OPTIQL_BENCH_INDEX_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/index_bench.h"
#include "harness/table_printer.h"
#include "index/art.h"
#include "index/art_coupling.h"
#include "index/btree.h"
#include "index/index_ops.h"
#include "sync/epoch.h"

namespace optiql {

// B+-tree variants (paper §7.1 lock list). 256-byte nodes per §7.1.
using BTreeOptLock = BTree<uint64_t, uint64_t, BTreeOlcPolicy>;
using BTreeOptiQl = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>;
using BTreeOptiQlNor =
    BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQLNor>>;
using BTreeOptiQlAor =
    BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL, /*kAor=*/true>>;
// The reader-writer baselines: OptLock inner nodes over an RW leaf lock.
using BTreePthread =
    BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<SharedMutexLock>>;
using BTreeMcsRw = BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<McsRwLock>>;

// ART variants (§6.2).
using ArtOptLock = ArtTree<ArtOlcPolicy>;
using ArtOptiQl = ArtTree<ArtOptiQlPolicy<OptiQL>>;
using ArtOptiQlNor = ArtTree<ArtOptiQlPolicy<OptiQLNor>>;
using ArtPthread = ArtCouplingTree<SharedMutexLock>;
using ArtMcsRw = ArtCouplingTree<McsRwLock>;

// Steady-state churn measurement: runs the same fixed-population workload
// twice against a preloaded tree and snapshots the live node count after
// each window plus the epoch layer's retire/reclaim totals across both.
// With delete-time merges the second window's node count stays level with
// the first (steady state); without them it keeps climbing.
struct SteadyStateReport {
  double mops = 0;  // Mean over both windows.
  size_t nodes_preload = 0;
  size_t nodes_after_first = 0;
  size_t nodes_after_second = 0;
  uint64_t retired_delta = 0;
  uint64_t reclaimed_delta = 0;
};

template <class Tree>
  requires HasNodeCountOp<Tree>
SteadyStateReport RunChurnWindows(Tree& tree, const IndexWorkload& workload) {
  SteadyStateReport report;
  // The retire/reclaim totals are process-global; retirements left pending
  // by earlier rows' trees would count into this row's reclaimed delta.
  // All worker threads have joined by now, so the caller is the only
  // thread inside the epoch layer and an unconditional drain is safe.
  EpochManager::Instance().ReclaimAllUnsafe();
  report.nodes_preload = tree.NodeCount();
  const uint64_t retired0 = EpochManager::Instance().TotalRetired();
  const uint64_t reclaimed0 = EpochManager::Instance().TotalReclaimed();
  const double first = RunIndexBench(tree, workload).MopsPerSec();
  report.nodes_after_first = tree.NodeCount();
  const double second = RunIndexBench(tree, workload).MopsPerSec();
  report.nodes_after_second = tree.NodeCount();
  report.retired_delta = EpochManager::Instance().TotalRetired() - retired0;
  report.reclaimed_delta =
      EpochManager::Instance().TotalReclaimed() - reclaimed0;
  report.mops = (first + second) / 2;
  return report;
}

// Builds a tree, preloads it, then reports Mops/s for every (mix, threads)
// combination through `emit(mix_index, threads_index, result)`.
// An explicit --dist overrides the workload's baked-in distribution. The
// sweeps run single ops only; batched index rows come from ext_batch and
// ext_ycsb --batch.
template <class Tree, class Emit>
void SweepIndex(const BenchFlags& flags, const IndexWorkload& base,
                const std::vector<OpMix>& mixes, const Emit& emit) {
  if (flags.batch > 1) {
    std::fprintf(stderr,
                 "index sweeps run single ops; --batch is read by ext_ycsb "
                 "(batched index rows: ext_batch)\n");
    std::exit(2);
  }
  auto tree = std::make_unique<Tree>();
  IndexWorkload workload = base;
  workload.duration_ms = flags.duration_ms;
  if (flags.dist_given) workload.dist = flags.dist;
  PreloadIndex(*tree, workload);
  for (size_t m = 0; m < mixes.size(); ++m) {
    workload.lookup_pct = mixes[m].lookup_pct;
    workload.update_pct = mixes[m].update_pct;
    workload.insert_pct = 0;
    workload.remove_pct = 0;
    for (size_t t = 0; t < flags.threads.size(); ++t) {
      workload.threads = flags.threads[t];
      emit(m, t, RunIndexBench(*tree, workload));
    }
  }
}

}  // namespace optiql

#endif  // OPTIQL_BENCH_INDEX_BENCH_COMMON_H_
