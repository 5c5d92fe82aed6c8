// Google-benchmark micro costs (supplementary to §5.4's overhead
// discussion): uncontended acquire/release cycles per lock, optimistic read
// snapshot+validate cost, queue-node ID translation (the §6.3 indirection),
// and index point-operation costs.
#include <benchmark/benchmark.h>

#include "index/art.h"
#include "index/btree.h"
#include "qnode/qnode_pool.h"
#include "sync/txn_ops.h"

namespace optiql {
namespace {

template <class Lock>
void BM_UncontendedAcquireRelease(benchmark::State& state) {
  using Ops = TxnOps<Lock>;
  Lock lock;
  for (auto _ : state) {
    Ops::UnlockEx(lock, Ops::LockEx(lock, /*slot=*/0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, TtsLock);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, OptLock);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, McsLock);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, McsRwLock);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, OptiQLNor);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, OptiQL);
BENCHMARK_TEMPLATE(BM_UncontendedAcquireRelease, SharedMutexLock);

template <class Lock>
void BM_OptimisticReadSnapshotValidate(benchmark::State& state) {
  using Ops = TxnOps<Lock>;
  Lock lock;
  for (auto _ : state) {
    uint64_t v;
    benchmark::DoNotOptimize(Ops::StableVersion(lock, v));
    benchmark::DoNotOptimize(Ops::ValidateVersion(lock, v));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_OptimisticReadSnapshotValidate, OptLock);
BENCHMARK_TEMPLATE(BM_OptimisticReadSnapshotValidate, OptiQL);
BENCHMARK_TEMPLATE(BM_OptimisticReadSnapshotValidate, OptiQLNor);

// Ablation: the cost of the §6.3 queue-node ID <-> pointer indirection.
void BM_QNodeIdTranslation(benchmark::State& state) {
  QNodePool& pool = QNodePool::Instance();
  QNode* node = ThreadQNodes::Get(0);
  const uint32_t id = pool.ToId(node);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.ToPtr(id));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QNodeIdTranslation);

void BM_QNodeRawPointerBaseline(benchmark::State& state) {
  QNode* node = ThreadQNodes::Get(0);
  QNode* volatile slot = node;  // Simulate a pointer-carrying lock word.
  for (auto _ : state) {
    benchmark::DoNotOptimize(slot);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_QNodeRawPointerBaseline);

// Single-threaded index point-operation costs.
template <class Tree>
void BM_BTreeLookupHit(benchmark::State& state) {
  static Tree* tree = [] {
    auto* t = new Tree();
    for (uint64_t k = 0; k < 100000; ++k) t->Insert(k, k);
    return t;
  }();
  uint64_t key = 0;
  for (auto _ : state) {
    uint64_t out;
    benchmark::DoNotOptimize(tree->Lookup(key, out));
    key = (key + 7919) % 100000;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_BTreeLookupHit,
                   BTree<uint64_t, uint64_t, BTreeOlcPolicy>);
BENCHMARK_TEMPLATE(BM_BTreeLookupHit,
                   BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>);

template <class Tree>
void BM_BTreeUpdate(benchmark::State& state) {
  static Tree* tree = [] {
    auto* t = new Tree();
    for (uint64_t k = 0; k < 100000; ++k) t->Insert(k, k);
    return t;
  }();
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Update(key, key + 1));
    key = (key + 7919) % 100000;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_BTreeUpdate,
                   BTree<uint64_t, uint64_t, BTreeOlcPolicy>);
BENCHMARK_TEMPLATE(BM_BTreeUpdate,
                   BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>);

template <class Tree>
void BM_ArtLookupHit(benchmark::State& state) {
  static Tree* tree = [] {
    auto* t = new Tree();
    for (uint64_t k = 0; k < 100000; ++k) t->InsertInt(k, k);
    return t;
  }();
  uint64_t key = 0;
  for (auto _ : state) {
    uint64_t out;
    benchmark::DoNotOptimize(tree->LookupInt(key, out));
    key = (key + 7919) % 100000;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_TEMPLATE(BM_ArtLookupHit, ArtTree<ArtOlcPolicy>);
BENCHMARK_TEMPLATE(BM_ArtLookupHit, ArtTree<ArtOptiQlPolicy<OptiQL>>);

}  // namespace
}  // namespace optiql

BENCHMARK_MAIN();
