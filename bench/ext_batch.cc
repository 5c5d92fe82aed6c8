// Extension: batched index execution. Three questions, three
// phases, all over preloaded read paths:
//
//   A. Interleave sweep — how many in-flight descents (G) maximize the
//      memory-level parallelism of one thread's batch? (batch=128,
//      uniform, single thread; G=1 is the amortized-guard singles loop.)
//   B. Batch-size sweep — batched lookups at the phase-A interleave vs
//      the loop-of-singles baseline (per-op epoch guard), uniform and
//      self-similar skew, single thread. The acceptance bar lives here:
//      batch >= 32 must beat singles by >= 1.5x on the B+-tree and ART.
//   C. Sharded dispatch — ShardedStore at 16 shards: per-op routing
//      (guard + route per key) vs LookupBatch (one amortized guard and
//      one interleaved descent across shards: each key is routed once as
//      a lane picks it up, and one lane ring spans every shard's root).
//
// --dist replaces every phase's distribution (phase B runs it alone).
// Emits BENCH_batch.json with --json.
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/bench_runner.h"
#include "harness/index_bench.h"
#include "harness/table_printer.h"
#include "index_bench_common.h"
#include "store/sharded_store.h"

namespace optiql {
namespace {

constexpr size_t kLaneSweep[] = {1, 2, 4, 8, 16, 32};
constexpr size_t kBatchSweep[] = {8, 32, 128};
constexpr size_t kSweepBatch = 128;  // Phase-A batch size.
constexpr size_t kShards = 16;       // Phase-C shard count.

// Dispatches a batched lookup with an explicit interleave factor where the
// index exposes one (the native B+-tree/ART lane paths); everything else —
// including ShardedStore, whose routed lane ring runs at the tree's default
// factor — goes through the uniform IndexLookupBatch surface.
template <class Tree>
size_t BatchLookupWithLanes(const Tree& tree, const uint64_t* keys, size_t n,
                            uint64_t* values, bool* found, size_t lanes) {
  if constexpr (requires {
                  tree.LookupBatchInt(keys, n, values, found, lanes);
                }) {
    return tree.LookupBatchInt(keys, n, values, found, lanes);
  } else if constexpr (requires {
                         tree.LookupBatch(keys, n, values, found, lanes);
                       }) {
    return tree.LookupBatch(keys, n, values, found, lanes);
  } else {
    (void)lanes;
    return IndexLookupBatch(tree, keys, n, values, found);
  }
}

// Fixed-duration read loop. batch == 1 is the loop-of-singles baseline:
// one plain Lookup (own epoch guard, serial descent) per key. batch > 1
// issues whole batches through the batched surface.
template <class Tree>
double RunBatchReads(Tree& tree, const BenchFlags& flags, int threads,
                     const KeyDist& dist, size_t batch, size_t lanes) {
  RunOptions options;
  options.threads = threads;
  options.duration_ms = flags.duration_ms;
  const KeySampler sampler(dist, flags.records);
  const RunResult result = RunFixedDuration(
      options,
      [&](int tid, const std::atomic<bool>& stop, WorkerStats& stats) {
        Xoshiro256 rng(0xBA7C4ULL * 131 + static_cast<uint64_t>(tid));
        std::vector<uint64_t> keys(batch);
        std::vector<uint64_t> values(batch);
        const std::unique_ptr<bool[]> found(new bool[batch]);
        while (!stop.load(std::memory_order_acquire)) {
          for (size_t i = 0; i < batch; ++i) keys[i] = sampler.Next(rng);
          if (batch == 1) {
            uint64_t out = 0;
            IndexLookup(tree, keys[0], out);
          } else {
            BatchLookupWithLanes(tree, keys.data(), batch, values.data(),
                                 found.get(), lanes);
          }
          stats.ops += batch;
        }
      });
  return result.MopsPerSec();
}

template <class Tree>
void SweepTree(const char* name, const BenchFlags& flags,
               JsonBenchWriter& json) {
  auto tree = std::make_unique<Tree>();
  IndexWorkload preload;
  preload.records = flags.records;
  PreloadIndex(*tree, preload);

  // Phase A: interleave sweep.
  const KeyDist sweep_dist = flags.DistOr(KeyDist::Uniform());
  std::printf("-- %s: interleave sweep (batch=%zu, %s keys, 1 thread) --\n",
              name, kSweepBatch, sweep_dist.Name().c_str());
  std::vector<std::string> header = {"G (Mops/s)"};
  for (size_t lanes : kLaneSweep) header.push_back(std::to_string(lanes));
  TablePrinter sweep_table(std::move(header));
  std::vector<std::string> sweep_row = {name};
  size_t best_lanes = 1;
  double best_mops = 0;
  for (size_t lanes : kLaneSweep) {
    const double mops = RunBatchReads(*tree, flags, /*threads=*/1,
                                      sweep_dist, kSweepBatch, lanes);
    json.AddRecord({{"phase", "interleave"},
                    {"index", name},
                    {"batch", JsonBenchWriter::Num(kSweepBatch)},
                    {"lanes", JsonBenchWriter::Num(lanes)},
                    {"mops", JsonBenchWriter::Num(mops)}});
    sweep_row.push_back(TablePrinter::Fmt(mops));
    if (mops > best_mops) {
      best_mops = mops;
      best_lanes = lanes;
    }
  }
  sweep_table.AddRow(std::move(sweep_row));
  sweep_table.Print();
  std::printf("best interleave: G=%zu\n\n", best_lanes);

  // Phase B: batch-size sweep vs the loop-of-singles baseline.
  std::printf("-- %s: batch sweep (G=%zu, 1 thread) --\n", name, best_lanes);
  std::vector<std::string> batch_header = {"dist \\ batch"};
  batch_header.push_back("1 (singles)");
  for (size_t batch : kBatchSweep) {
    batch_header.push_back(std::to_string(batch));
  }
  batch_header.push_back("speedup@128");
  TablePrinter batch_table(std::move(batch_header));
  for (const KeyDist& dist :
       flags.DistsOr({KeyDist::Uniform(), KeyDist::SelfSimilar(0.2)})) {
    const double singles = RunBatchReads(*tree, flags, /*threads=*/1, dist,
                                         /*batch=*/1, /*lanes=*/1);
    json.AddRecord({{"phase", "batch_sweep"},
                    {"index", name},
                    {"dist", dist.Name()},
                    {"batch", "1"},
                    {"lanes", "1"},
                    {"mops", JsonBenchWriter::Num(singles)},
                    {"speedup", "1"}});
    std::vector<std::string> row = {dist.Name()};
    row.push_back(TablePrinter::Fmt(singles));
    double last_speedup = 1;
    for (size_t batch : kBatchSweep) {
      const double mops =
          RunBatchReads(*tree, flags, /*threads=*/1, dist, batch, best_lanes);
      last_speedup = mops / singles;
      json.AddRecord({{"phase", "batch_sweep"},
                      {"index", name},
                      {"dist", dist.Name()},
                      {"batch", JsonBenchWriter::Num(batch)},
                      {"lanes", JsonBenchWriter::Num(best_lanes)},
                      {"mops", JsonBenchWriter::Num(mops)},
                      {"speedup", JsonBenchWriter::Num(mops / singles)}});
      row.push_back(TablePrinter::Fmt(mops));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", last_speedup);
    row.push_back(buf);
    batch_table.AddRow(std::move(row));
  }
  batch_table.Print();
  std::printf("\n");
}

void SweepSharded(const BenchFlags& flags, JsonBenchWriter& json) {
  using Store = ShardedStore<BTreeOptLock>;
  auto store = std::make_unique<Store>(kShards);
  IndexWorkload preload;
  preload.records = flags.records;
  PreloadIndex(*store, preload);

  const KeyDist dist = flags.DistOr(KeyDist::Uniform());
  std::printf("-- ShardedStore<BTreeOptLock>, %zu shards: per-op vs batched "
              "dispatch (%s keys) --\n",
              kShards, dist.Name().c_str());
  std::vector<std::string> header = {"threads", "per-op"};
  for (size_t batch : {size_t{32}, size_t{128}}) {
    header.push_back("batch=" + std::to_string(batch));
  }
  header.push_back("speedup@128");
  TablePrinter table(std::move(header));
  std::vector<int> thread_counts = {1};
  if (flags.MaxThreads() > 1) thread_counts.push_back(flags.MaxThreads());
  for (int threads : thread_counts) {
    const double per_op = RunBatchReads(*store, flags, threads, dist, 1, 1);
    json.AddRecord({{"phase", "sharded"},
                    {"shards", JsonBenchWriter::Num(kShards)},
                    {"threads", JsonBenchWriter::Num(threads)},
                    {"mode", "per_op"},
                    {"batch", "1"},
                    {"mops", JsonBenchWriter::Num(per_op)},
                    {"speedup", "1"}});
    std::vector<std::string> row = {std::to_string(threads)};
    row.push_back(TablePrinter::Fmt(per_op));
    double last_speedup = 1;
    for (size_t batch : {size_t{32}, size_t{128}}) {
      const double mops =
          RunBatchReads(*store, flags, threads, dist, batch, 0);
      last_speedup = mops / per_op;
      json.AddRecord({{"phase", "sharded"},
                      {"shards", JsonBenchWriter::Num(kShards)},
                      {"threads", JsonBenchWriter::Num(threads)},
                      {"mode", "batched"},
                      {"batch", JsonBenchWriter::Num(batch)},
                      {"mops", JsonBenchWriter::Num(mops)},
                      {"speedup", JsonBenchWriter::Num(mops / per_op)}});
      row.push_back(TablePrinter::Fmt(mops));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", last_speedup);
    row.push_back(buf);
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Extension: batched execution (interleaved descents)",
              "AMAC-style multi-descent batches, one ring across shards",
              flags);
  JsonBenchWriter json;
  SweepTree<BTreeOptLock>("btree/OptLock", flags, json);
  SweepTree<BTreeOptiQl>("btree/OptiQL", flags, json);
  SweepTree<ArtOptLock>("art/OptLock", flags, json);
  SweepTree<ArtOptiQl>("art/OptiQL", flags, json);
  SweepSharded(flags, json);
  if (flags.json) {
    const std::string path =
        flags.json_path.empty() ? "BENCH_batch.json" : flags.json_path;
    json.WriteFile(path);
  }
  return 0;
}
