// Extension: sharded-store contention study. Sweeps shard count × threads
// × skew for the update-only mix (the regime where Fig. 9 shows OptLock's
// contention collapse) over OptiQL, OptLock and MCS-RW B+-trees composed
// through ShardedStore. Hash routing scatters the self-similar hot keys —
// which are *adjacent* and share leaves in a single tree — across shards,
// so rising shard counts flatten the collapse; the sweep quantifies how
// much of each lock's robustness sharding can buy back.
//
// With --json, results are also written as a JSON array (default path
// BENCH_sharded.json): one record per (lock, skew, shards, threads) cell.
#include <string>
#include <vector>

#include "bench_common.h"
#include "index_bench_common.h"
#include "store/sharded_store.h"

namespace optiql {
namespace {

constexpr size_t kShardCounts[] = {1, 4, 16};

struct SkewPoint {
  std::string name;  // The JSON `skew` field.
  KeyDist dist;
};

// The built-in uniform / self-similar contrast; --dist replaces it with
// one point named by its spelling.
std::vector<SkewPoint> SkewPoints(const BenchFlags& flags) {
  if (flags.dist_given) return {{flags.dist.Name(), flags.dist}};
  return {{"uniform", KeyDist::Uniform()},
          {"selfsim-0.2", KeyDist::SelfSimilar(0.2)}};
}

template <class Tree>
void RunLock(const BenchFlags& flags, const char* lock_name,
             JsonBenchWriter* json) {
  for (const SkewPoint& skew : SkewPoints(flags)) {
    std::printf("-- %s, update-only, %s keys --\n", lock_name,
                skew.dist.Name().c_str());
    std::vector<std::string> header = {"shards \\ threads (Mops/s)"};
    for (int t : flags.threads) header.push_back(std::to_string(t));
    TablePrinter table(std::move(header));

    for (size_t shards : kShardCounts) {
      ShardedStore<Tree> store(shards);
      IndexWorkload workload;
      workload.records = flags.records;
      workload.lookup_pct = 0;
      workload.update_pct = 100;
      workload.dist = skew.dist;
      workload.key_space = KeySpace::kDense;
      workload.duration_ms = flags.duration_ms;
      PreloadIndex(store, workload);

      std::vector<std::string> row = {std::to_string(shards)};
      for (int threads : flags.threads) {
        workload.threads = threads;
        const double mops = RunIndexBench(store, workload).MopsPerSec();
        row.push_back(TablePrinter::Fmt(mops));
        if (json != nullptr) {
          json->AddRecord({{"bench", "sharded"},
                           {"lock", lock_name},
                           {"skew", skew.name},
                           {"shards", std::to_string(shards)},
                           {"threads", std::to_string(threads)},
                           {"mops", JsonBenchWriter::Num(mops)}});
        }
      }
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
  PrintBanner("Extension: sharded store, shard count x threads x skew",
              "beyond the paper; partition-aware view of Fig. 9 (§7.3)",
              flags);

  JsonBenchWriter json;
  JsonBenchWriter* sink = flags.json ? &json : nullptr;
  RunLock<BTreeOptiQl>(flags, "OptiQL", sink);
  RunLock<BTreeOptLock>(flags, "OptLock", sink);
  RunLock<BTreeMcsRw>(flags, "MCS-RW", sink);

  if (flags.json) {
    json.WriteFile(flags.json_path.empty() ? "BENCH_sharded.json"
                                           : flags.json_path);
  }
  return 0;
}
