// PiBench-style index benchmark framework (§7.1, §7.3): preload an index
// with N records of 8-byte keys/values, then run a fixed-duration mix of
// lookups/updates/inserts/removes with a configurable key distribution
// (uniform, self-similar or Zipfian; see KeyDist) over a dense or sparse
// key space.
//
// Works with anything satisfying IndexLike (see index/index_ops.h): the
// B+-tree, ART and composites like ShardedStore all run through the
// uniform IndexInsert/IndexUpdate/IndexLookup/IndexRemove surface.
#ifndef OPTIQL_HARNESS_INDEX_BENCH_H_
#define OPTIQL_HARNESS_INDEX_BENCH_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "harness/bench_runner.h"
#include "index/index_ops.h"
#include "workload/distributions.h"
#include "workload/key_generator.h"

namespace optiql {

struct IndexWorkload {
  uint64_t records = 200000;
  // Operation mix in percent; must sum to 100.
  int lookup_pct = 100;
  int update_pct = 0;
  int insert_pct = 0;
  int remove_pct = 0;

  KeyDist dist;  // Which record indexes the ops draw; uniform by default.
  KeySpace key_space = KeySpace::kDense;

  // Fixed-population churn mode: insert and remove arms both target the
  // preloaded key range [0, records) instead of an ever-growing fresh
  // range, so the live population oscillates around the preload. This is
  // the steady-state regime for delete-time merge experiments — without
  // merges the node count grows without bound under such a mix.
  bool fixed_population = false;

  int threads = 4;
  int duration_ms = 200;
  uint32_t latency_sampling = 0;  // 0 = no latency collection.
};

// Named op mixes from §7.3.
struct OpMix {
  const char* name;
  int lookup_pct;
  int update_pct;
};

inline constexpr OpMix kPaperOpMixes[] = {
    {"Read-only", 100, 0},   {"Read-heavy", 80, 20}, {"Balanced", 50, 50},
    {"Write-heavy", 20, 80}, {"Update-only", 0, 100},
};

// Loads `records` keys under the configured key space, bulk-loading when
// the index supports it.
template <IndexLike Tree>
void PreloadIndex(Tree& tree, const IndexWorkload& workload) {
  if constexpr (HasBulkLoadOp<Tree>) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    pairs.reserve(workload.records);
    for (uint64_t i = 0; i < workload.records; ++i) {
      const uint64_t key = MakeKey(i, workload.key_space);
      pairs.emplace_back(key, key + 1);
    }
    std::sort(pairs.begin(), pairs.end());
    tree.BulkLoad(pairs);
    return;
  }
  for (uint64_t i = 0; i < workload.records; ++i) {
    const uint64_t key = MakeKey(i, workload.key_space);
    OPTIQL_CHECK(IndexInsert(tree, key, key + 1));
  }
}

// Runs the configured mix against a preloaded index.
template <IndexLike Tree>
RunResult RunIndexBench(Tree& tree, const IndexWorkload& workload) {
  OPTIQL_CHECK(workload.lookup_pct + workload.update_pct +
                   workload.insert_pct + workload.remove_pct ==
               100);
  RunOptions options;
  options.threads = workload.threads;
  options.duration_ms = workload.duration_ms;
  options.latency_sampling = workload.latency_sampling;

  // Inserts target fresh record indexes beyond the preload; removes target
  // previously inserted ones so the tree size stays roughly stable.
  std::atomic<uint64_t> next_fresh{workload.records};

  const KeySampler sampler(workload.dist, workload.records);

  return RunFixedDuration(options, [&](int tid,
                                       const std::atomic<bool>& stop,
                                       WorkerStats& stats) {
    Xoshiro256 rng(0xABCDULL * 31 + static_cast<uint64_t>(tid));
    const bool sample_latency = workload.latency_sampling > 0;
    uint64_t until_sample = workload.latency_sampling;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t index = sampler.Next(rng);
      const uint64_t key = MakeKey(index, workload.key_space);
      const uint64_t op = rng.NextBounded(100);

      std::chrono::steady_clock::time_point start;
      bool timed = false;
      if (sample_latency && --until_sample == 0) {
        until_sample = workload.latency_sampling;
        start = std::chrono::steady_clock::now();
        timed = true;
      }

      if (op < static_cast<uint64_t>(workload.lookup_pct)) {
        uint64_t out = 0;
        IndexLookup(tree, key, out);
      } else if (op < static_cast<uint64_t>(workload.lookup_pct +
                                            workload.update_pct)) {
        IndexUpdate(tree, key, rng.Next() | 1);
      } else if (op < static_cast<uint64_t>(workload.lookup_pct +
                                            workload.update_pct +
                                            workload.insert_pct)) {
        if (workload.fixed_population) {
          // Re-insert within the preload range; duplicates fail and count
          // as completed ops, keeping the population near `records`.
          IndexInsert(tree, key, index);
        } else {
          const uint64_t fresh =
              next_fresh.fetch_add(1, std::memory_order_relaxed);
          IndexInsert(tree, MakeKey(fresh, workload.key_space), fresh);
        }
      } else if (workload.fixed_population) {
        // Remove within the preload range; misses are fine.
        IndexRemove(tree, key);
      } else {
        // Remove a key inserted by the insert arm (wraps back into the
        // fresh range); misses are fine and counted as completed ops.
        const uint64_t target =
            workload.records +
            rng.NextBounded(
                std::max<uint64_t>(
                    1, next_fresh.load(std::memory_order_relaxed) -
                           workload.records));
        IndexRemove(tree, MakeKey(target, workload.key_space));
      }

      if (timed) {
        const auto elapsed = std::chrono::steady_clock::now() - start;
        stats.latency.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
      }
      ++stats.ops;
    }
  });
}

}  // namespace optiql

#endif  // OPTIQL_HARNESS_INDEX_BENCH_H_
