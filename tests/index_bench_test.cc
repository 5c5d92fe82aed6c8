// Index benchmark framework behaviour: preload (incl. bulk-load fast
// path), insert/remove arms, latency sampling, and the named paper mixes.
#include <gtest/gtest.h>

#include "harness/index_bench.h"
#include "index/art.h"
#include "index/btree.h"

namespace optiql {
namespace {

TEST(IndexBenchPreloadTest, BulkLoadFastPathMatchesInsertPath) {
  IndexWorkload workload;
  workload.records = 5000;
  // B+-tree takes the bulk-load path...
  BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
  PreloadIndex(tree, workload);
  EXPECT_EQ(tree.Size(), workload.records);
  tree.CheckInvariants();
  // ...ART takes the per-insert path; contents must agree.
  ArtTree<ArtOlcPolicy> art;
  PreloadIndex(art, workload);
  EXPECT_EQ(art.Size(), workload.records);
  for (uint64_t i = 0; i < workload.records; i += 97) {
    uint64_t a = 0, b = 0;
    ASSERT_TRUE(tree.Lookup(i, a));
    ASSERT_TRUE(art.LookupInt(i, b));
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, i + 1);
  }
}

TEST(IndexBenchPreloadTest, SparseKeySpacePreloads) {
  IndexWorkload workload;
  workload.records = 3000;
  workload.key_space = KeySpace::kSparse;
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  PreloadIndex(tree, workload);
  EXPECT_EQ(tree.Size(), workload.records);
  tree.CheckInvariants();
  uint64_t out = 0;
  ASSERT_TRUE(tree.Lookup(ScrambleKey(0), out));
  EXPECT_EQ(out, ScrambleKey(0) + 1);
}

TEST(IndexBenchRunTest, InsertAndRemoveArmsKeepTreeHealthy) {
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  IndexWorkload workload;
  workload.records = 2000;
  workload.lookup_pct = 20;
  workload.update_pct = 20;
  workload.insert_pct = 40;
  workload.remove_pct = 20;
  workload.threads = 3;
  workload.duration_ms = 80;
  PreloadIndex(tree, workload);
  const RunResult result = RunIndexBench(tree, workload);
  EXPECT_GT(result.TotalOps(), 0u);
  // Inserts outnumber removes 2:1 in expectation, so the tree grew.
  EXPECT_GT(tree.Size(), workload.records);
  tree.CheckInvariants();
}

TEST(IndexBenchRunTest, PaperMixesAreWellFormed) {
  int seen = 0;
  for (const OpMix& mix : kPaperOpMixes) {
    EXPECT_EQ(mix.lookup_pct + mix.update_pct, 100) << mix.name;
    ++seen;
  }
  EXPECT_EQ(seen, 5);  // Read-only .. Update-only (§7.3).
}

TEST(IndexBenchRunTest, SelfSimilarWorkloadHitsHotKeys) {
  // Under either skewed distribution the run should touch low keys far
  // more than high ones. Verified indirectly: updates with distinctive
  // values land mostly on the hot range.
  for (const KeyDist& dist :
       {KeyDist::SelfSimilar(0.2), KeyDist::Zipfian(0.9)}) {
    SCOPED_TRACE(dist.Name());
    BTree<uint64_t, uint64_t, BTreeOlcPolicy> tree;
    IndexWorkload workload;
    workload.records = 300000;  // Far more keys than the run can touch.
    workload.lookup_pct = 0;
    workload.update_pct = 100;
    workload.dist = dist;
    workload.threads = 1;
    workload.duration_ms = 30;
    PreloadIndex(tree, workload);
    RunIndexBench(tree, workload);
    // Preloaded values were key+1 (even for even keys); updates write odd
    // values (rng.Next() | 1). Count updated keys per half.
    int updated_low = 0, updated_high = 0;
    for (uint64_t k = 0; k < workload.records; ++k) {
      uint64_t out = 0;
      ASSERT_TRUE(tree.Lookup(k, out));
      if (out != k + 1) {
        (k < workload.records / 2 ? updated_low : updated_high) += 1;
      }
    }
    EXPECT_GT(updated_low, updated_high * 2);
  }
}

}  // namespace
}  // namespace optiql
