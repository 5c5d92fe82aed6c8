// IndexOps conformance: every index type in the repo — all B+-tree sync
// policies, both ART families, and ShardedStore composites — satisfies
// IndexLike and behaves identically through the uniform
// IndexInsert/IndexUpdate/IndexLookup/IndexRemove/IndexUpsert/IndexScan
// surface. Each type also declares its expected capability profile, so a
// capability silently appearing or disappearing (e.g. a concept no longer
// matching after a signature change) fails here rather than in a bench.
//
// All tests are single-threaded; no TSan exclusion naming is needed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "index/art.h"
#include "index/art_coupling.h"
#include "index/btree.h"
#include "index/index_ops.h"
#include "store/sharded_store.h"

namespace optiql {
namespace {

// One conformance case: the index type plus its expected capabilities.
template <class IndexT, bool kScan, bool kBulkLoad, bool kUpsert,
          bool kNodeCount>
struct Profile {
  using Index = IndexT;
  static constexpr bool kExpectScan = kScan;
  static constexpr bool kExpectBulkLoad = kBulkLoad;
  static constexpr bool kExpectUpsert = kUpsert;
  static constexpr bool kExpectNodeCount = kNodeCount;
};

template <class Policy>
using U64BTree = BTree<uint64_t, uint64_t, Policy>;

// B+-trees: full capability set under every sync policy.
using BTreeOlcCase = Profile<U64BTree<BTreeOlcPolicy>, 1, 1, 1, 1>;
using BTreeOptiQlCase =
    Profile<U64BTree<BTreeOptiQlPolicy<OptiQL>>, 1, 1, 1, 1>;
using BTreeOptiQlNorCase =
    Profile<U64BTree<BTreeOptiQlPolicy<OptiQLNor>>, 1, 1, 1, 1>;
using BTreeOptiQlAorCase =
    Profile<U64BTree<BTreeOptiQlPolicy<OptiQL, /*kAor=*/true>>, 1, 1, 1, 1>;
using BTreePthreadCase =
    Profile<U64BTree<BTreeRwLeafPolicy<SharedMutexLock>>, 1, 1, 1, 1>;
using BTreeMcsRwCase =
    Profile<U64BTree<BTreeRwLeafPolicy<McsRwLock>>, 1, 1, 1, 1>;
// ART: point ops only (via the *Int suffix), no range/bulk/upsert/count.
using ArtOlcCase = Profile<ArtTree<ArtOlcPolicy>, 0, 0, 0, 0>;
using ArtOptiQlCase = Profile<ArtTree<ArtOptiQlPolicy<OptiQL>>, 0, 0, 0, 0>;
using ArtCouplingCase = Profile<ArtCouplingTree<McsRwLock>, 0, 0, 0, 0>;
// Sharded composites inherit Scan/NodeCount from their shard type;
// Upsert and BulkLoad are always present (the store routes through
// IndexUpsert's loop / a checked-insert load when the shard lacks them).
using ShardedBTreeCase =
    Profile<ShardedStore<U64BTree<BTreeOptiQlPolicy<OptiQL>>>, 1, 1, 1, 1>;
using ShardedArtCase = Profile<ShardedStore<ArtTree<ArtOlcPolicy>>, 0, 1, 1, 0>;
// Range-routed store: identical capability surface to the hash-routed one
// (the routing table is invisible to IndexOps consumers).
using ShardedRangeBTreeCase =
    Profile<ShardedStore<U64BTree<BTreeOptiQlPolicy<OptiQL>>,
                         RangeShardRouter>,
            1, 1, 1, 1>;

using ConformanceCases =
    ::testing::Types<BTreeOlcCase, BTreeOptiQlCase, BTreeOptiQlNorCase,
                     BTreeOptiQlAorCase, BTreePthreadCase, BTreeMcsRwCase,
                     ArtOlcCase, ArtOptiQlCase, ArtCouplingCase,
                     ShardedBTreeCase, ShardedArtCase, ShardedRangeBTreeCase>;

struct ProfileNames {
  template <class T>
  static std::string GetName(int) {
    if (std::is_same_v<T, BTreeOlcCase>) return "BTreeOptLock";
    if (std::is_same_v<T, BTreeOptiQlCase>) return "BTreeOptiQl";
    if (std::is_same_v<T, BTreeOptiQlNorCase>) return "BTreeOptiQlNor";
    if (std::is_same_v<T, BTreeOptiQlAorCase>) return "BTreeOptiQlAor";
    if (std::is_same_v<T, BTreePthreadCase>) return "BTreePthread";
    if (std::is_same_v<T, BTreeMcsRwCase>) return "BTreeMcsRw";
    if (std::is_same_v<T, ArtOlcCase>) return "ArtOptLock";
    if (std::is_same_v<T, ArtOptiQlCase>) return "ArtOptiQl";
    if (std::is_same_v<T, ArtCouplingCase>) return "ArtCouplingMcsRw";
    if (std::is_same_v<T, ShardedBTreeCase>) return "ShardedBTreeOptiQl";
    if (std::is_same_v<T, ShardedArtCase>) return "ShardedArtOptLock";
    if (std::is_same_v<T, ShardedRangeBTreeCase>) {
      return "ShardedRangeBTreeOptiQl";
    }
    return "Unknown";
  }
};

template <class T>
class IndexOpsConformanceTest : public ::testing::Test {};
TYPED_TEST_SUITE(IndexOpsConformanceTest, ConformanceCases, ProfileNames);

TYPED_TEST(IndexOpsConformanceTest, CapabilityProfileMatches) {
  using Index = typename TypeParam::Index;
  static_assert(IndexLike<Index>);
  // Exactly one point-op spelling is the dispatch target; both existing at
  // once would be ambiguous by design (suffix wins), which no repo index
  // does today.
  static_assert(HasNativeIntOps<Index> != HasIntSuffixOps<Index>);
  EXPECT_EQ(HasScanOp<Index>, TypeParam::kExpectScan);
  EXPECT_EQ(HasBulkLoadOp<Index>, TypeParam::kExpectBulkLoad);
  EXPECT_EQ(HasUpsertOp<Index>, TypeParam::kExpectUpsert);
  EXPECT_EQ(HasNodeCountOp<Index>, TypeParam::kExpectNodeCount);
  EXPECT_TRUE(HasCheckInvariantsOp<Index>);
}

TYPED_TEST(IndexOpsConformanceTest, UniformOpsRoundTrip) {
  using Index = typename TypeParam::Index;
  Index index;
  constexpr uint64_t kKeys = 512;

  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(IndexInsert(index, k, k * 2));
    ASSERT_FALSE(IndexInsert(index, k, 999));  // Duplicate rejected.
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(IndexLookup(index, k, out));
    ASSERT_EQ(out, k * 2);
  }
  uint64_t out = 0;
  EXPECT_FALSE(IndexLookup(index, kKeys + 1, out));
  EXPECT_TRUE(IndexUpdate(index, 7, 1000));
  EXPECT_FALSE(IndexUpdate(index, kKeys + 1, 1000));  // Absent key.
  ASSERT_TRUE(IndexLookup(index, 7, out));
  EXPECT_EQ(out, 1000u);

  // Upsert both arms: overwrite an existing key, then create a fresh one.
  IndexUpsert(index, 7, 2000);
  ASSERT_TRUE(IndexLookup(index, 7, out));
  EXPECT_EQ(out, 2000u);
  IndexUpsert(index, kKeys + 5, 3000);
  ASSERT_TRUE(IndexLookup(index, kKeys + 5, out));
  EXPECT_EQ(out, 3000u);
  ASSERT_TRUE(IndexRemove(index, kKeys + 5));

  if constexpr (HasScanOp<Index>) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    ASSERT_EQ(IndexScan(index, 10, 20, pairs), 20u);
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(pairs[i].first, 10 + i);
    }
  }

  EXPECT_TRUE(IndexRemove(index, 7));
  EXPECT_FALSE(IndexRemove(index, 7));  // Already gone.
  EXPECT_FALSE(IndexLookup(index, 7, out));
  IndexCheckInvariants(index);
}

TYPED_TEST(IndexOpsConformanceTest, BulkLoadWhenSupported) {
  using Index = typename TypeParam::Index;
  if constexpr (HasBulkLoadOp<Index>) {
    Index index;
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (uint64_t k = 0; k < 2000; ++k) pairs.emplace_back(k, k + 1);
    index.BulkLoad(pairs);
    for (uint64_t k = 0; k < 2000; k += 37) {
      uint64_t found = 0;
      ASSERT_TRUE(IndexLookup(index, k, found));
      ASSERT_EQ(found, k + 1);
    }
    IndexCheckInvariants(index);
  }
}

}  // namespace
}  // namespace optiql
