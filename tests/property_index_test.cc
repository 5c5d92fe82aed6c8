// Parameterized property sweeps over the indexes (TEST_P): the same
// randomized oracle fuzz runs across a grid of (seed, key-space size,
// key-space shape, operation mix), for the OptiQL B+-tree and both ART
// variants. Every run must agree with std::map exactly and end with intact
// structural invariants.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "index/art.h"
#include "index/art_coupling.h"
#include "index/btree.h"

namespace optiql {
namespace {

struct FuzzParam {
  uint64_t seed;
  uint64_t key_space;
  bool sparse;
  int insert_weight;  // Out of 10; remainder split between remove/lookup.
  int ops;
};

std::string FuzzName(const ::testing::TestParamInfo<FuzzParam>& info) {
  return "s" + std::to_string(info.param.seed) + "_k" +
         std::to_string(info.param.key_space) +
         (info.param.sparse ? "_sparse" : "_dense") + "_w" +
         std::to_string(info.param.insert_weight);
}

class IndexFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

template <class Tree, class InsertFn, class RemoveFn, class LookupFn,
          class UpdateFn>
void RunFuzz(const FuzzParam& param, Tree& tree, const InsertFn& do_insert,
             const RemoveFn& do_remove, const LookupFn& do_lookup,
             const UpdateFn& do_update) {
  std::map<uint64_t, uint64_t> oracle;
  Xoshiro256 rng(param.seed);
  for (int i = 0; i < param.ops; ++i) {
    uint64_t key = rng.NextBounded(param.key_space);
    if (param.sparse) key = ScrambleKey(key);
    const uint64_t value = rng.Next() | 1;
    const int roll = static_cast<int>(rng.NextBounded(10));
    if (roll < param.insert_weight) {
      ASSERT_EQ(do_insert(tree, key, value),
                oracle.emplace(key, value).second);
    } else if (roll < param.insert_weight + 2) {
      ASSERT_EQ(do_remove(tree, key), oracle.erase(key) == 1);
    } else if (roll < param.insert_weight + 4) {
      auto it = oracle.find(key);
      ASSERT_EQ(do_update(tree, key, value), it != oracle.end());
      if (it != oracle.end()) it->second = value;
    } else {
      uint64_t out = 0;
      auto it = oracle.find(key);
      ASSERT_EQ(do_lookup(tree, key, out), it != oracle.end());
      if (it != oracle.end()) {
        ASSERT_EQ(out, it->second);
      }
    }
  }
  ASSERT_EQ(tree.Size(), oracle.size());
  tree.CheckInvariants();
  for (const auto& [key, value] : oracle) {
    uint64_t out = 0;
    ASSERT_TRUE(do_lookup(tree, key, out));
    ASSERT_EQ(out, value);
  }
}

TEST_P(IndexFuzzTest, BTreeOptiQlMatchesOracle) {
  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  RunFuzz(
      GetParam(), tree,
      [](auto& t, uint64_t k, uint64_t v) { return t.Insert(k, v); },
      [](auto& t, uint64_t k) { return t.Remove(k); },
      [](auto& t, uint64_t k, uint64_t& out) { return t.Lookup(k, out); },
      [](auto& t, uint64_t k, uint64_t v) { return t.Update(k, v); });
}

TEST_P(IndexFuzzTest, BTreeRwLeafMatchesOracle) {
  BTree<uint64_t, uint64_t, BTreeRwLeafPolicy<McsRwLock>> tree;
  RunFuzz(
      GetParam(), tree,
      [](auto& t, uint64_t k, uint64_t v) { return t.Insert(k, v); },
      [](auto& t, uint64_t k) { return t.Remove(k); },
      [](auto& t, uint64_t k, uint64_t& out) { return t.Lookup(k, out); },
      [](auto& t, uint64_t k, uint64_t v) { return t.Update(k, v); });
}

TEST_P(IndexFuzzTest, ArtOptiQlMatchesOracle) {
  ArtTree<ArtOptiQlPolicy<OptiQL>> tree;
  RunFuzz(
      GetParam(), tree,
      [](auto& t, uint64_t k, uint64_t v) { return t.InsertInt(k, v); },
      [](auto& t, uint64_t k) { return t.RemoveInt(k); },
      [](auto& t, uint64_t k, uint64_t& out) { return t.LookupInt(k, out); },
      [](auto& t, uint64_t k, uint64_t v) { return t.UpdateInt(k, v); });
}

TEST_P(IndexFuzzTest, ArtCouplingMatchesOracle) {
  ArtCouplingTree<McsRwLock> tree;
  RunFuzz(
      GetParam(), tree,
      [](auto& t, uint64_t k, uint64_t v) { return t.InsertInt(k, v); },
      [](auto& t, uint64_t k) { return t.RemoveInt(k); },
      [](auto& t, uint64_t k, uint64_t& out) { return t.LookupInt(k, out); },
      [](auto& t, uint64_t k, uint64_t v) { return t.UpdateInt(k, v); });
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IndexFuzzTest,
    ::testing::Values(
        FuzzParam{1, 100, false, 5, 6000},    // Tiny hot space, dense.
        FuzzParam{2, 100, true, 5, 6000},     // Tiny hot space, sparse.
        FuzzParam{3, 5000, false, 6, 8000},   // Mid, insert-leaning.
        FuzzParam{4, 5000, true, 6, 8000},
        FuzzParam{5, 100000, false, 8, 8000},  // Wide, growth-heavy.
        FuzzParam{6, 100000, true, 8, 8000},
        FuzzParam{7, 64, false, 2, 6000},      // Churn-heavy on few keys.
        FuzzParam{8, 64, true, 2, 6000}),
    FuzzName);

}  // namespace
}  // namespace optiql
