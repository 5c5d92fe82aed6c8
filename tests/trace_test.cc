// Trace generation, (de)serialization round-trips, and multithreaded
// replay against the B+-tree and ART (with a single-threaded oracle).
#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "index/art.h"
#include "index/btree.h"
#include "map_index.h"
#include "workload/trace_replay.h"

namespace optiql {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceTest, GenerateRespectsSizeAndKeySpace) {
  TraceConfig config;
  config.operations = 5000;
  config.key_space = 128;
  const Trace trace = Trace::Generate(config);
  ASSERT_EQ(trace.size(), 5000u);
  for (const TraceOp& op : trace.ops()) {
    EXPECT_LT(op.key, 128u);
  }
}

TEST(TraceTest, GenerateIsDeterministicPerSeed) {
  TraceConfig config;
  config.operations = 1000;
  EXPECT_EQ(Trace::Generate(config), Trace::Generate(config));
  TraceConfig other = config;
  other.seed = 43;
  EXPECT_FALSE(Trace::Generate(config) == Trace::Generate(other));
}

TEST(TraceTest, MixProportionsApproximatelyHold) {
  TraceConfig config;
  config.operations = 50000;
  config.lookup_pct = 60;
  config.insert_pct = 20;
  config.update_pct = 10;
  config.remove_pct = 5;  // Remaining 5% scans.
  const Trace trace = Trace::Generate(config);
  uint64_t counts[5] = {};
  for (const TraceOp& op : trace.ops()) {
    ++counts[static_cast<int>(op.kind)];
  }
  EXPECT_NEAR(counts[0] / 50000.0, 0.60, 0.02);  // Lookup.
  EXPECT_NEAR(counts[1] / 50000.0, 0.20, 0.02);  // Insert.
  EXPECT_NEAR(counts[2] / 50000.0, 0.10, 0.02);  // Update.
  EXPECT_NEAR(counts[3] / 50000.0, 0.05, 0.02);  // Remove.
  EXPECT_NEAR(counts[4] / 50000.0, 0.05, 0.02);  // Scan.
}

TEST(TraceTest, SkewedTraceConcentratesKeys) {
  TraceConfig config;
  config.operations = 20000;
  config.key_space = 10000;
  config.dist = KeyDist::SelfSimilar(0.2);
  const Trace trace = Trace::Generate(config);
  uint64_t hot = 0;
  for (const TraceOp& op : trace.ops()) {
    if (op.key < 2000) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / 20000.0, 0.8, 0.03);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  TraceConfig config;
  config.operations = 2000;
  config.max_scan_len = 50;
  const Trace original = Trace::Generate(config);
  const std::string path = TempPath("roundtrip.trace");
  ASSERT_TRUE(original.SaveTo(path));
  Trace loaded;
  ASSERT_TRUE(Trace::LoadFrom(path, &loaded));
  EXPECT_EQ(original, loaded);
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsMissingFileAndGarbage) {
  Trace out;
  EXPECT_FALSE(Trace::LoadFrom("/nonexistent/path.trace", &out));
  const std::string path = TempPath("garbage.trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# header ok\nX 12 34\n", f);
  std::fclose(f);
  EXPECT_FALSE(Trace::LoadFrom(path, &out));
  std::remove(path.c_str());
}

TEST(TraceTest, LoadSkipsCommentsAndBlankLines) {
  const std::string path = TempPath("comments.trace");
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# comment\n\nL 7\nI 8 9\n# trailing\n", f);
  std::fclose(f);
  Trace out;
  ASSERT_TRUE(Trace::LoadFrom(path, &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.ops()[0].kind, TraceOp::Kind::kLookup);
  EXPECT_EQ(out.ops()[1].value, 9u);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, SingleThreadReplayMatchesOracle) {
  TraceConfig config;
  config.operations = 8000;
  config.key_space = 300;
  config.insert_pct = 25;
  config.remove_pct = 15;
  config.lookup_pct = 40;
  config.update_pct = 15;
  const Trace trace = Trace::Generate(config);

  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  std::map<uint64_t, uint64_t> oracle;
  // Oracle replay.
  uint64_t oracle_hits = 0, oracle_inserts = 0, oracle_removes = 0;
  for (const TraceOp& op : trace.ops()) {
    switch (op.kind) {
      case TraceOp::Kind::kLookup:
        if (oracle.count(op.key)) ++oracle_hits;
        break;
      case TraceOp::Kind::kInsert:
        if (oracle.emplace(op.key, op.value).second) ++oracle_inserts;
        break;
      case TraceOp::Kind::kUpdate: {
        auto it = oracle.find(op.key);
        if (it != oracle.end()) it->second = op.value;
        break;
      }
      case TraceOp::Kind::kRemove:
        if (oracle.erase(op.key)) ++oracle_removes;
        break;
      case TraceOp::Kind::kScan:
        break;
    }
  }
  const ReplayResult result = ReplayTrace(tree, trace, /*threads=*/1);
  EXPECT_EQ(result.lookup_hits, oracle_hits);
  EXPECT_EQ(result.insert_ok, oracle_inserts);
  EXPECT_EQ(result.remove_ok, oracle_removes);
  EXPECT_EQ(tree.Size(), oracle.size());
  tree.CheckInvariants();
}

TEST(TraceReplayTest, MultithreadedReplayPreservesTotals) {
  TraceConfig config;
  config.operations = 10000;
  config.key_space = 100000;  // Wide space: inserts rarely collide.
  config.lookup_pct = 50;
  config.insert_pct = 50;
  config.update_pct = 0;
  config.remove_pct = 0;
  config.max_scan_len = 1;
  const Trace trace = Trace::Generate(config);

  BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>> tree;
  const ReplayResult result = ReplayTrace(tree, trace, /*threads=*/4);
  EXPECT_EQ(result.TotalOps(), trace.size());
  // Every distinct inserted key must be present exactly once.
  EXPECT_EQ(tree.Size(), result.insert_ok);
  tree.CheckInvariants();
}

// Key-hash partitioning must preserve per-key program order: each key is
// owned by exactly one thread, which walks the trace in order. A trace of
// insert-then-updates per key therefore ends with the LAST update's value
// for every key — a guarantee round-robin replay cannot make. Runs over
// the pessimistically locked MapIndex, so (unlike the Multithreaded*
// suites above) it stays IN the TSan run and validates the partitioning's
// own thread handoff.
TEST(TraceReplayTest, KeyPartitionPreservesPerKeyOrderConcurrent) {
  constexpr uint64_t kKeys = 400;
  constexpr uint64_t kUpdateWaves = 5;
  std::vector<TraceOp> ops;
  for (uint64_t k = 0; k < kKeys; ++k) {
    ops.push_back({TraceOp::Kind::kInsert, k, 0});
  }
  for (uint64_t wave = 1; wave <= kUpdateWaves; ++wave) {
    for (uint64_t k = 0; k < kKeys; ++k) {
      ops.push_back({TraceOp::Kind::kUpdate, k, wave});
    }
  }
  const Trace trace(std::move(ops));

  MapIndex tree;
  ReplayOptions options;
  options.threads = 4;
  options.partition_by_key = true;
  const ReplayResult result = ReplayTrace(tree, trace, options);
  EXPECT_EQ(result.TotalOps(), trace.size());
  EXPECT_EQ(result.insert_ok, kKeys);
  EXPECT_EQ(result.update_ok, kKeys * kUpdateWaves);
  for (uint64_t k = 0; k < kKeys; ++k) {
    uint64_t out = 0;
    ASSERT_TRUE(tree.Lookup(k, out));
    ASSERT_EQ(out, kUpdateWaves) << "key " << k;
  }
  tree.CheckInvariants();
}

// Every op is replayed exactly once under key partitioning — no op is
// dropped or double-counted when the per-thread hash filters tile the
// keyspace.
TEST(TraceReplayTest, KeyPartitionCoversEveryOpOnceConcurrent) {
  TraceConfig config;
  config.operations = 10000;
  config.key_space = 100000;
  config.lookup_pct = 50;
  config.insert_pct = 50;
  config.update_pct = 0;
  config.remove_pct = 0;
  const Trace trace = Trace::Generate(config);

  MapIndex tree;
  ReplayOptions options;
  options.threads = 3;  // Not a power of two: catches modulo slips.
  options.partition_by_key = true;
  const ReplayResult result = ReplayTrace(tree, trace, options);
  EXPECT_EQ(result.TotalOps(), trace.size());
  EXPECT_EQ(tree.Size(), result.insert_ok);

  // Both partitionings agree with the single-threaded result on the
  // deterministic totals (wide keyspace: insert successes don't race).
  MapIndex serial;
  const ReplayResult expect = ReplayTrace(serial, trace, /*threads=*/1);
  EXPECT_EQ(result.insert_ok, expect.insert_ok);
  EXPECT_EQ(result.lookups, expect.lookups);
  tree.CheckInvariants();
}

TEST(TraceReplayTest, MultithreadedArtReplayTreatsScansAsLookups) {
  TraceConfig config;
  config.operations = 4000;
  config.key_space = 500;
  config.lookup_pct = 30;
  config.insert_pct = 40;
  config.update_pct = 10;
  config.remove_pct = 10;  // 10% scans.
  const Trace trace = Trace::Generate(config);
  ArtTree<ArtOptiQlPolicy<OptiQL>> tree;
  const ReplayResult result = ReplayTrace(tree, trace, /*threads=*/2);
  EXPECT_EQ(result.TotalOps(), trace.size());
  EXPECT_GT(result.scans, 0u);
  EXPECT_EQ(result.scanned_pairs, 0u);  // No range support.
  tree.CheckInvariants();
}

}  // namespace
}  // namespace optiql
