// Trace workbench: generate a reproducible workload trace, save it, reload
// it, and replay it against both index families with the same op sequence —
// an apples-to-apples comparison that closed-loop benchmarks cannot give.
//
// Build & run:  ./build/examples/trace_replay_tool [ops] [threads]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "index/art.h"
#include "index/btree.h"
#include "store/sharded_store.h"
#include "workload/trace.h"
#include "workload/trace_replay.h"

namespace {

using optiql::ReplayResult;
using optiql::ReplayTrace;
using optiql::Trace;
using optiql::TraceConfig;

void PrintResult(const char* index_name, const ReplayResult& result) {
  std::printf("  %-22s %8.2f Mops/s | lookups %llu (%.1f%% hit) | "
              "inserts %llu | updates %llu | removes %llu | scans %llu "
              "(%llu pairs)\n",
              index_name, result.MopsPerSec(),
              static_cast<unsigned long long>(result.lookups),
              result.lookups == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(result.lookup_hits) /
                        static_cast<double>(result.lookups),
              static_cast<unsigned long long>(result.inserts),
              static_cast<unsigned long long>(result.updates),
              static_cast<unsigned long long>(result.removes),
              static_cast<unsigned long long>(result.scans),
              static_cast<unsigned long long>(result.scanned_pairs));
}

}  // namespace

int main(int argc, char** argv) {
  const uint64_t ops = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                : 500000;
  const int threads = argc > 2 ? std::atoi(argv[2]) : 4;

  std::printf("trace_replay_tool: %llu ops, %d replay threads\n\n",
              static_cast<unsigned long long>(ops), threads);

  TraceConfig config;
  config.operations = ops;
  config.key_space = 200000;
  config.lookup_pct = 55;
  config.insert_pct = 20;
  config.update_pct = 15;
  config.remove_pct = 5;  // Remaining 5%: scans.
  config.dist = optiql::KeyDist::SelfSimilar(0.2);  // 80/20 hotspots.

  std::printf("[1] Generating skewed trace (self-similar 0.2)...\n");
  const Trace trace = Trace::Generate(config);

  const std::string path = "/tmp/optiql_example.trace";
  std::printf("[2] Persist + reload round-trip via %s...\n", path.c_str());
  Trace reloaded;
  if (!trace.SaveTo(path) || !Trace::LoadFrom(path, &reloaded) ||
      !(reloaded == trace)) {
    std::printf("    trace round-trip FAILED\n");
    return 1;
  }
  std::printf("    ok (%zu ops)\n", reloaded.size());

  std::printf("[3] Replaying the identical trace against each index:\n");
  {
    optiql::BTree<uint64_t, uint64_t,
                  optiql::BTreeOptiQlPolicy<optiql::OptiQL>>
        tree;
    PrintResult("B+-tree (OptiQL)", ReplayTrace(tree, reloaded, threads));
    tree.CheckInvariants();
  }
  {
    optiql::BTree<uint64_t, uint64_t, optiql::BTreeOlcPolicy> tree;
    PrintResult("B+-tree (OptLock)", ReplayTrace(tree, reloaded, threads));
    tree.CheckInvariants();
  }
  {
    optiql::ArtTree<optiql::ArtOptiQlPolicy<optiql::OptiQL>> tree;
    PrintResult("ART (OptiQL)", ReplayTrace(tree, reloaded, threads));
    tree.CheckInvariants();
  }
  // The sharded store satisfies the same IndexOps surface, so the very
  // same replay drives it unchanged — once with the default round-robin
  // partitioning, once with key-hash partitioning (threads own disjoint
  // key sets and, since shards use the same hash family, whole shards).
  {
    optiql::ShardedStore<
        optiql::BTree<uint64_t, uint64_t,
                      optiql::BTreeOptiQlPolicy<optiql::OptiQL>>>
        store(static_cast<size_t>(threads));
    PrintResult("Sharded B+ (rrobin)",
                ReplayTrace(store, reloaded, threads));
    store.CheckInvariants();
  }
  {
    optiql::ShardedStore<
        optiql::BTree<uint64_t, uint64_t,
                      optiql::BTreeOptiQlPolicy<optiql::OptiQL>>>
        store(static_cast<size_t>(threads));
    optiql::ReplayOptions options;
    options.threads = threads;
    options.partition_by_key = true;
    PrintResult("Sharded B+ (by-key)",
                ReplayTrace(store, reloaded, options));
    store.CheckInvariants();
  }

  std::remove(path.c_str());
  std::printf("\nAll replays structurally verified.\n");
  return 0;
}
