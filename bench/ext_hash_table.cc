// Extension: OptiQL beyond hierarchical indexes (paper §1.2 "OptiQL itself
// is general-purpose"). A per-bucket-locked hash table isolates the bucket
// lock completely — no coupling, no upgrades — so the robustness gap
// between centralized and queue-based bucket locks is maximally visible on
// skewed (hot-bucket) workloads.
//
// The hot-bucket rows preload at the provisioned row's load factor
// (ceil(records / kProvisionedBuckets) entries per bucket), so only the
// number of bucket locks differs between the hot and provisioned rows, not
// the chain length an op walks.
#include "bench_common.h"
#include "harness/index_bench.h"
#include "harness/table_printer.h"
#include "index/hash_table.h"

namespace optiql {
namespace {

constexpr size_t kHotBuckets = 16;
constexpr size_t kProvisionedBuckets = size_t{1} << 16;
const KeyDist kBuiltinDist = KeyDist::SelfSimilar(0.2);

template <class Table>
void RunRow(const BenchFlags& flags, const char* name, int lookup_pct,
            size_t buckets, uint64_t records, TablePrinter& out) {
  Table table(buckets);
  IndexWorkload workload;
  workload.records = records;
  workload.lookup_pct = lookup_pct;
  workload.update_pct = 100 - lookup_pct;
  workload.dist = flags.DistOr(kBuiltinDist);
  workload.duration_ms = flags.duration_ms;
  PreloadIndex(table, workload);
  std::vector<std::string> row = {name};
  for (int threads : flags.threads) {
    workload.threads = threads;
    row.push_back(
        TablePrinter::Fmt(RunIndexBench(table, workload).MopsPerSec()));
  }
  out.AddRow(std::move(row));
}

void RunMix(const BenchFlags& flags, const char* title, int lookup_pct,
            size_t buckets) {
  const uint64_t per_bucket =
      (flags.records + kProvisionedBuckets - 1) / kProvisionedBuckets;
  const uint64_t records =
      buckets == kProvisionedBuckets ? flags.records : buckets * per_bucket;
  std::printf("-- %s (%zu buckets, %llu records, %s keys) --\n", title,
              buckets, static_cast<unsigned long long>(records),
              flags.DistOr(kBuiltinDist).Name().c_str());
  std::vector<std::string> header = {"bucket lock \\ threads (Mops/s)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));
  TablePrinter table(std::move(header));
  RunRow<HashTable<HashOlcPolicy>>(flags, "OptLock", lookup_pct, buckets,
                                   records, table);
  RunRow<HashTable<HashOptiQlPolicy<OptiQLNor>>>(
      flags, "OptiQL-NOR", lookup_pct, buckets, records, table);
  RunRow<HashTable<HashOptiQlPolicy<OptiQL>>>(flags, "OptiQL", lookup_pct,
                                              buckets, records, table);
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Extension: hash table with per-bucket locks",
              "paper §1.2 (generality beyond indexing)", flags);
  // Few buckets = extreme per-lock contention; many = low contention.
  RunMix(flags, "Update-only, hot buckets", 0, kHotBuckets);
  RunMix(flags, "Balanced, hot buckets", 50, kHotBuckets);
  RunMix(flags, "Balanced, provisioned buckets", 50, kProvisionedBuckets);
  return 0;
}
