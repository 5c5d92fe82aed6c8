// Extension: YCSB core workloads A–F on the B+-tree, OptLock vs OptiQL.
// The paper evaluates PiBench-style fixed mixes; YCSB adds the
// industry-standard mixes including scans (E) and read-modify-write (F),
// with Zipfian and latest-biased request distributions. Everything shared
// comes from bench_common.h (mix tables, --dist parsing), the workload
// layer's KeySampler and the uniform index surface (PreloadIndex +
// IndexLookup/... dispatch);
// --batch=N adds rows that issue the read arm through IndexLookupBatch,
// so YCSB-C doubles as a demo of the batched read path.
#include <memory>
#include <vector>

#include "bench_common.h"
#include "harness/bench_runner.h"
#include "harness/index_bench.h"
#include "harness/table_printer.h"
#include "index_bench_common.h"

namespace optiql {
namespace {

// YCSB's default request skew; --dist replaces it for the whole sweep.
const KeyDist kYcsbDist = KeyDist::Zipfian(0.99);

template <class Tree>
double RunYcsb(const BenchFlags& flags, const YcsbWorkload& workload,
               int threads, int batch) {
  auto tree = std::make_unique<Tree>();
  IndexWorkload preload;
  preload.records = flags.records;
  PreloadIndex(*tree, preload);
  std::atomic<uint64_t> next_insert{flags.records};

  RunOptions options;
  options.threads = threads;
  options.duration_ms = flags.duration_ms;
  const KeySampler sampler(flags.DistOr(kYcsbDist), flags.records);
  const size_t read_batch = batch > 1 ? static_cast<size_t>(batch) : 1;

  const RunResult result = RunFixedDuration(
      options,
      [&](int tid, const std::atomic<bool>& stop, WorkerStats& stats) {
        Xoshiro256 rng(0x9c5bULL * 271 + static_cast<uint64_t>(tid));
        std::vector<std::pair<uint64_t, uint64_t>> scan_buffer;
        std::vector<uint64_t> keys(read_batch);
        std::vector<uint64_t> values(read_batch);
        const std::unique_ptr<bool[]> found(new bool[read_batch]);
        const auto draw = [&]() -> uint64_t {
          if (workload.latest) {
            // "Latest": skew rank 0 = the newest inserted key.
            const uint64_t limit =
                next_insert.load(std::memory_order_relaxed);
            const uint64_t back = sampler.Next(rng) % limit;
            return limit - 1 - back;
          }
          return sampler.Next(rng);
        };
        while (!stop.load(std::memory_order_acquire)) {
          const uint64_t key = draw();
          const uint64_t roll = rng.NextBounded(100);
          if (roll < static_cast<uint64_t>(workload.read_pct)) {
            if (read_batch > 1) {
              keys[0] = key;
              for (size_t i = 1; i < read_batch; ++i) keys[i] = draw();
              IndexLookupBatch(*tree, keys.data(), read_batch,
                               values.data(), found.get());
              stats.ops += read_batch - 1;  // +1 at the loop bottom.
            } else {
              uint64_t out = 0;
              IndexLookup(*tree, key, out);
            }
          } else if (roll < static_cast<uint64_t>(workload.read_pct +
                                                  workload.update_pct)) {
            IndexUpdate(*tree, key, rng.Next());
          } else if (roll <
                     static_cast<uint64_t>(workload.read_pct +
                                           workload.update_pct +
                                           workload.insert_pct)) {
            const uint64_t fresh =
                next_insert.fetch_add(1, std::memory_order_relaxed);
            IndexInsert(*tree, fresh, fresh);
          } else if (roll < static_cast<uint64_t>(
                                workload.read_pct + workload.update_pct +
                                workload.insert_pct + workload.scan_pct)) {
            if constexpr (HasScanOp<Tree>) {
              IndexScan(*tree, key, 1 + rng.NextBounded(100), scan_buffer);
            } else {
              uint64_t out = 0;
              IndexLookup(*tree, key, out);  // Degraded: point probe.
            }
          } else {  // RMW
            uint64_t out = 0;
            if (IndexLookup(*tree, key, out)) {
              IndexUpdate(*tree, key, out + 1);
            }
          }
          ++stats.ops;
        }
      });
  return result.MopsPerSec();
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Extension: YCSB A-F on the B+-tree",
              "industry-standard mixes (" + flags.DistOr(kYcsbDist).Name() +
                  " keys), OptLock vs OptiQL",
              flags);
  for (const YcsbWorkload& workload : kYcsbWorkloads) {
    std::printf("-- YCSB-%s: %s --\n", workload.name, workload.description);
    std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
    for (int t : flags.threads) header.push_back(std::to_string(t));
    TablePrinter table(std::move(header));
    std::vector<std::string> row_optlock = {"OptLock"};
    std::vector<std::string> row_optiql = {"OptiQL"};
    for (int threads : flags.threads) {
      row_optlock.push_back(TablePrinter::Fmt(
          RunYcsb<BTreeOptLock>(flags, workload, threads, /*batch=*/1)));
      row_optiql.push_back(TablePrinter::Fmt(
          RunYcsb<BTreeOptiQl>(flags, workload, threads, /*batch=*/1)));
    }
    table.AddRow(std::move(row_optlock));
    table.AddRow(std::move(row_optiql));
    if (flags.batch > 1) {
      // Batched read rows: the read arm goes through IndexLookupBatch
      // (interleaved descents + one epoch guard per batch).
      std::vector<std::string> row_optlock_b = {
          "OptLock (batch=" + std::to_string(flags.batch) + ")"};
      std::vector<std::string> row_optiql_b = {
          "OptiQL (batch=" + std::to_string(flags.batch) + ")"};
      for (int threads : flags.threads) {
        row_optlock_b.push_back(TablePrinter::Fmt(
            RunYcsb<BTreeOptLock>(flags, workload, threads, flags.batch)));
        row_optiql_b.push_back(TablePrinter::Fmt(
            RunYcsb<BTreeOptiQl>(flags, workload, threads, flags.batch)));
      }
      table.AddRow(std::move(row_optlock_b));
      table.AddRow(std::move(row_optiql_b));
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
