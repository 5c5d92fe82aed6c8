// Extension: multi-key transactions (src/txn/) over the hash table and
// B+-tree hosts — Silo-style OCC vs no-wait 2PL, across the lock families
// the TxnOps contract unifies.
//
// Each transaction samples `txn_size` keys from the preloaded population,
// reads every one, and bumps every other one (read-modify-write). OCC
// reads lock-free and validates at commit against the indexes' own lock
// words; 2PL locks as it goes and aborts on any busy lock. The sweep
// crosses {OCC, 2PL} x lock family x host x txn size x key skew, and
// reports committed-transaction throughput plus the abort rate — the
// protocols' fundamental trade under growing contention.
//
// Methodology matches ext_adaptive: every data point is the MEDIAN of
// OPTIQL_BENCH_REPEATS (default 3) runs, INTERLEAVED across the rows of a
// table so machine drift lands on all protocols alike. --json writes
// BENCH_txn.json.
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "harness/bench_runner.h"
#include "harness/table_printer.h"
#include "index_bench_common.h"
#include "index/hash_table.h"
#include "txn/txn.h"

namespace optiql {
namespace {

using HashOptLock = HashTable<HashOlcPolicy>;
using HashOptiQl = HashTable<HashOptiQlPolicy<>>;
using HashOptiClh = HashTable<HashLockPolicy<OptiCLH>>;
using HashMcsRw = HashTable<HashLockPolicy<McsRwLock>>;
using BTreeTxnOptLock = BTreeOptLock;  // index_bench_common typedef.
using BTreeTxnOptiQl =
    BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL, /*kAor=*/false>>;

// One (row, thread-count) cell accumulated across the interleaved passes.
struct PointStat {
  std::vector<double> mtps;        // Committed Mtxn/s, one entry per pass.
  std::vector<double> abort_rate;  // aborts / attempts, one per pass.
};

using PointMap = std::map<std::pair<std::string, int>, PointStat>;

// Row identity: display name plus the fields the JSON rows break out.
struct RowSpec {
  std::string name;
  const char* protocol;
  const char* lock;
  const char* host;
};

// Runs the fixed-duration transaction workload for every thread count and
// appends this pass's numbers to the row's cells. `stats.ops` counts
// committed transactions (RunTxn retries until a commit sticks), so the
// runner's Mops/s is committed throughput directly.
template <template <class> class TxnT, class Index>
void TxnPass(Index& index, const RowSpec& row, const BenchFlags& flags,
             const KeySampler& sampler, int txn_size, PointMap& points) {
  for (int threads : flags.threads) {
    RunOptions options;
    options.threads = threads;
    options.duration_ms = flags.duration_ms;
    std::vector<TxnStats> per_thread(static_cast<size_t>(threads));
    const RunResult result = RunFixedDuration(
        options,
        [&](int tid, const std::atomic<bool>& stop, WorkerStats& stats) {
          Xoshiro256 rng(0x51a7b2ddULL * 977 + static_cast<uint64_t>(tid));
          TxnStats& local = per_thread[static_cast<size_t>(tid)];
          uint64_t keys[16];
          while (!stop.load(std::memory_order_acquire)) {
            for (int i = 0; i < txn_size; ++i) keys[i] = sampler.Next(rng);
            RunTxn<TxnT<Index>>(index, local, [&](TxnT<Index>& txn) {
              for (int i = 0; i < txn_size; ++i) {
                uint64_t value = 0;
                if (txn.Get(keys[i], value) == TxnResult::kAbort) {
                  return false;
                }
                // Bump every other key: each transaction both reads and
                // writes, so OCC validation and 2PL upgrades are exercised.
                if ((i & 1) == 0 &&
                    txn.Put(keys[i], value + 1) == TxnResult::kAbort) {
                  return false;
                }
              }
              return true;
            });
            ++stats.ops;
          }
        });
    TxnStats total;
    for (const TxnStats& s : per_thread) total += s;
    const double attempts =
        static_cast<double>(total.commits + total.aborts);
    PointStat& p = points[{row.name, threads}];
    p.mtps.push_back(result.MopsPerSec());
    p.abort_rate.push_back(
        attempts == 0 ? 0.0 : static_cast<double>(total.aborts) / attempts);
  }
}

template <class Index>
void Preload(Index& index, uint64_t records) {
  for (uint64_t k = 0; k < records; ++k) {
    OPTIQL_CHECK(index.Insert(k, k));
  }
}

// One table: every protocol x lock x host row at a fixed (skew, txn_size).
void TxnSection(const BenchFlags& flags, const KeyDist& dist, int txn_size,
                JsonBenchWriter& json) {
  const int repeats = BenchRepeats();
  std::printf("-- txns of %d keys (read all, bump half), %s keys, "
              "median of %d --\n",
              txn_size, dist.Name().c_str(), repeats);

  const KeySampler sampler(dist, flags.records);

  auto h_optlock = std::make_unique<HashOptLock>();
  auto h_optiql = std::make_unique<HashOptiQl>();
  auto h_opticlh = std::make_unique<HashOptiClh>();
  auto h_mcsrw = std::make_unique<HashMcsRw>();
  auto b_optlock = std::make_unique<BTreeTxnOptLock>();
  auto b_optiql = std::make_unique<BTreeTxnOptiQl>();
  Preload(*h_optlock, flags.records);
  Preload(*h_optiql, flags.records);
  Preload(*h_opticlh, flags.records);
  Preload(*h_mcsrw, flags.records);
  Preload(*b_optlock, flags.records);
  Preload(*b_optiql, flags.records);

  const RowSpec occ_h_optlock{"OCC hash/OptLock", "occ", "OptLock", "hash"};
  const RowSpec occ_h_optiql{"OCC hash/OptiQL", "occ", "OptiQL", "hash"};
  const RowSpec occ_h_opticlh{"OCC hash/OptiCLH", "occ", "OptiCLH", "hash"};
  const RowSpec occ_b_optlock{"OCC btree/OptLock", "occ", "OptLock", "btree"};
  const RowSpec occ_b_optiql{"OCC btree/OptiQL", "occ", "OptiQL", "btree"};
  const RowSpec tpl_h_optlock{"2PL hash/OptLock", "2pl", "OptLock", "hash"};
  const RowSpec tpl_h_optiql{"2PL hash/OptiQL", "2pl", "OptiQL", "hash"};
  const RowSpec tpl_h_opticlh{"2PL hash/OptiCLH", "2pl", "OptiCLH", "hash"};
  const RowSpec tpl_h_mcsrw{"2PL hash/MCS-RW", "2pl", "MCS-RW", "hash"};
  const RowSpec tpl_b_optlock{"2PL btree/OptLock", "2pl", "OptLock", "btree"};
  const RowSpec tpl_b_optiql{"2PL btree/OptiQL", "2pl", "OptiQL", "btree"};
  const std::vector<const RowSpec*> order = {
      &occ_h_optlock, &occ_h_optiql, &occ_h_opticlh, &occ_b_optlock,
      &occ_b_optiql,  &tpl_h_optlock, &tpl_h_optiql, &tpl_h_opticlh,
      &tpl_h_mcsrw,   &tpl_b_optlock, &tpl_b_optiql};

  PointMap points;
  for (int rep = 0; rep < repeats; ++rep) {
    TxnPass<OccTxn>(*h_optlock, occ_h_optlock, flags, sampler, txn_size,
                    points);
    TxnPass<OccTxn>(*h_optiql, occ_h_optiql, flags, sampler, txn_size,
                    points);
    TxnPass<OccTxn>(*h_opticlh, occ_h_opticlh, flags, sampler, txn_size,
                    points);
    TxnPass<OccTxn>(*b_optlock, occ_b_optlock, flags, sampler, txn_size,
                    points);
    TxnPass<OccTxn>(*b_optiql, occ_b_optiql, flags, sampler, txn_size,
                    points);
    TxnPass<TwoPlTxn>(*h_optlock, tpl_h_optlock, flags, sampler, txn_size,
                      points);
    TxnPass<TwoPlTxn>(*h_optiql, tpl_h_optiql, flags, sampler, txn_size,
                      points);
    TxnPass<TwoPlTxn>(*h_opticlh, tpl_h_opticlh, flags, sampler, txn_size,
                      points);
    TxnPass<TwoPlTxn>(*h_mcsrw, tpl_h_mcsrw, flags, sampler, txn_size,
                      points);
    TxnPass<TwoPlTxn>(*b_optlock, tpl_b_optlock, flags, sampler, txn_size,
                      points);
    TxnPass<TwoPlTxn>(*b_optiql, tpl_b_optiql, flags, sampler, txn_size,
                      points);
  }

  std::vector<std::string> header = {
      "protocol host/lock \\ threads (Mtxn/s / abort-rate)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));
  TablePrinter table(std::move(header));
  for (const RowSpec* row : order) {
    std::vector<std::string> cells = {row->name};
    for (int threads : flags.threads) {
      const PointStat& p = points.at({row->name, threads});
      cells.push_back(TablePrinter::Fmt(Median(p.mtps)) + " / " +
                      TablePrinter::Fmt(Median(p.abort_rate), 3));
      json.AddRecord({
          {"bench", "ext_txn"},
          {"protocol", row->protocol},
          {"lock", row->lock},
          {"host", row->host},
          {"txn_size", std::to_string(txn_size)},
          {"skew", dist.Name()},
          {"threads", std::to_string(threads)},
          {"repeats", std::to_string(repeats)},
          {"mops", JsonBenchWriter::Num(Median(p.mtps))},
          {"abort_rate", JsonBenchWriter::Num(Median(p.abort_rate))},
      });
    }
    table.AddRow(std::move(cells));
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Extension: multi-key transactions (OCC vs no-wait 2PL)",
              "txn layer over the TxnOps lock contract; OCC validates "
              "against the indexes' own lock words",
              flags);
  JsonBenchWriter json;
  // --dist narrows the sweep to one skew; the default runs the paper-style
  // uniform / zipf 0.99 contrast.
  std::vector<KeyDist> dists;
  if (flags.dist_given) {
    dists.push_back(flags.dist);
  } else {
    dists.push_back(KeyDist::Uniform());
    dists.push_back(KeyDist::Zipfian(0.99));
  }
  for (const KeyDist& dist : dists) {
    for (int txn_size : {2, 4, 8}) {
      TxnSection(flags, dist, txn_size, json);
    }
  }
  if (flags.json) {
    json.WriteFile(flags.json_path.empty() ? "BENCH_txn.json"
                                           : flags.json_path);
  }
  return 0;
}
