// Extension: lock contention telemetry + latch-free leaf updates.
//
// Section 1 (fig06-style lock sweep): centralized CAS locks (TTS,
// OptLock), queue-based locks (MCS, OptiQL) and the optimistic latch with
// a pessimistic reader fallback (Hybrid) side by side, with the restart /
// fallback / wait counters that explain each row. Centralized locks win
// when collisions are rare, queue-based locks when they are not.
//
// Section 2 (index sweep): B+-trees with latch-free in-place leaf updates
// (BTree*InPlacePolicy) vs. their locked-update baselines on read-mostly
// skewed mixes, where every locked point update invalidates the hot leaf's
// optimistic readers and the in-place path does not.
//
// Methodology: every data point is the MEDIAN of OPTIQL_BENCH_REPEATS
// (default 3) runs, and the repeats are INTERLEAVED across the protocols
// in a row — pass 1 runs every lock, then pass 2, ... — so minute-scale
// machine drift (CPU steal on shared boxes) lands on all protocols alike
// instead of biasing whichever row happened to run in a slow window.
//
// With -DOPTIQL_LOCK_TELEMETRY=ON the restart/fallback/wait counters from
// src/sync/lock_telemetry.h are reported alongside throughput (they read 0
// in default builds). --json writes BENCH_adaptive.json.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "harness/micro_bench.h"
#include "harness/table_printer.h"
#include "index_bench_common.h"
#include "sync/lock_telemetry.h"

namespace optiql {
namespace {

struct TelemetryDelta {
  uint64_t restarts = 0;
  uint64_t fallbacks = 0;
  uint64_t waits = 0;
  uint64_t inplace_updates = 0;
  uint64_t inplace_fallbacks = 0;

  TelemetryDelta& operator+=(const TelemetryDelta& o) {
    restarts += o.restarts;
    fallbacks += o.fallbacks;
    waits += o.waits;
    inplace_updates += o.inplace_updates;
    inplace_fallbacks += o.inplace_fallbacks;
    return *this;
  }
};

TelemetryDelta TakeDelta() {
  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  TelemetryDelta d;
  d.restarts = s[LockTelemetry::kOptimisticRestart];
  d.fallbacks = s[LockTelemetry::kPessimisticFallback];
  d.waits = s[LockTelemetry::kExclusiveWait];
  d.inplace_updates = s[LockTelemetry::kInPlaceUpdate];
  d.inplace_fallbacks = s[LockTelemetry::kInPlaceFallback];
  return d;
}

// One (row, thread-count) cell accumulated across the interleaved passes.
struct PointStat {
  std::vector<double> mops;             // One entry per pass.
  std::vector<double> restarts_per_kop;  // Index section only.
  TelemetryDelta telemetry;             // Summed over passes.
};

// Keyed by (row name, threads); rows print in first-seen order.
using PointMap = std::map<std::pair<std::string, int>, PointStat>;

// --- Section 1: lock sweep ------------------------------------------------

template <class Lock>
void LockPass(const BenchFlags& flags, const ContentionLevel& level,
              int read_pct, PointMap& points) {
  for (int threads : flags.threads) {
    MicroBenchConfig config;
    config.num_locks = level.num_locks;
    config.read_pct = read_pct;
    config.cs_length = 50;
    config.threads = threads;
    config.duration_ms = flags.duration_ms;
    LockTelemetry::Reset();
    const RunResult result = RunLockMicroBench<Lock>(config);
    PointStat& p = points[{TxnOps<Lock>::kName, threads}];
    p.mops.push_back(result.MopsPerSec());
    p.telemetry += TakeDelta();
  }
}

void LockLevel(const BenchFlags& flags, const ContentionLevel& level,
               int read_pct, JsonBenchWriter& json) {
  const int repeats = BenchRepeats();
  std::printf(
      "-- Locks, contention: %s (%zu lock(s)%s), %d%% reads, "
      "median of %d --\n",
      level.name, level.num_locks == 0 ? 1 : level.num_locks,
      level.num_locks == 0 ? " per thread" : "", read_pct, repeats);

  PointMap points;
  const std::vector<std::string> order = {"TTS", "OptLock", "MCS", "OptiQL",
                                          "Hybrid"};
  for (int rep = 0; rep < repeats; ++rep) {
    LockPass<TtsLock>(flags, level, read_pct, points);
    LockPass<OptLock>(flags, level, read_pct, points);
    LockPass<McsLock>(flags, level, read_pct, points);
    LockPass<OptiQL>(flags, level, read_pct, points);
    LockPass<HybridLock>(flags, level, read_pct, points);
  }

  std::vector<std::string> header = {"lock \\ threads (Mops/s)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));
  TablePrinter table(std::move(header));
  for (const std::string& name : order) {
    std::vector<std::string> row = {name};
    for (int threads : flags.threads) {
      const PointStat& p = points.at({name, threads});
      const TelemetryDelta& t = p.telemetry;
      row.push_back(TablePrinter::Fmt(Median(p.mops)));
      json.AddRecord({
          {"bench", "ext_adaptive"},
          {"section", "lock_sweep"},
          {"contention", level.name},
          {"read_pct", std::to_string(read_pct)},
          {"lock", name},
          {"threads", std::to_string(threads)},
          {"repeats", std::to_string(repeats)},
          {"mops", JsonBenchWriter::Num(Median(p.mops))},
          {"telemetry_restarts", std::to_string(t.restarts)},
          {"telemetry_fallbacks", std::to_string(t.fallbacks)},
          {"telemetry_waits", std::to_string(t.waits)},
      });
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n");
}

// --- Section 2: index sweep -----------------------------------------------

template <class Tree>
void IndexPass(Tree& tree, const char* name, const BenchFlags& flags,
               IndexWorkload workload, PointMap& points) {
  for (int threads : flags.threads) {
    workload.threads = threads;
    tree.ResetStats();
    LockTelemetry::Reset();
    const RunResult result = RunIndexBench(tree, workload);
    const TelemetryDelta t = TakeDelta();
    const auto stats = tree.GetStats();
    const double restarts_per_kop =
        result.TotalOps() == 0
            ? 0.0
            : 1000.0 *
                  static_cast<double>(stats.read_restarts +
                                      stats.write_restarts) /
                  static_cast<double>(result.TotalOps());
    PointStat& p = points[{name, threads}];
    p.mops.push_back(result.MopsPerSec());
    p.restarts_per_kop.push_back(restarts_per_kop);
    p.telemetry += t;
  }
}

void IndexMix(const BenchFlags& flags, int lookup_pct, int update_pct,
              JsonBenchWriter& json) {
  const int repeats = BenchRepeats();
  std::printf(
      "-- B+-tree, %d%% lookup / %d%% update, self-similar 0.2, "
      "median of %d --\n",
      lookup_pct, update_pct, repeats);

  IndexWorkload workload;
  workload.records = flags.records;
  workload.lookup_pct = lookup_pct;
  workload.update_pct = update_pct;
  workload.distribution = IndexWorkload::Distribution::kSelfSimilar;
  workload.skew = 0.2;
  workload.duration_ms = flags.duration_ms;

  // Preload every tree up front; the mixes are lookup/update-only, so the
  // trees stay structurally identical across the interleaved passes.
  auto optlock = std::make_unique<BTreeOptLock>();
  auto optlock_ip = std::make_unique<BTreeOptLockIp>();
  auto optiql = std::make_unique<BTreeOptiQl>();
  auto optiql_ip = std::make_unique<BTreeOptiQlIp>();
  PreloadIndex(*optlock, workload);
  PreloadIndex(*optlock_ip, workload);
  PreloadIndex(*optiql, workload);
  PreloadIndex(*optiql_ip, workload);

  PointMap points;
  const std::vector<std::string> order = {"OptLock", "OptLock-InPlace",
                                          "OptiQL", "OptiQL-InPlace"};
  for (int rep = 0; rep < repeats; ++rep) {
    IndexPass(*optlock, "OptLock", flags, workload, points);
    IndexPass(*optlock_ip, "OptLock-InPlace", flags, workload, points);
    IndexPass(*optiql, "OptiQL", flags, workload, points);
    IndexPass(*optiql_ip, "OptiQL-InPlace", flags, workload, points);
  }

  std::vector<std::string> header = {
      "tree \\ threads (Mops/s / restarts-per-1k-ops)"};
  for (int t : flags.threads) header.push_back(std::to_string(t));
  TablePrinter table(std::move(header));
  for (const std::string& name : order) {
    std::vector<std::string> row = {name};
    for (int threads : flags.threads) {
      const PointStat& p = points.at({name, threads});
      row.push_back(TablePrinter::Fmt(Median(p.mops)) + " / " +
                    TablePrinter::Fmt(Median(p.restarts_per_kop), 2));
      json.AddRecord({
          {"bench", "ext_adaptive"},
          {"section", "index_inplace"},
          {"tree", name},
          {"lookup_pct", std::to_string(lookup_pct)},
          {"update_pct", std::to_string(update_pct)},
          {"distribution", "selfsimilar-0.2"},
          {"threads", std::to_string(threads)},
          {"repeats", std::to_string(repeats)},
          {"mops", JsonBenchWriter::Num(Median(p.mops))},
          {"tree_restarts_per_kop",
           JsonBenchWriter::Num(Median(p.restarts_per_kop))},
          {"telemetry_restarts", std::to_string(p.telemetry.restarts)},
          {"telemetry_inplace_updates",
           std::to_string(p.telemetry.inplace_updates)},
          {"telemetry_inplace_fallbacks",
           std::to_string(p.telemetry.inplace_fallbacks)},
      });
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n");
}

}  // namespace
}  // namespace optiql

int main(int argc, char** argv) {
  using namespace optiql;
  const BenchFlags flags = BenchFlags::Parse(argc, argv);
  PrintBanner("Extension: lock telemetry + latch-free leaf updates",
              "extends paper Fig. 6 / Fig. 9 with restart/fallback/wait "
              "counters (telemetry columns need -DOPTIQL_LOCK_TELEMETRY=ON)",
              flags);
  if constexpr (!LockTelemetry::kEnabled) {
    std::printf(
        "note: built without OPTIQL_LOCK_TELEMETRY; telemetry counters "
        "will read 0\n\n");
  }
  JsonBenchWriter json;
  // Fig. 6's extreme/high ends stress the queue-based locks, `low` the
  // optimistic fast path; `medium`/`none` add little beyond `low` here.
  for (const ContentionLevel& level : kContentionLevels) {
    if (std::string(level.name) == "medium" ||
        std::string(level.name) == "none") {
      continue;
    }
    LockLevel(flags, level, /*read_pct=*/0, json);
  }
  // Read-mixed pass: optimistic readers vs Hybrid's pessimistic fallback.
  LockLevel(flags, kContentionLevels[1], /*read_pct=*/80, json);
  // Read-mostly skewed mixes: the latch-free in-place update target.
  IndexMix(flags, /*lookup_pct=*/95, /*update_pct=*/5, json);
  IndexMix(flags, /*lookup_pct=*/90, /*update_pct=*/10, json);
  if (flags.json) {
    json.WriteFile(flags.json_path.empty() ? "BENCH_adaptive.json"
                                           : flags.json_path);
  }
  return 0;
}
