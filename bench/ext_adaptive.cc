// Extension: lock contention telemetry.
//
// A fig06-style lock sweep: centralized CAS locks (TTS, OptLock) and
// queue-based locks (MCS, OptiQL) side by side, with the restart / wait
// counters that explain each row. Centralized locks win when collisions
// are rare, queue-based locks when they are not.
//
// Methodology: every data point is the MEDIAN of OPTIQL_BENCH_REPEATS
// (default 3) runs, and the repeats are INTERLEAVED across the locks in a
// row — pass 1 runs every lock, then pass 2, ... — so minute-scale
// machine drift (CPU steal on shared boxes) lands on all protocols alike
// instead of biasing whichever row happened to run in a slow window.
//
// With -DOPTIQL_LOCK_TELEMETRY=ON the restart/wait counters from
// src/sync/lock_telemetry.h are reported alongside throughput (they read 0
// in default builds). --json writes BENCH_adaptive.json.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "harness/micro_bench.h"
#include "harness/table_printer.h"
#include "sync/lock_telemetry.h"

namespace optiql {
namespace {

struct TelemetryDelta {
  uint64_t restarts = 0;
  uint64_t waits = 0;

  TelemetryDelta& operator+=(const TelemetryDelta& o) {
    restarts += o.restarts;
    waits += o.waits;
    return *this;
  }
};

TelemetryDelta TakeDelta() {
  const LockTelemetry::Snapshot s = LockTelemetry::Take();
  TelemetryDelta d;
  d.restarts = s[LockTelemetry::kOptimisticRestart];
  d.waits = s[LockTelemetry::kExclusiveWait];
  return d;
}

// One (row, thread-count) cell accumulated across the interleaved passes.
struct PointStat {
  std::vector<double> mops;   // One entry per pass.
  TelemetryDelta telemetry;  // Summed over passes.
};

// Keyed by (row name, threads); rows print in first-seen order.
using PointMap = std::map<std::pair<std::string, int>, PointStat>;

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
  const int repeats = flags.repeats;
  std::printf(
      "-- Locks, contention: %s (%zu lock(s)%s), %d%% reads, "
      "median of %d --\n",
      level.name, level.num_locks == 0 ? 1 : level.num_locks,
      level.num_locks == 0 ? " per thread" : "", read_pct, repeats);

  PointMap points;
  const std::vector<std::string> order = {"TTS", "OptLock", "MCS", "OptiQL"};
  for (int rep = 0; rep < repeats; ++rep) {
    LockPass<TtsLock>(flags, level, read_pct, points);
    LockPass<OptLock>(flags, level, read_pct, points);
    LockPass<McsLock>(flags, level, read_pct, points);
    LockPass<OptiQL>(flags, level, read_pct, points);
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
          {"telemetry_waits", std::to_string(t.waits)},
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
  PrintBanner("Extension: lock telemetry",
              "extends paper Fig. 6 with restart/wait counters "
              "(telemetry columns need -DOPTIQL_LOCK_TELEMETRY=ON)",
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
  // Read-mixed pass: optimistic readers vs readers that take the lock.
  LockLevel(flags, kContentionLevels[1], /*read_pct=*/80, json);
  if (flags.json) {
    json.WriteFile(flags.json_path.empty() ? "BENCH_adaptive.json"
                                           : flags.json_path);
  }
  return 0;
}
