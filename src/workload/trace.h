// Trace-driven workloads: generate, save, load and replay explicit
// operation traces against any index. Complements the closed-loop
// generators in index_bench.h when exact, reproducible op sequences are
// needed (regression comparisons, cross-index apples-to-apples runs, or
// replaying captured production-like patterns).
//
// File format: one op per line, whitespace-separated:
//   L <key>              lookup
//   I <key> <value>      insert
//   U <key> <value>      update
//   R <key>              remove
//   S <key> <count>      ascending scan
// Lines starting with '#' are comments.
#ifndef OPTIQL_WORKLOAD_TRACE_H_
#define OPTIQL_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "workload/distributions.h"
#include "workload/key_generator.h"

namespace optiql {

struct TraceOp {
  enum class Kind : uint8_t { kLookup, kInsert, kUpdate, kRemove, kScan };

  Kind kind;
  uint64_t key;
  uint64_t value;  // Insert/update payload; scan length for kScan.

  bool operator==(const TraceOp& other) const {
    return kind == other.kind && key == other.key && value == other.value;
  }
};

struct TraceConfig {
  uint64_t operations = 100000;
  uint64_t key_space = 100000;
  // Mix in percent; the remainder after lookup+insert+update+remove is
  // scans.
  int lookup_pct = 70;
  int insert_pct = 10;
  int update_pct = 10;
  int remove_pct = 5;
  uint32_t max_scan_len = 64;
  KeyDist dist;  // Uniform by default.
  KeySpace key_space_shape = KeySpace::kDense;
  uint64_t seed = 42;
};

class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<TraceOp> ops) : ops_(std::move(ops)) {}

  // Generates a reproducible synthetic trace from the config.
  static Trace Generate(const TraceConfig& config);

  // Plain-text (de)serialization; returns false on I/O or parse errors.
  bool SaveTo(const std::string& path) const;
  static bool LoadFrom(const std::string& path, Trace* out);

  const std::vector<TraceOp>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  bool operator==(const Trace& other) const { return ops_ == other.ops_; }

 private:
  std::vector<TraceOp> ops_;
};

// Replay statistics, aggregated over all replay threads.
struct ReplayResult {
  uint64_t lookups = 0, lookup_hits = 0;
  uint64_t inserts = 0, insert_ok = 0;
  uint64_t updates = 0, update_ok = 0;
  uint64_t removes = 0, remove_ok = 0;
  uint64_t scans = 0, scanned_pairs = 0;
  double seconds = 0;

  uint64_t TotalOps() const {
    return lookups + inserts + updates + removes + scans;
  }
  double MopsPerSec() const {
    return seconds > 0 ? static_cast<double>(TotalOps()) / seconds / 1e6
                       : 0.0;
  }
};

}  // namespace optiql

#endif  // OPTIQL_WORKLOAD_TRACE_H_
