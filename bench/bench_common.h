// Shared helpers for the per-figure benchmark binaries: flag parsing,
// banner printing, the YCSB core mix tables, and machine-readable result
// emission. Every binary accepts:
//   --threads=a,b,c     thread counts to sweep (default: env/auto)
//   --duration=MS       per-data-point duration (default: env or 150 ms)
//   --records=N         index preload size (default: env or 100000)
//   --dist=SPEC         key-access distribution: uniform | zipf[:theta]
//                       | selfsimilar[:skew] (KeyDist). Replaces every
//                       built-in distribution of a binary with keys; one
//                       that contrasts several runs each row once, on SPEC.
//                       Banners and table headers name the distribution a
//                       run used. The lock-only binaries (fig06-08, tab01,
//                       abl_fairness, ext_adaptive, micro_*) and
//                       ext_reshard have no key distribution to replace.
//   --batch=N           issue point reads as batches of N through the
//                       batched op surface (default 1 = single ops; read
//                       by ext_ycsb only, the index sweeps reject N > 1)
//   --full              paper-scale parameters (slower)
//   --json[=PATH]       also emit results as a JSON array (benches that
//                       support it write BENCH_<name>.json by default)
// Environment fallbacks: OPTIQL_BENCH_THREADS, OPTIQL_BENCH_DURATION_MS,
// OPTIQL_BENCH_RECORDS; OPTIQL_BENCH_REPEATS sets the repeat count of the
// interleaved sweeps (ext_adaptive, ext_txn; default 3). An unknown flag,
// or a thread count, duration, record count, batch size or repeat count
// (flag or environment) that is not a positive integer, is a usage error:
// the binary prints the usage line and exits 2 before any worker starts.
#ifndef OPTIQL_BENCH_BENCH_COMMON_H_
#define OPTIQL_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/bench_runner.h"
#include "workload/distributions.h"

namespace optiql {

// --- YCSB core mixes -------------------------------------------------------
// The industry-standard op-mix tables (Cooper et al., SoCC '10), shared by
// ext_ycsb and any bench that wants a named mix. Percentages sum to 100;
// `latest` marks workload D's recency-skewed request distribution.

struct YcsbWorkload {
  const char* name;
  const char* description;
  int read_pct;
  int update_pct;
  int insert_pct;
  int scan_pct;
  int rmw_pct;
  bool latest = false;  // D: requests target recently inserted keys.
};

inline constexpr YcsbWorkload kYcsbWorkloads[] = {
    {"A", "update heavy (50/50 read/update)", 50, 50, 0, 0, 0},
    {"B", "read mostly (95/5 read/update)", 95, 5, 0, 0, 0},
    {"C", "read only", 100, 0, 0, 0, 0},
    {"D", "read latest (95/5 read/insert)", 95, 0, 5, 0, 0, true},
    {"E", "short ranges (95/5 scan/insert)", 0, 0, 5, 95, 0},
    {"F", "read-modify-write (50/50 read/rmw)", 50, 0, 0, 0, 50},
};

struct BenchFlags {
  std::vector<int> threads;
  int duration_ms = 150;
  uint64_t records = 100000;
  bool full = false;
  bool json = false;
  std::string json_path;  // Empty: the binary picks its default name.
  KeyDist dist;           // --dist; dist_given says it was set explicitly
  bool dist_given = false;  // (binaries keep their own default otherwise).
  int batch = 1;          // --batch; 1 = single-op mode.
  // OPTIQL_BENCH_REPEATS: passes of the interleaved sweeps, one median per
  // cell.
  int repeats = 3;

  // The key distribution of a binary with one built in: --dist replaces
  // it.
  KeyDist DistOr(const KeyDist& builtin) const {
    return dist_given ? dist : builtin;
  }
  // The key distributions of a binary that contrasts several: --dist
  // replaces the whole list, so each row runs once, on it.
  std::vector<KeyDist> DistsOr(std::vector<KeyDist> builtin) const {
    if (dist_given) return {dist};
    return builtin;
  }

  static BenchFlags Parse(int argc, char** argv) {
    BenchFlags flags;
    flags.threads = BenchThreadCounts();
    // The numeric fields set from the environment.
    static constexpr std::pair<const char*, const char*> kEnvFields[] = {
        {"threads", "OPTIQL_BENCH_THREADS"},
        {"duration", "OPTIQL_BENCH_DURATION_MS"},
        {"records", "OPTIQL_BENCH_RECORDS"},
        {"repeats", "OPTIQL_BENCH_REPEATS"},
    };
    for (const auto& [field, env] : kEnvFields) {
      const char* value = std::getenv(env);
      if (value != nullptr && *value != '\0' &&
          !flags.SetNumericField(field, value)) {
        UsageError(argv[0], (std::string(env) + "=" + value).c_str());
      }
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--threads=", 0) == 0 ||
          arg.rfind("--duration=", 0) == 0 ||
          arg.rfind("--records=", 0) == 0 || arg.rfind("--batch=", 0) == 0) {
        const size_t eq = arg.find('=');
        if (!flags.SetNumericField(arg.substr(2, eq - 2),
                                   arg.substr(eq + 1))) {
          UsageError(argv[0], arg.c_str());
        }
      } else if (arg.rfind("--dist=", 0) == 0) {
        if (!KeyDist::Parse(arg.substr(7), flags.dist)) {
          std::fprintf(stderr,
                       "bad --dist (want uniform | zipf[:theta] | "
                       "selfsimilar[:skew]): %s\n",
                       arg.c_str());
          std::exit(2);
        }
        flags.dist_given = true;
      } else if (arg == "--full") {
        flags.full = true;
        flags.duration_ms = 1000;
        flags.records = 10000000;
      } else if (arg == "--json") {
        flags.json = true;
      } else if (arg.rfind("--json=", 0) == 0) {
        flags.json = true;
        flags.json_path = arg.substr(7);
      } else if (arg == "--help" || arg == "-h") {
        PrintUsage(stdout, argv[0]);
        std::exit(0);
      } else {
        UsageError(argv[0], arg.c_str());
      }
    }
    return flags;
  }

  int MaxThreads() const {
    int max = 1;
    for (int t : threads) max = std::max(max, t);
    return max;
  }

 private:
  static void PrintUsage(std::FILE* out, const char* argv0) {
    std::fprintf(out,
                 "usage: %s [--threads=a,b,c] [--duration=ms] [--records=n] "
                 "[--dist=spec] [--batch=n] [--full] [--json[=path]]\n",
                 argv0);
  }

  [[noreturn]] static void UsageError(const char* argv0, const char* what) {
    std::fprintf(stderr, "bad argument: %s\n", what);
    PrintUsage(stderr, argv0);
    std::exit(2);
  }

  // A positive decimal integer no larger than `max`, nothing else (no
  // sign, no trailing text).
  static bool ParsePositive(const std::string& text, uint64_t max,
                            uint64_t& out) {
    if (text.empty() || text[0] < '0' || text[0] > '9') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || value == 0 || value > max) {
      return false;
    }
    out = value;
    return true;
  }

  // Sets the numeric field named `field` ("threads", "duration",
  // "records", "batch" or "repeats") from `text`; false = malformed or
  // non-positive.
  bool SetNumericField(const std::string& field, const std::string& text) {
    uint64_t value = 0;
    if (field == "threads") {
      std::vector<int> counts;
      size_t pos = 0;
      while (true) {
        const size_t comma = text.find(',', pos);
        if (!ParsePositive(text.substr(pos, comma - pos), INT_MAX, value)) {
          return false;
        }
        counts.push_back(static_cast<int>(value));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
      threads = std::move(counts);
      return true;
    }
    if (field == "records") {
      if (!ParsePositive(text, UINT64_MAX, value)) return false;
      records = value;
      return true;
    }
    if (!ParsePositive(text, INT_MAX, value)) return false;
    int& target = field == "duration" ? duration_ms
                  : field == "batch"  ? batch
                                      : repeats;
    target = static_cast<int>(value);
    return true;
  }
};

// Accumulates benchmark rows and writes them as a JSON array of flat
// objects — the machine-readable counterpart of the printed tables, so a
// driver can track the repo's perf trajectory across commits. Values are
// emitted verbatim when they look numeric and quoted otherwise.
class JsonBenchWriter {
 public:
  using Field = std::pair<const char*, std::string>;

  void AddRecord(std::initializer_list<Field> fields) {
    std::string row = "  {";
    bool first = true;
    for (const Field& f : fields) {
      if (!first) row += ", ";
      first = false;
      row += '"';
      row += f.first;
      row += "\": ";
      row += IsNumeric(f.second) ? f.second : Quote(f.second);
    }
    row += '}';
    rows_.push_back(std::move(row));
  }

  static std::string Num(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
  }

  // Writes `[ ...rows ]`; returns false (and prints a warning) on I/O
  // failure so benches can keep their printed output authoritative.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::fputs(rows_[i].c_str(), f);
      std::fputs(i + 1 < rows_.size() ? ",\n" : "\n", f);
    }
    std::fputs("]\n", f);
    const bool ok = std::fclose(f) == 0;
    if (ok) std::printf("wrote %zu records to %s\n", rows_.size(), path.c_str());
    return ok;
  }

 private:
  static bool IsNumeric(const std::string& s) {
    if (s.empty()) return false;
    char* end = nullptr;
    std::strtod(s.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    out += '"';
    return out;
  }

  std::vector<std::string> rows_;
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline void PrintBanner(const char* experiment, const std::string& paper_ref,
                        const BenchFlags& flags) {
  std::printf("=== %s ===\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("machine: %u hardware threads; duration/point: %d ms\n",
              std::thread::hardware_concurrency(), flags.duration_ms);
  std::printf("\n");
}

}  // namespace optiql

#endif  // OPTIQL_BENCH_BENCH_COMMON_H_
