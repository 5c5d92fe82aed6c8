// Shared helpers for the per-figure benchmark binaries: flag parsing,
// banner printing, key-distribution selection, the YCSB core mix tables,
// and machine-readable result emission. Every binary accepts:
//   --threads=a,b,c     thread counts to sweep (default: env/auto)
//   --duration=MS       per-data-point duration (default: env or 150 ms)
//   --records=N         index preload size (default: env or 100000)
//   --dist=SPEC         key-access distribution: uniform | zipf[:theta]
//                       | selfsimilar[:skew] (default: per-binary)
//   --batch=N           issue point reads as batches of N through the
//                       batched op surface (default 1 = single ops)
//   --full              paper-scale parameters (slower)
//   --json[=PATH]       also emit results as a JSON array (benches that
//                       support it write BENCH_<name>.json by default)
// Environment fallbacks: OPTIQL_BENCH_THREADS, OPTIQL_BENCH_DURATION_MS,
// OPTIQL_BENCH_RECORDS.
#ifndef OPTIQL_BENCH_BENCH_COMMON_H_
#define OPTIQL_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/bench_runner.h"
#include "workload/distributions.h"

namespace optiql {

// A parsed key-access distribution choice — one spelling shared by every
// bench binary (ext_ycsb, ext_txn, the index sweeps) instead of each
// growing its own enum + parser.
struct KeyDist {
  enum class Kind { kUniform, kZipfian, kSelfSimilar };
  Kind kind = Kind::kUniform;
  double skew = 0.0;  // Zipf theta / self-similar h; unused for uniform.

  static KeyDist Uniform() { return {Kind::kUniform, 0.0}; }
  static KeyDist Zipfian(double theta) { return {Kind::kZipfian, theta}; }
  static KeyDist SelfSimilar(double h) { return {Kind::kSelfSimilar, h}; }

  // "uniform" | "zipf" | "zipf:0.7" | "selfsimilar" | "selfsimilar:0.3".
  static bool Parse(const std::string& spec, KeyDist& out) {
    const size_t colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    const bool has_param = colon != std::string::npos;
    const double param =
        has_param ? std::strtod(spec.c_str() + colon + 1, nullptr) : 0.0;
    if (name == "uniform") {
      if (has_param) return false;
      out = Uniform();
    } else if (name == "zipf" || name == "zipfian") {
      out = Zipfian(has_param ? param : 0.99);
      if (out.skew <= 0.0 || out.skew >= 1.0) return false;
    } else if (name == "selfsimilar") {
      out = SelfSimilar(has_param ? param : 0.2);
      if (out.skew <= 0.0 || out.skew >= 0.5) return false;
    } else {
      return false;
    }
    return true;
  }

  std::string Name() const {
    char buf[32];
    switch (kind) {
      case Kind::kUniform:
        return "uniform";
      case Kind::kZipfian:
        std::snprintf(buf, sizeof(buf), "zipf:%.2f", skew);
        return buf;
      case Kind::kSelfSimilar:
        std::snprintf(buf, sizeof(buf), "selfsimilar:%.2f", skew);
        return buf;
    }
    return "?";
  }
};

// Materializes the sampler a KeyDist names over [0, records). Constructed
// once per run (the Zipf constructor sums a harmonic series over n) and
// shared read-only by the worker threads.
class KeySampler {
 public:
  KeySampler(const KeyDist& dist, uint64_t records) : uniform_(records) {
    if (dist.kind == KeyDist::Kind::kZipfian) {
      zipf_.emplace(records, dist.skew);
    } else if (dist.kind == KeyDist::Kind::kSelfSimilar) {
      selfsim_.emplace(records, dist.skew);
    }
  }

  uint64_t Next(Xoshiro256& rng) const {
    if (zipf_) return zipf_->Next(rng);
    if (selfsim_) return selfsim_->Next(rng);
    return uniform_.Next(rng);
  }

 private:
  UniformDistribution uniform_;
  std::optional<ZipfianDistribution> zipf_;
  std::optional<SelfSimilarDistribution> selfsim_;
};

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
    {"A", "update heavy (50/50 read/update, zipf)", 50, 50, 0, 0, 0},
    {"B", "read mostly (95/5 read/update, zipf)", 95, 5, 0, 0, 0},
    {"C", "read only (zipf)", 100, 0, 0, 0, 0},
    {"D", "read latest (95/5 read/insert)", 95, 0, 5, 0, 0, true},
    {"E", "short ranges (95/5 scan/insert, zipf)", 0, 0, 5, 95, 0},
    {"F", "read-modify-write (50/50 read/rmw, zipf)", 50, 0, 0, 0, 50},
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

  static BenchFlags Parse(int argc, char** argv) {
    BenchFlags flags;
    flags.threads = BenchThreadCounts();
    flags.duration_ms = BenchDurationMs(150);
    flags.records =
        static_cast<uint64_t>(EnvInt("OPTIQL_BENCH_RECORDS", 100000));
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--threads=", 0) == 0) {
        flags.threads.clear();
        const char* spec = arg.c_str() + 10;
        while (*spec != '\0') {
          flags.threads.push_back(std::atoi(spec));
          const char* comma = std::strchr(spec, ',');
          if (comma == nullptr) break;
          spec = comma + 1;
        }
      } else if (arg.rfind("--duration=", 0) == 0) {
        flags.duration_ms = std::atoi(arg.c_str() + 11);
      } else if (arg.rfind("--records=", 0) == 0) {
        flags.records = std::strtoull(arg.c_str() + 10, nullptr, 10);
      } else if (arg.rfind("--dist=", 0) == 0) {
        if (!KeyDist::Parse(arg.substr(7), flags.dist)) {
          std::fprintf(stderr,
                       "bad --dist (want uniform | zipf[:theta] | "
                       "selfsimilar[:skew]): %s\n",
                       arg.c_str());
          std::exit(2);
        }
        flags.dist_given = true;
      } else if (arg.rfind("--batch=", 0) == 0) {
        flags.batch = std::atoi(arg.c_str() + 8);
        if (flags.batch < 1) {
          std::fprintf(stderr, "bad --batch (want >= 1): %s\n", arg.c_str());
          std::exit(2);
        }
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
        std::printf(
            "usage: %s [--threads=a,b,c] [--duration=ms] [--records=n] "
            "[--dist=spec] [--batch=n] [--full] [--json[=path]]\n",
            argv[0]);
        std::exit(0);
      }
    }
    return flags;
  }

  int MaxThreads() const {
    int max = 1;
    for (int t : threads) max = std::max(max, t);
    return max;
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

// Repeat-and-median methodology of the interleaved sweeps (ext_adaptive,
// ext_txn): OPTIQL_BENCH_REPEATS passes (default 3), one median per cell.
inline int BenchRepeats() {
  return std::max(1, static_cast<int>(EnvInt("OPTIQL_BENCH_REPEATS", 3)));
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline void PrintBanner(const char* experiment, const char* paper_ref,
                        const BenchFlags& flags) {
  std::printf("=== %s ===\n", experiment);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("machine: %u hardware threads; duration/point: %d ms\n",
              std::thread::hardware_concurrency(), flags.duration_ms);
  std::printf("\n");
}

}  // namespace optiql

#endif  // OPTIQL_BENCH_BENCH_COMMON_H_
