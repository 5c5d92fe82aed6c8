// End-to-end benchmark of the store examples/kv_store.cc ships:
// ShardedStore<BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>,
// RangeShardRouter> with 8 shards, driven closed-loop by 4 client threads
// through its public API (each client issues its next call when the
// previous one returns).
//
// One process runs one workload: the epoch manager, thread registry and
// qnode pool are process-wide. The op streams are generated from --seed
// before anything is timed. The store is then built and bulk-loaded several
// times (setup_s is the median) and the last build is measured: a warm-up
// window, then fixed-length windows, each ended by CheckInvariants(). Every
// result is checked (workload.h); a wrong one counts as failed. Each
// end-to-end timing is the interquartile mean of its per-window values.
//
// The traced build (storebench_traced: lock telemetry on) additionally
// samples one request in kSampleEvery and times read-only probe calls into
// each layer after it; see README.md for the metric map.
//
// Usage: storebench --workload NAME --seed N --seconds S
//                   [--source-id ID] [--spans FILE] [--inject-wrong]
//        storebench --selftest
// The last line of stdout is one JSON object holding every metric.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "core/optiql.h"
#include "harness/bench_runner.h"
#include "index/btree.h"
#include "store/sharded_store.h"
#include "sync/epoch.h"
#include "sync/lock_telemetry.h"
#include "trace.h"
#include "txn/txn.h"
#include "workload.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using Tree = optiql::BTree<uint64_t, uint64_t,
                           optiql::BTreeOptiQlPolicy<optiql::OptiQL>>;
using Store = optiql::ShardedStore<Tree, optiql::RangeShardRouter>;
using Txn = optiql::OccTxn<Store>;
using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;

// The traced binary is the lock-telemetry build; the untraced one compiles
// every tracing branch out.
constexpr bool kTraced = optiql::kLockTelemetryEnabled;

constexpr size_t kShards = 8;
constexpr int kThreads = 4;
constexpr uint64_t kSampleEvery = 256;
constexpr uint64_t kProbeKinds = 5;
constexpr size_t kMinTimedBuilds = 3;
constexpr size_t kMaxTimedBuilds = 50;
constexpr double kSetupBudgetSeconds = 0.5;
constexpr size_t kMaxSpansWritten = 200'000;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

uint64_t Nanos(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

template <class T>
double Median(std::vector<T> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? static_cast<double>(values[n / 2])
                    : (static_cast<double>(values[n / 2 - 1]) +
                       static_cast<double>(values[n / 2])) /
                          2;
}

// Mean of the middle half of `values` (the interquartile mean): steadier
// than a median over a handful of windows, and blind to an outlier window.
double MiddleMean(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

// Exact nearest-rank quantile; reorders `values`.
double Quantile(std::vector<uint32_t>& values, double q) {
  if (values.empty()) return 0;
  const size_t rank =
      std::min(values.size() - 1,
               static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<ptrdiff_t>(rank), values.end());
  return values[rank];
}

int64_t RssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long pages = 0, resident = 0;
  const int read = std::fscanf(f, "%lld %lld", &pages, &resident);
  std::fclose(f);
  return read == 2 ? resident * sysconf(_SC_PAGESIZE) : 0;
}

int AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

// --- Per-client state ---

// What one client did in the current window.
struct WindowCounts {
  std::vector<uint32_t> latency_ns[kNumClasses];
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;   // Read calls into the index (lookups, batches,
  uint64_t writes = 0;  // scans, txn Gets) and write calls (incl. txn Puts).
  optiql::TxnStats txn;

  void Reset() {
    for (auto& v : latency_ns) v.clear();
    requests = failed = reads = writes = 0;
    txn = optiql::TxnStats();
  }
};

// Aligned so that no two clients' per-request counters share a cache line.
struct alignas(128) Client {
  const Stream* stream = nullptr;
  size_t cursor = 0;
  uint64_t salt = 0;
  bool inject = false;  // Corrupt the next checked result (checker test).
  WindowCounts window;
  Pairs scan_buf;
  // Traced build only.
  optiql::Xoshiro256 probe_rng{1};
  uint64_t tick = 0;
  uint64_t sampled = 0;
  SpanLog spans;
  std::vector<uint32_t> commit_backoff_ns;
  std::vector<uint64_t> retire_backlog;
  uint64_t shard_hits[kShards] = {};

  void ResetTrace() {
    spans.Clear();
    commit_backoff_ns.clear();
    retire_backlog.clear();
    std::fill(std::begin(shard_hits), std::end(shard_hits), 0);
  }
};

// --- The benchmark proper ---

class Bench {
 public:
  Bench(const Spec& spec, Store& store, const std::vector<Stream>& streams,
        uint64_t seed, bool inject_wrong)
      : spec_(spec), store_(store), clients_(kThreads) {
    for (int t = 0; t < kThreads; ++t) {
      Client& c = clients_[static_cast<size_t>(t)];
      c.stream = &streams[static_cast<size_t>(t)];
      c.probe_rng = optiql::Xoshiro256(optiql::Mix64(seed ^ 0x70be) +
                                       static_cast<uint64_t>(t));
    }
    clients_[0].inject = inject_wrong;
    // Key span of every shard, for the per-shard batch probe. The
    // workloads never split or merge, so the slots stay 0..kShards-1.
    for (const auto& span : store_.SpanSnapshot()) {
      OPTIQL_CHECK(span.shard < kShards);
      spans_[span.shard] = {span.begin,
                            std::min(span.last, spec_.key_space - 1)};
    }
  }

  std::vector<Client>& clients() { return clients_; }

  // Runs every client for `ms` milliseconds; returns the window's seconds.
  double RunWindow(int ms) {
    optiql::RunOptions options;
    options.threads = kThreads;
    options.duration_ms = ms;
    const optiql::RunResult result = optiql::RunFixedDuration(
        options, [this](int tid, const std::atomic<bool>& stop,
                        optiql::WorkerStats& stats) {
          stats.ops = Serve(clients_[static_cast<size_t>(tid)], tid, stop);
        });
    return result.seconds;
  }

 private:
  uint64_t Serve(Client& c, int tid, const std::atomic<bool>& stop) {
    const Stream& s = *c.stream;
    const size_t n = s.kinds.size();
    const size_t k = spec_.keys_per_request;
    uint64_t served = 0;
    Clock::time_point prev = Clock::now();
    while (!stop.load(std::memory_order_acquire)) {
      const size_t r = c.cursor;
      c.cursor = r + 1 == n ? 0 : r + 1;
      const Kind kind = static_cast<Kind>(s.kinds[r]);
      const uint64_t* keys = &s.keys[r * k];
      uint64_t trace_id = 0;  // Non-zero only for a sampled request.
      if constexpr (kTraced) {
        if (++c.tick == kSampleEvery) {
          c.tick = 0;
          trace_id = ((static_cast<uint64_t>(tid) + 1) << 48) | ++c.sampled;
        }
      }
      const bool ok = Execute(c, kind, keys, trace_id);
      const Clock::time_point now = Clock::now();
      c.window.latency_ns[ClassOf(kind)].push_back(
          static_cast<uint32_t>(std::min<uint64_t>(Nanos(now - prev),
                                                   UINT32_MAX)));
      ++c.window.requests;
      c.window.failed += ok ? 0 : 1;
      ++served;
      if constexpr (kTraced) {
        if (trace_id != 0) {
          c.spans.Add(trace_id, kSpanRequest, kNoParent, prev, now);
          Probe(c, trace_id, keys[0]);
          prev = Clock::now();  // Probes are not part of the next request.
          continue;
        }
      }
      prev = now;
    }
    return served;
  }

  // Issues one request; true when its result is right.
  bool Execute(Client& c, Kind kind, const uint64_t* keys, uint64_t trace_id) {
    const uint64_t key = keys[0];
    switch (kind) {
      case kLookup: {
        uint64_t value = 0;
        bool found = store_.Lookup(key, value);
        ++c.window.reads;
        if (c.inject) {
          c.inject = false;
          found = true;
          value ^= uint64_t{1} << 63;
        }
        return LookupOk(spec_.workload, key, found, value);
      }
      case kUpsert:
        store_.Upsert(key, Tagged(key, ++c.salt));
        ++c.window.writes;
        return true;
      case kRemove:
        store_.Remove(key);
        ++c.window.writes;
        return true;
      case kScan:
        store_.Scan(key, kScanLength, c.scan_buf);
        ++c.window.reads;
        if (c.inject) {
          c.inject = false;
          c.scan_buf.assign(2, {key, Tagged(key, 0)});  // Not ascending.
        }
        return ScanOk(key, c.scan_buf);
      case kUpdate: {
        // Updates target loaded keys, which no workload removes.
        const uint64_t value = spec_.workload == Workload::kBigMultiget
                                   ? LoadValue(spec_, key)
                                   : Tagged(key, ++c.salt);
        ++c.window.writes;
        return store_.Update(key, value);
      }
      case kBatch: {
        uint64_t values[kBatchKeys] = {};
        bool found[kBatchKeys];
        store_.LookupBatch(keys, kBatchKeys, values, found);
        ++c.window.reads;
        if (c.inject) {
          c.inject = false;
          found[0] = !found[0];
        }
        return BatchOk(keys, kBatchKeys, values, found);
      }
      case kTransfer:
        return Transfer(c, keys, trace_id);
    }
    return false;
  }

  // Reads four balances, adds one to the first two and takes one from the
  // last two, so the total is conserved. A missing account is wrong; the
  // total is checked after the run.
  bool Transfer(Client& c, const uint64_t* keys, uint64_t trace_id) {
    bool ok = true;
    uint64_t body_ns = 0;
    const Clock::time_point run_start =
        trace_id != 0 ? Clock::now() : Clock::time_point();
    optiql::RunTxn<Txn>(store_, c.window.txn, [&](Txn& txn) {
      const Clock::time_point body_start =
          trace_id != 0 ? Clock::now() : Clock::time_point();
      const bool commit = TransferBody(c, txn, keys, trace_id, ok);
      if (trace_id != 0) {
        const Clock::time_point end = Clock::now();
        c.spans.Add(trace_id, kSpanTxnBody, kSpanTxnRun, body_start, end);
        body_ns += Nanos(end - body_start);
      }
      return commit;
    });
    // The committed attempt was the last body run, and it applied any
    // injected fault.
    c.inject = false;
    if (trace_id != 0) {
      const Clock::time_point end = Clock::now();
      c.spans.Add(trace_id, kSpanTxnRun, kSpanRequest, run_start, end);
      c.commit_backoff_ns.push_back(
          static_cast<uint32_t>(Nanos(end - run_start) - body_ns));
    }
    return ok;
  }

  bool TransferBody(Client& c, Txn& txn, const uint64_t* keys,
                    uint64_t trace_id, bool& ok) {
    uint64_t balance[kTransferKeys];
    for (size_t i = 0; i < kTransferKeys; ++i) {
      const Clock::time_point start =
          trace_id != 0 ? Clock::now() : Clock::time_point();
      const optiql::TxnResult r = txn.Get(keys[i], balance[i]);
      ++c.window.reads;
      if (trace_id != 0) {
        c.spans.Add(trace_id, kSpanTxnGet, kSpanTxnBody, start, Clock::now());
      }
      if (r == optiql::TxnResult::kAbort) return false;
      if (r == optiql::TxnResult::kNotFound) {
        ok = false;  // Every account exists.
        return true;
      }
    }
    if (c.inject) balance[0] += 1;  // Writes a wrong balance back.
    for (size_t i = 0; i < kTransferKeys; ++i) {
      txn.Put(keys[i], i < kTransferKeys / 2 ? balance[i] + 1 : balance[i] - 1);
      ++c.window.writes;
    }
    return true;
  }

  // Read-only calls into one layer after a sampled request, rotating over
  // five probes. Paired probes alternate which side runs first, so neither
  // always finds the other's cache lines.
  void Probe(Client& c, uint64_t id, uint64_t key) {
    const uint64_t turn = c.sampled / kProbeKinds;
    switch (c.sampled % kProbeKinds) {
      case 0: {
        const Clock::time_point start = Clock::now();
        const size_t shard = store_.ShardIndexOf(key);
        c.spans.Add(id, kSpanRoute, kSpanRequest, start, Clock::now());
        ++c.shard_hits[shard];
        break;
      }
      case 1: {
        const Tree& shard = store_.ShardAt(store_.ShardIndexOf(key));
        uint64_t value = 0;
        TimePair(
            c, id, turn, kSpanStoreLookup,
            [&] { store_.Lookup(key, value); }, kSpanIndexLookup,
            [&] { shard.Lookup(key, value); });
        break;
      }
      case 2: {
        const Tree& shard = store_.ShardAt(store_.ShardIndexOf(key));
        TimePair(
            c, id, turn, kSpanStoreScan,
            [&] { store_.Scan(key, kScanLength, c.scan_buf); },
            kSpanIndexScan, [&] { shard.Scan(key, kScanLength, c.scan_buf); });
        break;
      }
      case 3: {
        const size_t s = store_.ShardIndexOf(key);
        const Tree& shard = store_.ShardAt(s);
        uint64_t anywhere[kBatchKeys], in_shard[kBatchKeys];
        uint64_t values[kBatchKeys];
        bool found[kBatchKeys];
        const auto [begin, last] = spans_[s];
        for (size_t i = 0; i < kBatchKeys; ++i) {
          anywhere[i] = c.probe_rng.NextBounded(spec_.key_space);
          in_shard[i] = begin + c.probe_rng.NextBounded(last - begin + 1);
        }
        TimePair(
            c, id, turn, kSpanStoreBatch,
            [&] { store_.LookupBatch(anywhere, kBatchKeys, values, found); },
            kSpanIndexBatch,
            [&] { shard.LookupBatch(in_shard, kBatchKeys, values, found); });
        break;
      }
      default: {
        const Clock::time_point start = Clock::now();
        { optiql::EpochGuard guard; }
        c.spans.Add(id, kSpanEpochGuard, kSpanRequest, start, Clock::now());
        // Read mid-run: exiting client threads drain their retire lists,
        // so between windows the backlog is always empty.
        const auto& epochs = optiql::EpochManager::Instance();
        const uint64_t reclaimed = epochs.TotalReclaimed();
        c.retire_backlog.push_back(epochs.TotalRetired() - reclaimed);
        break;
      }
    }
  }

  template <class First, class Second>
  static void TimePair(Client& c, uint64_t id, uint64_t turn, SpanName a,
                       First&& call_a, SpanName b, Second&& call_b) {
    for (int i = 0; i < 2; ++i) {
      const bool run_a = (i == 0) == (turn % 2 == 0);
      const Clock::time_point start = Clock::now();
      if (run_a) {
        call_a();
      } else {
        call_b();
      }
      c.spans.Add(id, run_a ? a : b, kSpanRequest, start, Clock::now());
    }
  }

  const Spec& spec_;
  Store& store_;
  std::vector<Client> clients_;
  std::pair<uint64_t, uint64_t> spans_[kShards] = {};
};

// --- Layer counters read between windows (clients stopped) ---

struct Counters {
  uint64_t read_restarts = 0;
  uint64_t write_restarts = 0;
  uint64_t smo = 0;  // Splits, merges and borrows.
  optiql::LockTelemetry::Snapshot lock;
  uint64_t retired = 0;
};

Counters ReadCounters(const Store& store) {
  Counters c;
  for (size_t s = 0; s < store.ShardCount(); ++s) {
    const Tree::Stats st = store.ShardAt(s).GetStats();
    c.read_restarts += st.read_restarts;
    c.write_restarts += st.write_restarts;
    c.smo += st.leaf_splits + st.inner_splits + st.leaf_merges +
             st.inner_merges + st.rebalance_borrows;
  }
  c.lock = optiql::LockTelemetry::Take();
  c.retired = optiql::EpochManager::Instance().TotalRetired();
  return c;
}

// --- Output ---

class JsonOut {
 public:
  void Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
  }
  void Str(const char* key, const std::string& value) {
    Key(key);
    out_ += '"' + value + '"';
  }
  void Num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(value) ? value : 0);
    Raw(key, buf);
  }
  void Int(const char* key, uint64_t value) {
    Raw(key, std::to_string(value));
  }
  void Bool(const char* key, bool value) { Raw(key, value ? "true" : "false"); }
  void Metric(const char* name, double value, const char* unit,
              uint64_t samples) {
    JsonOut m;
    m.Num("value", value);
    m.Str("unit", unit);
    m.Int("samples", samples);
    Raw(name, m.str());
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  void Key(const char* key) {
    if (!out_.empty()) out_ += ", ";
    out_ += '"';
    out_ += key;
    out_ += "\": ";
  }
  std::string out_;
};

struct Options {
  const Spec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  std::string source_id = "unknown";
  std::string spans_path;
  bool inject_wrong = false;
  bool selftest = false;
};

// The measured store plus what building it cost.
struct Loaded {
  std::unique_ptr<Store> store;
  double setup_s = 0;        // Median time of the timed builds.
  double bytes_per_key = 0;  // RSS growth of the first build per key.
  int reps = 0;              // Builds made, untimed ones included.
};

// Builds and loads the store repeatedly; keeps the last build.
//
// The first build runs on fresh memory and gives bytes_per_key. It is not
// timed: faulting pages in costs what the host charges at the moment, and
// a 16M-key build drifted from 0.6 s to 1.0 s within minutes on the
// reference box. From then on the allocator keeps what is freed, a second
// build warms that memory, and setup_s is the median of the builds after
// it: the work of constructing the store and loading it.
Loaded SetUp(const Spec& spec) {
  Pairs pairs;
  pairs.reserve(LoadedKeys(spec));
  for (uint64_t key = 0; key < spec.key_space; key += spec.load_stride) {
    pairs.emplace_back(key, LoadValue(spec, key));
  }
  Loaded loaded;
  const auto build = [&] {
    loaded.store.reset();
    const Clock::time_point start = Clock::now();
    loaded.store = std::make_unique<Store>(
        kShards, optiql::RangeShardRouter::EvenOver(spec.key_space, kShards));
    loaded.store->BulkLoad(pairs);
    ++loaded.reps;
    return Seconds(Clock::now() - start);
  };
  const int64_t rss_before = RssBytes();
  build();
  loaded.bytes_per_key = static_cast<double>(RssBytes() - rss_before) /
                         static_cast<double>(loaded.store->Size());
  // Keep freed memory, large blocks included, in the heap for reuse.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
  build();
  std::vector<double> times;
  double total = 0;
  while (times.size() < kMinTimedBuilds ||
         (total < kSetupBudgetSeconds && times.size() < kMaxTimedBuilds)) {
    times.push_back(build());
    total += times.back();
  }
  loaded.setup_s = Median(times);
  return loaded;
}

// Sums every balance; false if an account is missing.
bool TotalBalance(const Store& store, uint64_t accounts, uint64_t& total) {
  Pairs chunk;
  uint64_t seen = 0;
  total = 0;
  for (uint64_t start = 0;;) {
    store.Scan(start, 4096, chunk);
    for (const auto& [key, value] : chunk) total += value;
    seen += chunk.size();
    if (chunk.size() < 4096) break;
    start = chunk.back().first + 1;
  }
  return seen == accounts;
}

void WriteSpans(const std::string& path, const std::vector<Client>& clients) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "storebench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "request\tname\tparent\tstart_ns\tduration_ns\n");
  // An equal share of the cap from every client.
  const size_t per_client = kMaxSpansWritten / clients.size();
  for (const Client& c : clients) {
    const std::vector<Span>& spans = c.spans.spans();
    for (size_t i = 0; i < std::min(per_client, spans.size()); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%" PRIx64 "\t%s\t%s\t%" PRIu64 "\t%u\n", s.request,
                   SpanLabel(s.name), SpanLabel(s.parent), s.start_ns,
                   s.duration_ns);
    }
  }
  std::fclose(f);
}

// Latency percentiles of one request class, one entry per window.
struct Percentiles {
  std::vector<double> p50_us, p99_us;
  uint64_t samples = 0;

  void Add(std::vector<uint32_t>& ns) {
    if (ns.empty()) return;
    samples += ns.size();
    p50_us.push_back(Quantile(ns, 0.50) / 1e3);
    p99_us.push_back(Quantile(ns, 0.99) / 1e3);
  }
};

// What the measured windows add up to.
struct Tally {
  std::vector<double> mops;
  Percentiles all, by_class[kNumClasses];
  uint64_t requests = 0, reads = 0, writes = 0;
  optiql::TxnStats txn;

  void AddWindow(const std::vector<Client>& clients, double seconds) {
    std::vector<uint32_t> merged;
    for (int k = 0; k < kNumClasses; ++k) {
      std::vector<uint32_t> ns;
      for (const Client& c : clients) {
        ns.insert(ns.end(), c.window.latency_ns[k].begin(),
                  c.window.latency_ns[k].end());
      }
      merged.insert(merged.end(), ns.begin(), ns.end());
      by_class[k].Add(ns);
    }
    mops.push_back(static_cast<double>(merged.size()) / seconds / 1e6);
    all.Add(merged);
    for (const Client& c : clients) {
      requests += c.window.requests;
      reads += c.window.reads;
      writes += c.window.writes;
      txn += c.window.txn;
    }
  }
};

JsonOut EndToEndMetrics(const Tally& t, const Loaded& loaded,
                        const Spec& spec, uint64_t attempted,
                        uint64_t failed) {
  JsonOut out;
  const auto latency = [&](const char* name, const std::vector<double>& us,
                           uint64_t samples) {
    if (samples > 0) out.Metric(name, MiddleMean(us), "us", samples);
  };
  const Percentiles& get = t.by_class[kGetClass];
  const Percentiles& put = t.by_class[kPutClass];
  const Percentiles& scan = t.by_class[kScanClass];
  const Percentiles& txn = t.by_class[kTxnClass];
  out.Metric("throughput_mops", MiddleMean(t.mops), "Mops/s", t.requests);
  latency("latency_p50_us", t.all.p50_us, t.all.samples);
  latency("latency_p99_us", t.all.p99_us, t.all.samples);
  latency("get_p50_us", get.p50_us, get.samples);
  latency("get_p99_us", get.p99_us, get.samples);
  latency("put_p99_us", put.p99_us, put.samples);
  latency("scan_p99_us", scan.p99_us, scan.samples);
  latency("txn_p50_us", txn.p50_us, txn.samples);
  latency("txn_p99_us", txn.p99_us, txn.samples);
  out.Metric("failed_frac",
             static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio", attempted);
  out.Metric("setup_s", loaded.setup_s, "s",
             static_cast<uint64_t>(loaded.reps));
  out.Metric("mem_bytes_per_key", loaded.bytes_per_key, "B/key",
             LoadedKeys(spec));
  return out;
}

// Per-layer metrics of a traced run (README.md has the map to the
// end-to-end metrics). A metric whose layer the workload never reaches
// reads 0 with 0 samples.
JsonOut LayerMetrics(const std::vector<Client>& clients, const Store& store,
                     const Counters& first, const Counters& last,
                     const Tally& t) {
  std::vector<uint32_t> durations[kNumSpanNames];
  std::vector<uint32_t> backoff;
  double backlog_sum = 0;
  uint64_t backlog_samples = 0;
  uint64_t shard_hits[kShards] = {};
  for (const Client& c : clients) {
    for (const Span& s : c.spans.spans()) {
      durations[s.name].push_back(s.duration_ns);
    }
    backoff.insert(backoff.end(), c.commit_backoff_ns.begin(),
                   c.commit_backoff_ns.end());
    for (uint64_t b : c.retire_backlog) backlog_sum += static_cast<double>(b);
    backlog_samples += c.retire_backlog.size();
    for (size_t s = 0; s < kShards; ++s) shard_hits[s] += c.shard_hits[s];
  }
  const auto med = [&](SpanName n) { return Median(durations[n]); };
  const auto count = [&](SpanName n) {
    return static_cast<uint64_t>(durations[n].size());
  };
  const auto per = [](double num, uint64_t den) {
    return den == 0 ? 0.0 : num / static_cast<double>(den);
  };
  const auto delta = [](uint64_t now, uint64_t before) {
    return static_cast<double>(now - before);
  };
  uint64_t hits_total = 0, hits_max = 0;
  for (uint64_t h : shard_hits) {
    hits_total += h;
    hits_max = std::max(hits_max, h);
  }
  int height = 0;
  for (size_t s = 0; s < store.ShardCount(); ++s) {
    height = std::max(height, store.ShardAt(s).Height());
  }
  const uint64_t attempts = t.txn.commits + t.txn.aborts;

  JsonOut out;
  out.Metric("store.route_ns", med(kSpanRoute), "ns", count(kSpanRoute));
  out.Metric("store.lookup_overhead_ns",
             med(kSpanStoreLookup) - med(kSpanIndexLookup), "ns",
             count(kSpanStoreLookup));
  out.Metric("store.scan_overhead_ns",
             med(kSpanStoreScan) - med(kSpanIndexScan), "ns",
             count(kSpanStoreScan));
  out.Metric("store.batch_ns_per_key", med(kSpanStoreBatch) / kBatchKeys,
             "ns", count(kSpanStoreBatch));
  out.Metric("store.shard_op_share_max",
             per(static_cast<double>(hits_max), hits_total), "ratio",
             hits_total);
  out.Metric("index.lookup_ns", med(kSpanIndexLookup), "ns",
             count(kSpanIndexLookup));
  out.Metric("index.batch16_ns_per_key", med(kSpanIndexBatch) / kBatchKeys,
             "ns", count(kSpanIndexBatch));
  out.Metric("index.read_restarts_per_op",
             per(delta(last.read_restarts, first.read_restarts), t.reads),
             "1/op", t.reads);
  out.Metric("index.write_restarts_per_op",
             per(delta(last.write_restarts, first.write_restarts), t.writes),
             "1/op", t.writes);
  out.Metric("index.smo_per_kop",
             per(1e3 * delta(last.smo, first.smo), t.requests), "1/kop",
             t.requests);
  out.Metric("index.height", height, "count", kShards);
  out.Metric("lock.opt_restarts_per_read",
             per(delta(last.lock.restarts(), first.lock.restarts()), t.reads),
             "1/op", t.reads);
  out.Metric("lock.excl_waits_per_write",
             per(delta(last.lock.waits(), first.lock.waits()), t.writes),
             "1/op", t.writes);
  out.Metric("epoch.guard_ns", med(kSpanEpochGuard), "ns",
             count(kSpanEpochGuard));
  out.Metric("epoch.retired_per_kop",
             per(1e3 * delta(last.retired, first.retired), t.requests),
             "1/kop", t.requests);
  out.Metric("epoch.retire_backlog", per(backlog_sum, backlog_samples),
             "count", backlog_samples);
  out.Metric("txn.abort_ratio",
             per(static_cast<double>(t.txn.aborts), attempts), "ratio",
             attempts);
  out.Metric("txn.get_ns", med(kSpanTxnGet), "ns", count(kSpanTxnGet));
  out.Metric("txn.commit_backoff_ns", Median(backoff), "ns", backoff.size());
  return out;
}

// End-of-run checks; each names one wrong result.
std::vector<std::string> EndChecks(const Spec& spec, const Store& store,
                                   uint64_t routing_version) {
  std::vector<std::string> failures;
  if (store.RoutingVersion() != routing_version) {
    failures.push_back("routing version moved");
  }
  if ((spec.workload == Workload::kHotUpdate ||
       spec.workload == Workload::kBigMultiget) &&
      store.Size() != LoadedKeys(spec)) {
    failures.push_back("key count changed");
  }
  if (spec.workload == Workload::kTxnTransfer) {
    uint64_t total = 0;
    if (!TotalBalance(store, LoadedKeys(spec), total)) {
      failures.push_back("account missing");
    }
    if (!BalanceOk(LoadedKeys(spec), total)) {
      failures.push_back("balance total changed");
    }
  }
  return failures;
}

int Run(const Options& opt) {
  const Spec& spec = *opt.spec;

  std::vector<Stream> streams;
  uint64_t digest = 0;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(MakeStream(spec, opt.seed, t));
    digest = optiql::Mix64(digest ^ Digest(streams.back()));
  }

  const Loaded loaded = SetUp(spec);
  Store& store = *loaded.store;
  const uint64_t routing_version = store.RoutingVersion();

  const int window_ms =
      static_cast<int>(std::clamp(opt.seconds * 50.0, 50.0, 500.0));
  const int windows = std::max(
      1, static_cast<int>(std::lround(opt.seconds * 1000.0 / window_ms)));

  Bench bench(spec, store, streams, opt.seed, opt.inject_wrong);
  std::vector<Client>& clients = bench.clients();
  uint64_t attempted = 0, failed = 0;
  Tally tally;
  Counters first;
  for (int w = -1; w < windows; ++w) {  // Window -1 warms up.
    for (Client& c : clients) c.window.Reset();
    if (w == 0) {
      for (Client& c : clients) c.ResetTrace();
      first = ReadCounters(store);
    }
    const double seconds = bench.RunWindow(window_ms);
    store.CheckInvariants();
    for (const Client& c : clients) {
      attempted += c.window.requests;
      failed += c.window.failed;
    }
    if (w >= 0) tally.AddWindow(clients, seconds);
  }
  const Counters last = ReadCounters(store);

  for (const std::string& f : EndChecks(spec, store, routing_version)) {
    std::fprintf(stderr, "storebench: check failed: %s\n", f.c_str());
    ++failed;
  }

  JsonOut meta;
  meta.Str("workload", spec.name);
  meta.Int("seed", opt.seed);
  meta.Bool("traced", kTraced);
  meta.Str("source_id", opt.source_id);
  meta.Int("nproc", static_cast<uint64_t>(AffinityCpus()));
  meta.Int("hardware_threads", std::thread::hardware_concurrency());
  meta.Str("compiler", kCompiler);
  meta.Str("build_type", E2E_BUILD_TYPE);
  meta.Str("simd", optiql::simd::kBackendName);
  meta.Int("threads", kThreads);
  meta.Int("shards", kShards);
  meta.Int("windows", static_cast<uint64_t>(windows));
  meta.Int("window_ms", static_cast<uint64_t>(window_ms));
  meta.Int("setup_reps", static_cast<uint64_t>(loaded.reps));
  meta.Int("sample_every", kTraced ? kSampleEvery : 0);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64, digest);
  meta.Str("stream_digest", digest_hex);

  std::string window_mops;
  for (double m : tally.mops) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", window_mops.empty() ? "" : ", ",
                  m);
    window_mops += buf;
  }

  JsonOut result;
  result.Raw("meta", meta.str());
  result.Bool("correct", failed == 0);
  result.Int("attempted", attempted);
  result.Int("failed", failed);
  result.Raw("end_to_end",
             EndToEndMetrics(tally, loaded, spec, attempted, failed).str());
  if constexpr (kTraced) {
    result.Raw("per_layer",
               LayerMetrics(clients, store, first, last, tally).str());
    if (!opt.spans_path.empty()) WriteSpans(opt.spans_path, clients);
  } else {
    result.Raw("per_layer", "{}");
  }
  result.Raw("window_mops", "[" + window_mops + "]");
  std::printf("%s\n", result.str().c_str());
  return 0;
}

// --- Self-test: op streams are reproducible, and the checks reject wrong
// results ---

int SelfTest() {
  int failures = 0;
  int checks = 0;
  const auto expect = [&](bool condition, const char* what) {
    ++checks;
    if (!condition) {
      ++failures;
      std::fprintf(stderr, "selftest: FAILED %s\n", what);
    }
  };
  for (const Spec& spec : kSpecs) {
    const Stream a = MakeStream(spec, 42, 1);
    const Stream b = MakeStream(spec, 42, 1);
    const Stream c = MakeStream(spec, 43, 1);
    expect(a.kinds == b.kinds && a.keys == b.keys,
           "same seed gives identical op streams");
    expect(Digest(a) == Digest(b), "same seed gives the same digest");
    expect(Digest(a) != Digest(c), "another seed gives another stream");
    bool in_range = true;
    for (uint64_t key : a.keys) in_range &= key < spec.key_space;
    expect(in_range, "stream keys fall in the key space");
  }
  using P = std::pair<uint64_t, uint64_t>;
  expect(LookupOk(Workload::kKvMixed, 5, true, Tagged(5, 7)), "right hit");
  expect(LookupOk(Workload::kKvMixed, 5, false, 0), "kv miss allowed");
  expect(!LookupOk(Workload::kKvMixed, 5, true, Tagged(6, 7)),
         "hit with another key's tag is wrong");
  expect(!LookupOk(Workload::kHotUpdate, 5, false, 0),
         "hot_update miss is wrong");
  expect(ScanOk(10, {P{10, Tagged(10, 0)}, P{12, Tagged(12, 1)}}),
         "right scan");
  expect(!ScanOk(10, {P{9, Tagged(9, 0)}}), "scan before its start is wrong");
  expect(!ScanOk(10, {P{12, Tagged(12, 0)}, P{12, Tagged(12, 0)}}),
         "scan not strictly ascending is wrong");
  expect(!ScanOk(10, {P{11, Tagged(12, 0)}}), "scan with a foreign tag");
  const uint64_t keys[2] = {4, 5};
  const uint64_t values[2] = {2, 0};
  const bool found[2] = {true, false};
  const bool found_odd[2] = {true, true};
  const uint64_t wrong_values[2] = {3, 0};
  expect(BatchOk(keys, 2, values, found), "right batch");
  expect(!BatchOk(keys, 2, values, found_odd), "odd key found is wrong");
  expect(!BatchOk(keys, 2, wrong_values, found), "wrong batch value");
  expect(BalanceOk(10, 10 * kBalance), "conserved balance");
  expect(!BalanceOk(10, 10 * kBalance + 1), "changed balance is wrong");
  std::printf("selftest: %d of %d checks passed\n", checks - failures, checks);
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: storebench --workload NAME --seed N --seconds S "
               "[--source-id ID] [--spans FILE] [--inject-wrong]\n"
               "       storebench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      opt.selftest = true;
    } else if (arg == "--inject-wrong") {
      opt.inject_wrong = true;
    } else if (arg == "--workload" && has_value) {
      opt.spec = e2e::FindSpec(argv[++i]);
      if (opt.spec == nullptr) return e2e::Usage();
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--source-id" && has_value) {
      opt.source_id = argv[++i];
      // It lands in a JSON string unescaped.
      for (char& ch : opt.source_id) {
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '-') {
          ch = '_';
        }
      }
    } else if (arg == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else {
      return e2e::Usage();
    }
  }
  if (opt.selftest) return e2e::SelfTest();
  if (opt.spec == nullptr || !(opt.seconds > 0)) return e2e::Usage();
  return e2e::Run(opt);
}
