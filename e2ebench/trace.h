// In-memory spans for the traced build of the store benchmark. A span is
// recorded by the benchmark's own code around one call into a layer's
// public function; every span of one sampled request shares its request
// id, and names the span that caused it. Spans stay in per-thread memory
// until the run ends.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <vector>

namespace e2e {

enum SpanName : uint8_t {
  kSpanRequest,      // The sampled request itself (the client's call).
  kSpanRoute,        // store.ShardIndexOf(key)
  kSpanStoreLookup,  // store.Lookup(key)
  kSpanIndexLookup,  // store.ShardAt(s).Lookup(key)
  kSpanStoreScan,    // store.Scan(key, 16)
  kSpanIndexScan,    // store.ShardAt(s).Scan(key, 16)
  kSpanStoreBatch,   // store.LookupBatch over 16 keys of the whole space
  kSpanIndexBatch,   // store.ShardAt(s).LookupBatch over 16 keys of shard s
  kSpanEpochGuard,   // An empty EpochGuard.
  kSpanTxnRun,       // RunTxn, first attempt to commit.
  kSpanTxnBody,      // One attempt's body.
  kSpanTxnGet,       // OccTxn::Get
  kNumSpanNames,
  kNoParent = 0xff,
};

inline const char* SpanLabel(SpanName name) {
  static constexpr const char* kLabels[kNumSpanNames] = {
      "request",     "store.route",  "store.lookup", "index.lookup",
      "store.scan",  "index.scan",   "store.batch16", "index.batch16",
      "epoch.guard", "txn.run",      "txn.body",     "txn.get"};
  return name < kNumSpanNames ? kLabels[name] : "none";
}

struct Span {
  uint64_t request;      // Shared by every span of one sampled request.
  uint64_t start_ns;     // Since the log was created.
  uint32_t duration_ns;
  SpanName name;
  SpanName parent;       // kNoParent for the request itself.
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  void Add(uint64_t request, SpanName name, SpanName parent,
           Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{request, Nanos(start - origin_),
                          static_cast<uint32_t>(Nanos(end - start)), name,
                          parent});
  }

  void Clear() { spans_.clear(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static uint64_t Nanos(Clock::duration d) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

}  // namespace e2e

#endif  // E2EBENCH_TRACE_H_
