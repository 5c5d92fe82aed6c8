// Workload definitions of the end-to-end store benchmark: the four request
// mixes, their seeded per-thread op streams, the values the store is
// loaded with, and the checks every result goes through. Nothing here
// touches the store, so the self-test can feed the checks wrong results
// directly.
#ifndef E2EBENCH_WORKLOAD_H_
#define E2EBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace e2e {

enum class Workload { kKvMixed, kHotUpdate, kBigMultiget, kTxnTransfer };

// Request kinds as they appear in an op stream.
enum Kind : uint8_t {
  kLookup,
  kUpsert,
  kRemove,
  kScan,
  kUpdate,
  kBatch,
  kTransfer,
};

// Latency classes the end-to-end metrics break out.
enum Class : uint8_t { kGetClass, kPutClass, kScanClass, kTxnClass, kNumClasses };

Class ClassOf(Kind kind);

struct Spec {
  Workload workload;
  const char* name;
  uint64_t key_space;      // Request keys fall in [0, key_space).
  uint64_t load_stride;    // Loaded keys: 0, stride, 2 * stride, ...
  size_t keys_per_request;
  size_t ring_requests;    // Per-thread stream length; the stream wraps.
};

inline constexpr Spec kSpecs[] = {
    {Workload::kKvMixed, "kv_mixed", 1'000'000, 2, 1, size_t{1} << 20},
    {Workload::kHotUpdate, "hot_update", 100'000, 1, 1, size_t{1} << 20},
    {Workload::kBigMultiget, "big_multiget", 32'000'000, 2, 16,
     size_t{1} << 17},
    {Workload::kTxnTransfer, "txn_transfer", 1'000'000, 1, 4,
     size_t{1} << 18},
};

const Spec* FindSpec(std::string_view name);

inline constexpr size_t kScanLength = 16;
inline constexpr size_t kBatchKeys = 16;
inline constexpr size_t kTransferKeys = 4;
// Starting balance of every txn_transfer account; transfers move one unit.
inline constexpr uint64_t kBalance = uint64_t{1} << 32;

uint64_t LoadedKeys(const Spec& spec);

// kv_mixed and hot_update values carry their key in the high 32 bits (keys
// stay below 2^32), so a hit can be checked against its own key whatever
// write last touched it.
inline uint64_t Tagged(uint64_t key, uint64_t salt) {
  return (key << 32) | (salt & 0xffffffffu);
}
inline bool CarriesKey(uint64_t key, uint64_t value) {
  return value >> 32 == key;
}

// Value the store is loaded with, and what big_multiget updates write back.
uint64_t LoadValue(const Spec& spec, uint64_t key);

// --- Seeded op streams ---

struct Stream {
  std::vector<uint8_t> kinds;   // One Kind per request.
  std::vector<uint64_t> keys;   // keys_per_request keys per request.
};

// The same (spec, seed, thread) always gives the same bytes.
Stream MakeStream(const Spec& spec, uint64_t seed, int thread);
uint64_t Digest(const Stream& stream);

// --- Result checks: true when the result is right ---

bool LookupOk(Workload w, uint64_t key, bool found, uint64_t value);
// Strictly ascending, starting at or after `start`, at most kScanLength
// pairs, and every value carries its key.
bool ScanOk(uint64_t start,
            const std::vector<std::pair<uint64_t, uint64_t>>& pairs);
// big_multiget: found[i] must say "key is even", and a hit must be key / 2.
bool BatchOk(const uint64_t* keys, size_t n, const uint64_t* values,
             const bool* found);
// txn_transfer: the balances must still add up to kBalance per account.
bool BalanceOk(uint64_t accounts, uint64_t total);

}  // namespace e2e

#endif  // E2EBENCH_WORKLOAD_H_
