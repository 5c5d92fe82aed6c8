#include "workload.h"

#include "common/random.h"
#include "workload/distributions.h"

namespace e2e {

Class ClassOf(Kind kind) {
  switch (kind) {
    case kLookup:
    case kBatch:
      return kGetClass;
    case kUpsert:
    case kRemove:
    case kUpdate:
      return kPutClass;
    case kScan:
      return kScanClass;
    case kTransfer:
      return kTxnClass;
  }
  return kGetClass;
}

const Spec* FindSpec(std::string_view name) {
  for (const Spec& spec : kSpecs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t LoadedKeys(const Spec& spec) {
  return (spec.key_space + spec.load_stride - 1) / spec.load_stride;
}

uint64_t LoadValue(const Spec& spec, uint64_t key) {
  switch (spec.workload) {
    case Workload::kBigMultiget:
      return key / 2;
    case Workload::kTxnTransfer:
      return kBalance;
    default:
      return Tagged(key, 0);
  }
}

Stream MakeStream(const Spec& spec, uint64_t seed, int thread) {
  optiql::Xoshiro256 rng(optiql::Mix64(seed) +
                         static_cast<uint64_t>(thread) * 0x9e3779b97f4a7c15ULL);
  const size_t n = spec.ring_requests;
  const size_t k = spec.keys_per_request;
  Stream stream;
  stream.kinds.resize(n);
  stream.keys.resize(n * k);
  switch (spec.workload) {
    case Workload::kKvMixed: {
      // The kv_store session mix: 10% upsert, 10% remove, 10% scan, 70% get.
      const optiql::SelfSimilarDistribution keys(spec.key_space, 0.2);
      for (size_t i = 0; i < n; ++i) {
        stream.keys[i] = keys.Next(rng);
        const uint64_t pick = rng.NextBounded(10);
        stream.kinds[i] = pick == 0   ? kUpsert
                          : pick == 1 ? kRemove
                          : pick == 2 ? kScan
                                      : kLookup;
      }
      break;
    }
    case Workload::kHotUpdate: {
      const optiql::SelfSimilarDistribution keys(spec.key_space, 0.05);
      for (size_t i = 0; i < n; ++i) {
        stream.keys[i] = keys.Next(rng);
        stream.kinds[i] = rng.NextBounded(2) == 0 ? kLookup : kUpdate;
      }
      break;
    }
    case Workload::kBigMultiget: {
      // 95% 16-key batches over the whole space (half miss), 5% updates of
      // a loaded (even) key; an update uses only the first key slot.
      const optiql::UniformDistribution keys(spec.key_space);
      const optiql::UniformDistribution loaded(LoadedKeys(spec));
      for (size_t i = 0; i < n; ++i) {
        uint64_t* request = &stream.keys[i * k];
        if (rng.NextBounded(100) < 5) {
          stream.kinds[i] = kUpdate;
          request[0] = loaded.Next(rng) * spec.load_stride;
        } else {
          stream.kinds[i] = kBatch;
          for (size_t j = 0; j < k; ++j) request[j] = keys.Next(rng);
        }
      }
      break;
    }
    case Workload::kTxnTransfer: {
      // Four distinct accounts per transfer.
      const optiql::ZipfianDistribution keys(spec.key_space, 0.9);
      for (size_t i = 0; i < n; ++i) {
        uint64_t* request = &stream.keys[i * k];
        stream.kinds[i] = kTransfer;
        for (size_t j = 0; j < k;) {
          const uint64_t key = keys.Next(rng);
          bool repeat = false;
          for (size_t m = 0; m < j; ++m) repeat |= request[m] == key;
          if (!repeat) request[j++] = key;
        }
      }
      break;
    }
  }
  return stream;
}

uint64_t Digest(const Stream& stream) {
  uint64_t h =
      optiql::Mix64(stream.kinds.size() ^ (stream.keys.size() << 32));
  for (uint8_t kind : stream.kinds) h = optiql::Mix64(h ^ kind);
  for (uint64_t key : stream.keys) h = optiql::Mix64(h ^ key);
  return h;
}

bool LookupOk(Workload w, uint64_t key, bool found, uint64_t value) {
  // hot_update never removes, so every one of its lookups must hit.
  if (!found) return w != Workload::kHotUpdate;
  return CarriesKey(key, value);
}

bool ScanOk(uint64_t start,
            const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
  if (pairs.size() > kScanLength) return false;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const uint64_t key = pairs[i].first;
    if (key < start || (i > 0 && key <= pairs[i - 1].first)) return false;
    if (!CarriesKey(key, pairs[i].second)) return false;
  }
  return true;
}

bool BatchOk(const uint64_t* keys, size_t n, const uint64_t* values,
             const bool* found) {
  for (size_t i = 0; i < n; ++i) {
    if (found[i] != (keys[i] % 2 == 0)) return false;
    if (found[i] && values[i] != keys[i] / 2) return false;
  }
  return true;
}

bool BalanceOk(uint64_t accounts, uint64_t total) {
  return total == accounts * kBalance;
}

}  // namespace e2e
