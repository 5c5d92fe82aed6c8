// Test-only ordered index: a std::map under one std::shared_mutex. It
// satisfies IndexLike + HasScanOp, and every operation is pessimistically
// locked, so the store-level suites built on it (ShardedStore reshard
// storms, trace-replay partitioning, the generic batched fallback) run
// race-free under ThreadSanitizer. No B+-tree can host them there: every
// B+-tree variant reads its inner nodes optimistically, which TSan reports
// by design.
#ifndef OPTIQL_TESTS_MAP_INDEX_H_
#define OPTIQL_TESTS_MAP_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

namespace optiql {

class MapIndex {
 public:
  bool Insert(uint64_t key, uint64_t value) {
    std::unique_lock lock(mu_);
    return map_.emplace(key, value).second;
  }

  bool Update(uint64_t key, uint64_t value) {
    std::unique_lock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    it->second = value;
    return true;
  }

  void Upsert(uint64_t key, uint64_t value) {
    std::unique_lock lock(mu_);
    map_[key] = value;
  }

  bool Remove(uint64_t key) {
    std::unique_lock lock(mu_);
    return map_.erase(key) == 1;
  }

  bool Lookup(uint64_t key, uint64_t& out) const {
    std::shared_lock lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    out = it->second;
    return true;
  }

  size_t Scan(uint64_t start, size_t limit,
              std::vector<std::pair<uint64_t, uint64_t>>& out) const {
    out.clear();
    std::shared_lock lock(mu_);
    for (auto it = map_.lower_bound(start);
         it != map_.end() && out.size() < limit; ++it) {
      out.push_back(*it);
    }
    return out.size();
  }

  size_t Size() const {
    std::shared_lock lock(mu_);
    return map_.size();
  }

  // std::map keeps its own order; there is no structure to check. Present
  // so ShardedStore::CheckInvariants works over map shards.
  void CheckInvariants() const {}

 private:
  mutable std::shared_mutex mu_;
  std::map<uint64_t, uint64_t> map_;
};

}  // namespace optiql

#endif  // OPTIQL_TESTS_MAP_INDEX_H_
