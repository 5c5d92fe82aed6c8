// Routing layer for ShardedStore: versioned, epoch-published routing
// tables (DESIGN.md §14).
//
// A router POLICY (HashShardRouter / RangeShardRouter) names a TABLE type
// and builds the initial instance; the store publishes tables through a
// single std::atomic<const Table*> that every operation loads once, under
// its EpochGuard, and uses for the whole op. Replaced tables retire through
// the epoch layer, so a reader pinned on an old table keeps a fully valid
// snapshot until its guard closes — routing changes never require stopping
// readers.
//
//   HashRoutingTable  — full-avalanche Mix64 partitioning over a fixed
//                       shard count. No spans, no resharding; scans are
//                       scatter-gather (every shard may hold any range).
//   RangeRoutingTable — sorted spans over the u64 key space, one shard per
//                       span. Scans walk only the spans the range
//                       intersects, in key order (no k-way merge at all:
//                       span segments concatenate). Supports an online
//                       migration window (ShardMigration) during which one
//                       span is double-routed between a source and a
//                       target shard.
//
// Double-routing window (split/merge handover): the migrating span's keys
// live authoritatively in the SOURCE shard for the entire window (the
// source decides insert/remove success), while every write also applies to
// the TARGET. A watermark tracks copy progress: keys below it are fully
// mirrored in the target, and reads prefer the target for them. The copier
// takes the per-migration gate exclusively per chunk; writers over the
// migrating span take it shared around their source+target pair, which
// makes each write atomic with respect to chunk copies — without the gate,
// a copier could re-insert into the target a key a concurrent writer just
// removed from both shards (resurrection), or overwrite a fresher write
// with a stale scan snapshot. The OptiCheck scenario `reshard_handover_2`
// model-checks exactly this window.
#ifndef OPTIQL_STORE_ROUTING_H_
#define OPTIQL_STORE_ROUTING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "common/check.h"
#include "common/random.h"

namespace optiql {

// Where one key's ops go under a pinned table. Steady state: all three
// name the same shard slot and co_write is -1. Inside a migration window,
// `write` is the authoritative (source) shard, `co_write` the mirror
// (target), and `read` prefers the target once the key has been copied.
struct KeyRoute {
  uint32_t read;
  uint32_t write;
  int32_t co_write;  // -1 when no double-apply is required.

  bool DoubleApply() const { return co_write >= 0; }
};

// State of one in-flight span migration, shared by every table version
// that participates in the window (shared_ptr: the state outlives any
// individual table snapshot that references it).
struct ShardMigration {
  uint64_t begin;  // First key of the moving span.
  uint64_t last;   // Inclusive upper bound (UINT64_MAX for the top span).
  uint32_t source;  // Authoritative shard slot during the window.
  uint32_t target;  // Mirror slot; owns the span after the window closes.

  // Keys strictly below the watermark are fully copied into the target.
  std::atomic<uint64_t> watermark;
  // Set instead of watermark = last + 1 when last == UINT64_MAX.
  std::atomic<bool> all_moved{false};

  // Copier exclusive per chunk; span writers shared per op. See header
  // comment for why the pairing must be atomic against chunk copies.
  mutable std::shared_mutex gate;

  ShardMigration(uint64_t b, uint64_t l, uint32_t src, uint32_t dst)
      : begin(b), last(l), source(src), target(dst), watermark(b) {}

  bool Covers(uint64_t key) const { return key >= begin && key <= last; }

  bool Moved(uint64_t key) const {
    return all_moved.load(std::memory_order_acquire) ||
           key < watermark.load(std::memory_order_acquire);
  }
};

// --- Hash routing -----------------------------------------------------------

class HashRoutingTable {
 public:
  // Spans are meaningless under hashing: scans must scatter-gather.
  static constexpr bool kOrderedSpans = false;

  explicit HashRoutingTable(size_t shards) : shard_count_(shards) {
    OPTIQL_CHECK(shards >= 1);
  }

  KeyRoute Route(uint64_t key) const {
    const uint32_t s = static_cast<uint32_t>(Mix64(key) % shard_count_);
    return KeyRoute{s, s, -1};
  }

  size_t shard_count() const { return shard_count_; }
  // Versions are even in steady state (odd = migration window open); hash
  // routing never reshards, so it is permanently at the initial steady
  // version.
  uint64_t version() const { return 2; }

 private:
  size_t shard_count_;
};

// --- Range routing ----------------------------------------------------------

class RangeRoutingTable {
 public:
  static constexpr bool kOrderedSpans = true;

  // Span i covers [spans[i].begin, spans[i+1].begin), the last span up to
  // and including UINT64_MAX. spans[0].begin must be 0.
  struct Span {
    uint64_t begin;
    uint32_t shard;
  };

  RangeRoutingTable(std::vector<Span> spans, uint64_t version,
                    std::shared_ptr<ShardMigration> migration = nullptr)
      : spans_(std::move(spans)),
        version_(version),
        migration_(std::move(migration)) {
    OPTIQL_CHECK(!spans_.empty() && spans_[0].begin == 0);
    for (size_t i = 1; i < spans_.size(); ++i) {
      OPTIQL_CHECK(spans_[i - 1].begin < spans_[i].begin);
    }
  }

  KeyRoute Route(uint64_t key) const {
    const uint32_t home = spans_[SpanIndexOf(key)].shard;
    const ShardMigration* m = migration_.get();
    if (m == nullptr || !m->Covers(key)) return KeyRoute{home, home, -1};
    const uint32_t read = m->Moved(key) ? m->target : m->source;
    return KeyRoute{read, m->source, static_cast<int32_t>(m->target)};
  }

  size_t SpanIndexOf(uint64_t key) const {
    // Rightmost span whose begin <= key (spans_[0].begin == 0 guarantees
    // existence).
    size_t lo = 0, hi = spans_.size();
    while (hi - lo > 1) {
      const size_t mid = lo + (hi - lo) / 2;
      if (spans_[mid].begin <= key) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Inclusive upper bound of span i.
  uint64_t SpanLast(size_t i) const {
    return i + 1 < spans_.size() ? spans_[i + 1].begin - 1 : UINT64_MAX;
  }

  const std::vector<Span>& spans() const { return spans_; }
  size_t shard_count() const { return spans_.size(); }
  uint64_t version() const { return version_; }
  const std::shared_ptr<ShardMigration>& migration() const {
    return migration_;
  }

 private:
  std::vector<Span> spans_;
  uint64_t version_;
  std::shared_ptr<ShardMigration> migration_;
};

// --- Router policies --------------------------------------------------------

// Default router: full-avalanche hash partitioning. Uses the same Mix64
// family as key-partitioned trace replay so "replay threads == shards"
// gives every replay thread exclusive ownership of its shards. The legacy
// functor form is kept for code (and tests) that reason about the raw
// key->shard mapping.
struct HashShardRouter {
  using Table = HashRoutingTable;

  size_t operator()(uint64_t key, size_t shard_count) const {
    return static_cast<size_t>(Mix64(key) % shard_count);
  }

  Table MakeInitialTable(size_t shards) const { return Table(shards); }
};

// Range router: contiguous spans, one shard per span, online split/merge.
// With no explicit boundaries the initial table divides the full u64 space
// evenly — right for hashed/sparse keys; dense workloads should pass
// explicit split points (e.g. EvenOver(max_expected_key, shards)).
struct RangeShardRouter {
  using Table = RangeRoutingTable;

  // shards-1 ascending, non-zero span boundaries; empty = even over u64.
  std::vector<uint64_t> splits;

  static RangeShardRouter EvenOver(uint64_t space_end, size_t shards) {
    RangeShardRouter router;
    // space_end < shards cannot yield `shards` distinct non-zero
    // boundaries (stride would be 0); fall back to the even-over-u64
    // default instead of building a table that fails its span checks.
    if (shards > 1 && space_end >= shards) {
      const uint64_t stride = space_end / shards;
      for (size_t i = 1; i < shards; ++i) {
        router.splits.push_back(stride * i);
      }
    }
    return router;
  }

  Table MakeInitialTable(size_t shards) const {
    std::vector<RangeRoutingTable::Span> spans;
    if (!splits.empty()) {
      OPTIQL_CHECK(splits.size() + 1 == shards);
      spans.push_back({0, 0});
      for (size_t i = 0; i < splits.size(); ++i) {
        spans.push_back({splits[i], static_cast<uint32_t>(i + 1)});
      }
    } else {
      // 2^64 / shards without the 128-bit literal: stride for shard counts
      // that are powers of two is exact; otherwise round down (the last
      // span absorbs the remainder).
      const uint64_t stride = shards > 1 ? (~0ULL / shards) + 1 : 0;
      for (size_t i = 0; i < shards; ++i) {
        spans.push_back({stride * i, static_cast<uint32_t>(i)});
      }
    }
    return Table(std::move(spans), /*version=*/2);
  }
};

}  // namespace optiql

#endif  // OPTIQL_STORE_ROUTING_H_
