#include "workload/trace.h"

#include <cinttypes>
#include <cstdio>

namespace optiql {

Trace Trace::Generate(const TraceConfig& config) {
  std::vector<TraceOp> ops;
  ops.reserve(config.operations);
  Xoshiro256 rng(config.seed);
  const KeySampler sampler(config.dist, config.key_space);

  for (uint64_t i = 0; i < config.operations; ++i) {
    const uint64_t key = MakeKey(sampler.Next(rng), config.key_space_shape);
    const int roll = static_cast<int>(rng.NextBounded(100));
    TraceOp op{};
    op.key = key;
    if (roll < config.lookup_pct) {
      op.kind = TraceOp::Kind::kLookup;
    } else if (roll < config.lookup_pct + config.insert_pct) {
      op.kind = TraceOp::Kind::kInsert;
      op.value = rng.Next() | 1;
    } else if (roll <
               config.lookup_pct + config.insert_pct + config.update_pct) {
      op.kind = TraceOp::Kind::kUpdate;
      op.value = rng.Next() | 1;
    } else if (roll < config.lookup_pct + config.insert_pct +
                          config.update_pct + config.remove_pct) {
      op.kind = TraceOp::Kind::kRemove;
    } else {
      op.kind = TraceOp::Kind::kScan;
      op.value = 1 + rng.NextBounded(config.max_scan_len);
    }
    ops.push_back(op);
  }
  return Trace(std::move(ops));
}

bool Trace::SaveTo(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "# optiql trace: %zu operations\n", ops_.size());
  bool ok = true;
  for (const TraceOp& op : ops_) {
    int written = 0;
    switch (op.kind) {
      case TraceOp::Kind::kLookup:
        written = std::fprintf(file, "L %" PRIu64 "\n", op.key);
        break;
      case TraceOp::Kind::kInsert:
        written =
            std::fprintf(file, "I %" PRIu64 " %" PRIu64 "\n", op.key,
                         op.value);
        break;
      case TraceOp::Kind::kUpdate:
        written =
            std::fprintf(file, "U %" PRIu64 " %" PRIu64 "\n", op.key,
                         op.value);
        break;
      case TraceOp::Kind::kRemove:
        written = std::fprintf(file, "R %" PRIu64 "\n", op.key);
        break;
      case TraceOp::Kind::kScan:
        written =
            std::fprintf(file, "S %" PRIu64 " %" PRIu64 "\n", op.key,
                         op.value);
        break;
    }
    if (written <= 0) {
      ok = false;
      break;
    }
  }
  return std::fclose(file) == 0 && ok;
}

bool Trace::LoadFrom(const std::string& path, Trace* out) {
  std::FILE* file = std::fopen(path.c_str(), "r");
  if (file == nullptr) return false;
  std::vector<TraceOp> ops;
  char line[256];
  bool ok = true;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (line[0] == '#' || line[0] == '\n' || line[0] == '\0') continue;
    TraceOp op{};
    char kind = '\0';
    uint64_t a = 0, b = 0;
    const int fields =
        std::sscanf(line, " %c %" SCNu64 " %" SCNu64, &kind, &a, &b);
    if (fields < 2) {
      ok = false;
      break;
    }
    op.key = a;
    op.value = b;
    switch (kind) {
      case 'L':
        op.kind = TraceOp::Kind::kLookup;
        break;
      case 'I':
        op.kind = TraceOp::Kind::kInsert;
        break;
      case 'U':
        op.kind = TraceOp::Kind::kUpdate;
        break;
      case 'R':
        op.kind = TraceOp::Kind::kRemove;
        break;
      case 'S':
        op.kind = TraceOp::Kind::kScan;
        break;
      default:
        ok = false;
        break;
    }
    if (!ok) break;
    if ((op.kind == TraceOp::Kind::kInsert ||
         op.kind == TraceOp::Kind::kUpdate ||
         op.kind == TraceOp::Kind::kScan) &&
        fields != 3) {
      ok = false;
      break;
    }
    ops.push_back(op);
  }
  std::fclose(file);
  if (!ok) return false;
  *out = Trace(std::move(ops));
  return true;
}

}  // namespace optiql
