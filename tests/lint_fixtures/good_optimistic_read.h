// Known-good fixture: every optimistic-read idiom the linter must accept.
// Mirrors the real patterns in src/ (btree descent, record probe,
// harness adapters). The self-test requires zero findings on this file.
#ifndef OPTIQL_TESTS_LINT_FIXTURES_GOOD_OPTIMISTIC_READ_H_
#define OPTIQL_TESTS_LINT_FIXTURES_GOOD_OPTIMISTIC_READ_H_

#include <cstdint>

struct Node {
  uint64_t key;
  uint64_t value;
  Lock lock;
};

// Bail block: a failed AcquireSh abandons the snapshot immediately — no
// validation needed on that path; the success path validates on return.
inline bool LookupOnce(Node& node, uint64_t* out) {
  uint64_t v;
  if (!node.lock.AcquireSh(v)) return false;
  *out = node.value;
  return node.lock.ReleaseSh(v);
}

// Retry loop: `continue` restarts with a fresh snapshot (exempt edge);
// the only `return` follows a validation.
inline uint64_t LookupRetry(Node& node) {
  while (true) {
    uint64_t v;
    if (!node.lock.AcquireSh(v)) continue;
    const uint64_t value = node.value;
    if (!node.lock.ReleaseSh(v)) continue;
    return value;
  }
}

// Upgrade path: TryUpgrade consumes (and thereby validates) the snapshot;
// writes after it are under the exclusive lock, which R2 must not flag.
inline bool UpdateViaUpgrade(Node& node, uint64_t value) {
  uint64_t v;
  if (!node.lock.AcquireSh(v)) return false;
  if (!node.lock.TryUpgrade(v)) return false;
  Node* locked = &node;
  locked->value = value;
  node.lock.ReleaseEx();
  return true;
}

// Descent: helper-style open/validate pairs interleaved across two nodes,
// as in the B+-tree traversal.
inline bool DescendOnce(Node& parent, Node& child, uint64_t* out) {
  uint64_t pv = 0;
  uint64_t cv = 0;
  if (!ReadLockOrRestart(parent.lock, pv)) return false;
  if (!ReadLockNode(&child, cv)) return false;
  if (!Validate(parent.lock, pv)) return false;
  *out = child.value;
  return Validate(child.lock, cv);
}

#endif  // OPTIQL_TESTS_LINT_FIXTURES_GOOD_OPTIMISTIC_READ_H_
