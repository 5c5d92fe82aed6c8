// Known-good fixture: every legitimate way a version word travels from
// its acquire to its validation under a different name. R5 must accept
// all of these — copies, the btree descent handover, snapshot helpers,
// version parameters filled by the caller's acquire — with zero findings.
#ifndef OPTIQL_TESTS_LINT_FIXTURES_GOOD_VERSION_HANDOVER_H_
#define OPTIQL_TESTS_LINT_FIXTURES_GOOD_VERSION_HANDOVER_H_

#include <cstdint>

struct Node {
  uint64_t value;
  Node* child;
  Lock lock;
};

// Plain copy: `pv` is a renamed snapshot of the filled `v`.
inline bool LookupViaCopy(Node& node, uint64_t* out) {
  uint64_t v;
  if (!node.lock.AcquireSh(v)) return false;
  uint64_t pv = v;
  *out = node.value;
  return node.lock.ReleaseSh(pv);
}

// Descent handover, as in the real B+-tree traversal: the parent's
// version moves to `pv`, the child's becomes the current `v`, and both
// names reach a validation. A copy-of-a-copy must also stay tracked.
inline bool DescendHandover(Node& root, uint64_t* out) {
  uint64_t v = 0;
  uint64_t cv = 0;
  if (!ReadLockOrRestart(root.lock, v)) return false;
  Node* node = root.child;
  if (!ReadLockNode(node, cv)) return false;
  uint64_t pv = v;
  v = cv;
  if (!Validate(root.lock, pv)) return false;
  *out = node->value;
  return Validate(node->lock, v);
}

// Version parameter: the caller's acquire filled `version`; helpers that
// continue an open section must not be flagged for trusting it.
inline bool FinishRead(Node& node, uint64_t version, uint64_t* out) {
  *out = node.value;
  return node.lock.ReleaseSh(version);
}

// Snapshot helper: a `ReadLock*` helper (the B+-tree's ReadLockLeaf,
// snapshot plus edge check) fills its last argument like the primitive.
inline bool ReadThroughSnapshotHelper(const Edge& edge, uint64_t* out) {
  uint64_t v;
  if (!ReadLockLeaf(edge, v)) return false;
  *out = edge.leaf->value;
  return Validate(edge.leaf->lock, v);
}

// Upgrade consuming a copied snapshot, with a queue-node second argument
// (the OptiQL form): the first argument is still dataflow-checked.
inline bool UpgradeViaCopy(Node& node, uint64_t value) {
  uint64_t v;
  if (!node.lock.AcquireSh(v)) return false;
  uint64_t snapshot = v;
  if (!node.lock.TryUpgrade(snapshot, GetQNode(0))) return false;
  Node* locked = &node;
  locked->value = value;
  node.lock.ReleaseEx();
  return true;
}

#endif  // OPTIQL_TESTS_LINT_FIXTURES_GOOD_VERSION_HANDOVER_H_
