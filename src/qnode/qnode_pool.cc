#include "qnode/qnode_pool.h"

#include <cstdlib>
#include <new>

#include "sync/thread_registry.h"

namespace optiql {

QNodePool::QNodePool(uint32_t capacity) : capacity_(capacity) {
  OPTIQL_CHECK(capacity_ >= 2);
  void* mem = std::aligned_alloc(kCachelineSize, sizeof(QNode) * capacity_);
  OPTIQL_CHECK(mem != nullptr);
  nodes_ = new (mem) QNode[capacity_];
  free_ids_.reserve(capacity_ - 1);
  // Hand out low IDs first (LIFO from the back of the vector), purely to make
  // diagnostics predictable.
  for (uint32_t id = capacity_ - 1; id >= 1; --id) {
    free_ids_.push_back(id);
  }
}

QNodePool::~QNodePool() {
  for (uint32_t i = 0; i < capacity_; ++i) nodes_[i].~QNode();
  std::free(nodes_);
}

QNodePool& QNodePool::Instance() {
  static QNodePool* pool = new QNodePool();  // Intentionally never freed.
  return *pool;
}

QNode* QNodePool::Acquire() {
  uint32_t id;
  {
    std::lock_guard<std::mutex> guard(mu_);
    if (free_ids_.empty()) return nullptr;
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  QNode* node = &nodes_[id];
  node->Reset();
  node->DbgTransition(QNode::kDbgPooled, QNode::kDbgIdle,
                      "pool Acquire of a node not marked free "
                      "(free-list corruption?)");
  return node;
}

void QNodePool::Release(QNode* node) {
  const uint32_t id = ToId(node);
  node->DbgTransition(QNode::kDbgIdle, QNode::kDbgPooled,
                      "pool Release of a node that is pooled or still "
                      "enqueued (double free / free of a live queue node)");
  std::lock_guard<std::mutex> guard(mu_);
  free_ids_.push_back(id);
}

uint32_t QNodePool::in_use() const {
  std::lock_guard<std::mutex> guard(mu_);
  return capacity_ - 1 - static_cast<uint32_t>(free_ids_.size());
}

namespace {

// Per-thread queue-node cache, keyed by ThreadRegistry ID rather than a
// private thread_local: one registration path for the whole runtime. The
// registry exit hook flushes the cache back to the global pool before the
// ID becomes reusable, so a successor thread starts with an empty slot and
// pool accounting stays exact across thread churn.
struct OPTIQL_CACHELINE_ALIGNED ThreadQNodeCache {
  QNode* direct[ThreadQNodes::kNodesPerThread] = {};
  bool exit_hook_armed = false;
};

ThreadQNodeCache g_qnode_caches[ThreadRegistry::kMaxThreads];

void FlushQNodeCache(void* arg) {
  ThreadQNodeCache& cache = *static_cast<ThreadQNodeCache*>(arg);
  QNodePool& pool = QNodePool::Instance();
  for (QNode*& node : cache.direct) {
    if (node != nullptr) {
      pool.Release(node);
      node = nullptr;
    }
  }
  cache.exit_hook_armed = false;
  // Exit hooks run on the exiting thread, so this clears its own shortcut.
  qnode_internal::t_direct_slots = nullptr;
}

ThreadQNodeCache& LocalQNodeCache() {
  ThreadQNodeCache& cache = g_qnode_caches[ThreadRegistry::CurrentThreadId()];
  if (OPTIQL_UNLIKELY(!cache.exit_hook_armed)) {
    cache.exit_hook_armed = true;
    ThreadRegistry::AtThreadExit(&FlushQNodeCache, &cache);
  }
  return cache;
}

}  // namespace

QNode* ThreadQNodes::Fill(int i) {
  ThreadQNodeCache& cache = LocalQNodeCache();
  qnode_internal::t_direct_slots = cache.direct;
  QNode*& slot = cache.direct[i];
  if (slot == nullptr) {
    slot = QNodePool::Instance().Acquire();
    OPTIQL_CHECK(slot != nullptr);
  }
  return slot;
}

}  // namespace optiql
