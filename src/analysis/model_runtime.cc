#include "analysis/model_runtime.h"

#include <pthread.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace optiql::model {

namespace {

Runtime* g_runtime = nullptr;

// The seam's thread identity: null on the controller and on any unmanaged
// thread (their operations execute directly).
thread_local Runtime::WorkerSlot* t_slot = nullptr;
thread_local int t_quiet = 0;

}  // namespace

// ---------------------------------------------------------------------------
// Seam hooks (declared in common/model_atomic.h)

QuietScope::QuietScope() { ++t_quiet; }
QuietScope::~QuietScope() { --t_quiet; }

SeededBugs& bugs() {
  static SeededBugs b;
  return b;
}

void PreOp(const void* obj, OpKind kind) {
  Runtime::WorkerSlot* slot = t_slot;
  if (slot == nullptr || t_quiet > 0) return;
  slot->pending = Event{};
  slot->pending.obj = obj;
  slot->pending.kind = kind;
  slot->has_pending = true;
  slot->ready.release();
  slot->go.acquire();
  slot->has_pending = false;
  if (slot->aborted) throw ModelStop{};
}

void PostOp(uint64_t arg, uint64_t result, bool mutated) {
  Runtime::WorkerSlot* slot = t_slot;
  if (slot == nullptr || t_quiet > 0) return;
  slot->exec = slot->pending;
  slot->exec.arg = arg;
  slot->exec.result = result;
  slot->exec.mutated = mutated;
  slot->last_access_obj = slot->pending.obj;
  if (slot->pending.kind != OpKind::kLoad) {
    // The thread made (or attempted) a write: its next spin iteration gets
    // a fresh free re-check rather than inheriting stale spin state.
    slot->last_spin_obj = nullptr;
  }
  if (mutated) g_runtime->BumpGen(slot->pending.obj);
}

void SpinYield() {
  Runtime::WorkerSlot* slot = t_slot;
  if (slot == nullptr || t_quiet > 0) {
    // Unmanaged thread in a model build (e.g. a plain gtest): behave like
    // the normal spin-then-yield path would.
    std::this_thread::yield();
    return;
  }
  Runtime* rt = g_runtime;
  const void* obj = slot->last_access_obj;
  slot->pending = Event{};
  slot->pending.obj = obj;
  slot->pending.kind = OpKind::kSpin;
  slot->has_pending = true;
  slot->ready.release();
  slot->go.acquire();
  slot->has_pending = false;
  if (slot->aborted) throw ModelStop{};
  slot->exec = slot->pending;
  // From here on this spin site blocks until `obj` is written again.
  slot->last_spin_obj = obj;
  slot->last_spin_gen = rt->GenOf(obj);
}

void InvariantFailed(const char* file, int line, const char* cond,
                     const char* msg) {
  Runtime* rt = Runtime::Current();
  if (rt != nullptr && (t_slot != nullptr || rt->InFinale())) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "OPTIQL_INVARIANT failed at %s:%d: %s — %s",
                  file, line, cond, msg);
    rt->Fail(buf);
    throw ModelStop{};
  }
  std::fprintf(stderr, "OPTIQL_INVARIANT failed at %s:%d: %s — %s\n", file,
               line, cond, msg);
  std::abort();
}

// ---------------------------------------------------------------------------
// Runtime

Runtime* Runtime::Current() { return g_runtime; }

Runtime::Runtime(Scenario& scenario)
    : scenario_(scenario), num_threads_(scenario.num_threads()) {
  OPTIQL_CHECK(num_threads_ >= 1 && num_threads_ <= kMaxThreads);
  OPTIQL_CHECK(g_runtime == nullptr);  // one exploration at a time
  g_runtime = this;
  // One thread of the exploration runs at a time, so on one CPU each
  // semaphore handoff is a plain context switch, not a cross-core wakeup.
  // Pin to the CPU we are on (concurrent ctest -j explorations stay spread
  // out) before spawning: workers inherit the mask. Best effort.
  const int cpu = sched_getcpu();
  if (cpu >= 0 &&
      pthread_getaffinity_np(pthread_self(), sizeof(controller_affinity_),
                             &controller_affinity_) == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  master_decks_.resize(num_threads_);
  for (int tid = 0; tid < num_threads_; ++tid) {
    for (int i = 0; i < kDeckSize; ++i) {
      QNode* node = QNodePool::Instance().Acquire();
      OPTIQL_CHECK(node != nullptr);
      master_decks_[tid].push_back(node);
    }
    slots_[tid].tid = tid;
    slots_[tid].finished = true;  // no execution yet
    slots_[tid].thread = std::thread(&Runtime::WorkerMain, this, tid);
  }
}

Runtime::~Runtime() {
  shutdown_ = true;
  for (int tid = 0; tid < num_threads_; ++tid) slots_[tid].start.release();
  for (int tid = 0; tid < num_threads_; ++tid) slots_[tid].thread.join();
  if (pinned_) {
    pthread_setaffinity_np(pthread_self(), sizeof(controller_affinity_),
                           &controller_affinity_);
  }
  for (auto& deck : master_decks_) {
    for (QNode* node : deck) {
      // Executions may leave nodes mid-protocol; normalize before Release's
      // Idle->Pooled transition check.
      node->Reset();
      node->dbg_state.store(QNode::kDbgIdle, std::memory_order_relaxed);
      QNodePool::Instance().Release(node);
    }
  }
  g_runtime = nullptr;
}

void Runtime::WorkerMain(int tid) {
  WorkerSlot& slot = slots_[tid];
  while (true) {
    slot.start.acquire();
    if (shutdown_) break;
    t_slot = &slot;
    try {
      scenario_.Thread(tid);
    } catch (const ModelStop&) {
    } catch (...) {
      slot.failure = std::current_exception();
    }
    t_slot = nullptr;
    slot.finished = true;
    slot.ready.release();
  }
}

void Runtime::Begin() {
  has_violation_ = false;
  violation_.clear();
  obj_gen_.clear();
  labels_.clear();
  for (int tid = 0; tid < num_threads_; ++tid) {
    WorkerSlot& slot = slots_[tid];
    OPTIQL_CHECK(slot.finished && !slot.has_pending);
    slot.finished = false;
    slot.aborted = false;
    slot.pending = Event{};
    slot.exec = Event{};
    slot.last_access_obj = nullptr;
    slot.last_spin_obj = nullptr;
    slot.last_spin_gen = 0;
    // Re-deal the deck: identical node identity every execution, pristine
    // contents, forced back to Idle (an aborted execution can leave a node
    // marked Queued).
    for (QNode* node : master_decks_[tid]) {
      node->Reset();
      node->dbg_state.store(QNode::kDbgIdle, std::memory_order_relaxed);
    }
  }
  scenario_.Reset();  // controller: direct (unscheduled) operations
  pool_in_use_at_begin_ = QNodePool::Instance().in_use();
  // Run each worker to its first scheduling point, one at a time, so any
  // pre-protocol prolog work is serialized deterministically.
  for (int tid = 0; tid < num_threads_; ++tid) {
    slots_[tid].start.release();
    slots_[tid].ready.acquire();
  }
}

void Runtime::Step(int tid) {
  WorkerSlot& slot = slots_[tid];
  OPTIQL_CHECK(slot.has_pending && !slot.finished);
  slot.go.release();
  slot.ready.acquire();
}

uint32_t Runtime::EnabledMask() const {
  uint32_t mask = 0;
  for (int tid = 0; tid < num_threads_; ++tid) {
    const WorkerSlot& slot = slots_[tid];
    if (!slot.has_pending || slot.finished) continue;
    if (slot.pending.kind != OpKind::kSpin) {
      mask |= 1u << tid;
      continue;
    }
    // Spin step: enabled for one free re-check after a real op, or once
    // the watched object has been written since the last spin step.
    const bool free_check = slot.last_spin_obj != slot.pending.obj;
    if (free_check || GenOf(slot.pending.obj) != slot.last_spin_gen) {
      mask |= 1u << tid;
    }
  }
  return mask;
}

uint32_t Runtime::UnfinishedMask() const {
  uint32_t mask = 0;
  for (int tid = 0; tid < num_threads_; ++tid) {
    if (!slots_[tid].finished) mask |= 1u << tid;
  }
  return mask;
}

const Event& Runtime::LastExec(int tid) const { return slots_[tid].exec; }

void Runtime::AbortExecution() {
  for (int tid = 0; tid < num_threads_; ++tid) {
    WorkerSlot& slot = slots_[tid];
    if (slot.finished || !slot.has_pending) continue;
    slot.aborted = true;
    slot.go.release();
    slot.ready.acquire();
    OPTIQL_CHECK(slot.finished);
  }
}

void Runtime::RunFinale() {
  in_finale_ = true;
  try {
    scenario_.Finale();
    const uint32_t in_use = QNodePool::Instance().in_use();
    if (in_use != pool_in_use_at_begin_) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "qnode pool conservation violated: %" PRIu32
                    " nodes in use at start, %" PRIu32 " at end",
                    pool_in_use_at_begin_, in_use);
      Fail(buf);
    }
  } catch (const ModelStop&) {
  }
  in_finale_ = false;
}

void Runtime::Fail(std::string message) {
  if (has_violation_) return;  // keep the first violation of the execution
  has_violation_ = true;
  violation_ = std::move(message);
}

void Runtime::CheckWorkerFailures() {
  for (int tid = 0; tid < num_threads_; ++tid) {
    if (slots_[tid].failure) {
      std::exception_ptr e = slots_[tid].failure;
      slots_[tid].failure = nullptr;
      std::rethrow_exception(e);
    }
  }
}

void Runtime::NameObject(const void* obj, std::string label) {
  labels_[obj] = std::move(label);
}

std::string Runtime::ObjectLabel(const void* obj) const {
  auto it = labels_.find(obj);
  if (it != labels_.end()) return it->second;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "obj@%p", obj);
  return buf;
}

QNode* Runtime::DeckNode(int tid, int i) {
  OPTIQL_CHECK(tid >= 0 && tid < num_threads_ && i >= 0 && i < kDeckSize);
  return master_decks_[tid][i];
}

uint64_t Runtime::GenOf(const void* obj) const {
  auto it = obj_gen_.find(obj);
  return it == obj_gen_.end() ? 0 : it->second;
}

void Runtime::BumpGen(const void* obj) { ++obj_gen_[obj]; }

}  // namespace optiql::model
