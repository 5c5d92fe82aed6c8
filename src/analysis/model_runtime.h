// Cooperative scheduling runtime for the model checker (DESIGN.md §13).
//
// A Runtime owns one worker thread per scenario thread. Exactly one worker
// runs at any moment: each visible atomic operation (through the
// ModelAtomic seam) parks the worker on a semaphore pair and hands control
// back to the controller, which picks the next thread to step. The
// explorer (model_explorer.h) drives Step()/EnabledMask() to enumerate
// interleavings; this file only knows how to run ONE schedule at a time,
// deterministically.
//
// Spin semantics (the part that keeps exploration finite): a failed
// spin-wait iteration (SpinWait::Spin / ExponentialBackoff::Pause) parks
// the thread "watching" the object it last accessed. The thread stays
// schedulable for one free re-check per observed change of that object and
// otherwise blocks until some other thread writes it. A state where every
// unfinished thread is blocked this way is a deadlock/lost-wakeup, which
// the explorer reports as a violation.
#ifndef OPTIQL_ANALYSIS_MODEL_RUNTIME_H_
#define OPTIQL_ANALYSIS_MODEL_RUNTIME_H_

#if !defined(OPTIQL_MODEL) || !OPTIQL_MODEL
#error "model_runtime.h is only meaningful in -DOPTIQL_MODEL=ON builds"
#endif

#include <sched.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/model_atomic.h"
#include "qnode/qnode_pool.h"

namespace optiql::model {

// Thrown to unwind a worker out of the scenario body (execution aborted or
// a spec violation recorded). Never escapes the runtime.
struct ModelStop {};

// One visible operation, as published by the seam.
struct Event {
  const void* obj = nullptr;
  OpKind kind = OpKind::kLoad;
  uint64_t arg = 0;     // operand (store/exchange/CAS-desired/add amount)
  uint64_t result = 0;  // previous value observed
  bool mutated = false;
};

// A scenario is a small fixed thread program over real lock objects.
// Reset() reconstructs all shared state (called on the controller before
// every execution); Thread(tid) is the body run by worker `tid`; Finale()
// runs on the controller after all threads finished and may assert
// end-state properties with OPTIQL_INVARIANT.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual int num_threads() const = 0;
  virtual void Reset() = 0;
  virtual void Thread(int tid) = 0;
  virtual void Finale() {}
};

class Runtime {
 public:
  static constexpr int kMaxThreads = 4;
  // Queue nodes dealt to each worker and handed out via DeckNode(): one
  // per queue lock a scenario thread holds at once, with slack.
  static constexpr int kDeckSize = 4;

  explicit Runtime(Scenario& scenario);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // The active runtime (at most one per process at a time); null outside
  // an exploration. Used by the seam hooks and scenario helpers.
  static Runtime* Current();

  // Starts a fresh execution: resets scenario state, re-deals queue-node
  // decks, and runs every worker up to its first scheduling point.
  void Begin();

  // Runs thread `tid`'s pending operation and lets it advance to its next
  // scheduling point (or to completion). Requires tid enabled.
  void Step(int tid);

  // Bitmask of threads that have a pending operation and are not
  // spin-blocked. 0 with unfinished threads present means deadlock.
  uint32_t EnabledMask() const;
  uint32_t UnfinishedMask() const;

  // The operation thread `tid` executed in its most recent Step.
  const Event& LastExec(int tid) const;

  // The operation thread `tid` is parked on (published but not yet
  // executed), or null once the thread finished. The explorer's sleep-set
  // logic uses this to decide whether a sleeping thread's next move
  // depends on the step just taken.
  const Event* PendingOp(int tid) const {
    const WorkerSlot& s = slots_[tid];
    return (s.has_pending && !s.finished) ? &s.pending : nullptr;
  }

  // Unwinds every still-parked worker (used after a violation or a
  // truncated replay so the next Begin starts clean).
  void AbortExecution();

  // Runs Scenario::Finale plus the built-in pool-conservation check.
  // Requires all threads finished.
  void RunFinale();

  // Records the first spec violation of the current execution.
  void Fail(std::string message);
  bool HasViolation() const { return has_violation_; }
  const std::string& ViolationMessage() const { return violation_; }
  bool InFinale() const { return in_finale_; }

  // Rethrows the first non-ModelStop exception a worker died with (a bug
  // in scenario or runtime code, not a spec violation).
  void CheckWorkerFailures();

  // Human-readable labels for trace output.
  void NameObject(const void* obj, std::string label);
  std::string ObjectLabel(const void* obj) const;

  // Per-thread queue node i (0 <= i < kDeckSize) from the re-dealt deck.
  // Scenario bodies use this instead of ThreadQNodes::Get so node identity
  // is identical across executions.
  QNode* DeckNode(int tid, int i);

  // Write-generation counter of `obj` (bumped on every mutating op).
  uint64_t GenOf(const void* obj) const;
  void BumpGen(const void* obj);

  int num_threads() const { return num_threads_; }

  // --- seam side (called from worker threads; see model_runtime.cc) ---
  struct WorkerSlot {
    std::binary_semaphore start{0};  // controller -> worker: new execution
    std::binary_semaphore go{0};     // controller -> worker: run pending op
    std::binary_semaphore ready{0};  // worker -> controller: parked/finished
    Event pending;                   // op about to execute
    Event exec;                      // last executed op
    bool has_pending = false;
    bool finished = false;
    bool aborted = false;
    std::exception_ptr failure;
    // Spin bookkeeping (see file comment).
    const void* last_access_obj = nullptr;
    const void* last_spin_obj = nullptr;
    uint64_t last_spin_gen = 0;
    int tid = -1;
    std::thread thread;
  };

  WorkerSlot& slot(int tid) { return slots_[tid]; }

 private:
  void WorkerMain(int tid);

  Scenario& scenario_;
  const int num_threads_;
  WorkerSlot slots_[kMaxThreads];
  std::vector<std::vector<QNode*>> master_decks_;  // per tid, fixed at ctor
  std::unordered_map<const void*, uint64_t> obj_gen_;
  std::unordered_map<const void*, std::string> labels_;
  std::string violation_;
  bool has_violation_ = false;
  bool in_finale_ = false;
  bool shutdown_ = false;
  uint32_t pool_in_use_at_begin_ = 0;
  // The controller's CPU mask before the runtime pinned it (see ctor).
  cpu_set_t controller_affinity_{};
  bool pinned_ = false;
};

}  // namespace optiql::model

#endif  // OPTIQL_ANALYSIS_MODEL_RUNTIME_H_
