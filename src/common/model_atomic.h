// The atomic seam for the schedule-exhaustive model checker (DESIGN.md §13).
//
// In a normal build `ModelAtomic<T>` IS `std::atomic<T>` — a transparent
// alias, zero codegen change, verified by the static_asserts below. Under
// `-DOPTIQL_MODEL=ON` it becomes a plain value wrapped in scheduling gates:
// every load/store/RMW first parks the calling thread on the cooperative
// model scheduler (src/analysis/model_runtime.cc), which picks exactly one
// runnable thread per step. That turns "all interleavings the hardware
// might produce" into "all interleavings the DFS explorer enumerates" —
// the lock headers run unmodified, one visible operation at a time.
//
// The model executes under sequential consistency: memory-order arguments
// are accepted (so call sites compile unchanged) and ignored. SC
// exploration is sound for the safety properties we check — every SC
// interleaving is exhaustively enumerated — but deliberately does not
// model weaker-memory reorderings; those stay the job of the fence
// placement reviewed in the headers plus TSan.
#ifndef OPTIQL_COMMON_MODEL_ATOMIC_H_
#define OPTIQL_COMMON_MODEL_ATOMIC_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#if defined(OPTIQL_MODEL) && OPTIQL_MODEL

namespace optiql::model {

// Visible-operation kinds, as the explorer's dependency relation sees
// them: two operations conflict iff they touch the same object and at
// least one mutates it. kSpin is a failed spin-wait iteration — modeled
// as a read of the last-loaded object that blocks the thread until some
// other thread writes that object (see SpinYield below).
enum class OpKind : uint8_t { kLoad, kStore, kRmw, kSpin };

// --- Scheduler hooks, implemented in src/analysis/model_runtime.cc ------
//
// All hooks are no-ops (the operation runs directly) when the calling
// thread is not a managed model thread, or while a QuietScope is open.

// Parks the thread until the scheduler picks it to run `kind` on `obj`.
// Throws ModelStop when the execution is being aborted.
void PreOp(const void* obj, OpKind kind);

// Publishes the just-executed operation's operand/old-value/mutation flag
// for the trace and the dependency relation.
void PostOp(uint64_t arg, uint64_t result, bool mutated);

// One failed spin-loop iteration: blocks the thread until another thread
// writes the object it last loaded. This is what keeps exploration finite
// — a spinning thread contributes no schedules while nothing it watches
// can change, and "every runnable thread is spin-blocked" is precisely a
// deadlock/lost-wakeup violation.
void SpinYield();

// Suppresses scheduling for operations that are instrumentation, not
// protocol: OPTIQL_INVARIANT condition probes and QNode::DbgTransition.
// Quiet operations execute as part of the current thread's turn.
class QuietScope {
 public:
  QuietScope();
  ~QuietScope();
  QuietScope(const QuietScope&) = delete;
  QuietScope& operator=(const QuietScope&) = delete;
};

// OPTIQL_INVARIANT sink: on a managed thread, records the violation and
// unwinds the worker (the explorer then prints the schedule); elsewhere it
// keeps the normal print-and-abort behavior, so death tests still pass.
void InvariantFailed(const char* file, int line, const char* cond,
                     const char* msg);

// Deliberately seeded protocol bugs, reachable only in model builds. Each
// flag re-introduces a specific historical/raceable mistake so the test
// suite can prove the checker actually catches it (and pin the minimized
// counterexample schedule as a regression case).
struct SeededBugs {
  // OptiQL ReleaseEx: strip the obsolete marker from the version handed to
  // the queued successor — the exact bug the NextVersion propagation rule
  // exists to prevent (marker must survive queue handover).
  bool optiql_drop_obsolete_on_handover = false;
  // Elastic reshard handover: the migration copier reads the source and
  // writes the target WITHOUT holding the chunk gate, so a concurrent
  // double-applied remove can interleave between its read and its write
  // and the stale copy resurrects the removed key in the target.
  bool reshard_copy_skips_gate = false;
};
SeededBugs& bugs();

// Converts any ModelAtomic-storable value to a trace representation.
template <class T>
inline uint64_t ToRep(T v) {
  if constexpr (std::is_pointer_v<T>) {
    return reinterpret_cast<uint64_t>(v);
  } else {
    return static_cast<uint64_t>(v);
  }
}

}  // namespace optiql::model

namespace optiql {

// Model-build ModelAtomic: a plain value gated by the scheduler. Same size
// as std::atomic<T> (both are sizeof(T) for the lock-word types used
// here), so every sizeof(Lock) == 8 static_assert still holds.
template <class T>
class ModelAtomic {
  static_assert(std::is_trivially_copyable_v<T>,
                "ModelAtomic requires trivially copyable T");

 public:
  constexpr ModelAtomic() noexcept : value_() {}
  constexpr ModelAtomic(T v) noexcept : value_(v) {}  // NOLINT(runtime/explicit)
  ModelAtomic(const ModelAtomic&) = delete;
  ModelAtomic& operator=(const ModelAtomic&) = delete;

  T load(std::memory_order = std::memory_order_seq_cst) const {
    model::PreOp(this, model::OpKind::kLoad);
    T v = value_;
    model::PostOp(0, model::ToRep(v), /*mutated=*/false);
    return v;
  }

  void store(T v, std::memory_order = std::memory_order_seq_cst) {
    model::PreOp(this, model::OpKind::kStore);
    T old = value_;
    value_ = v;
    model::PostOp(model::ToRep(v), model::ToRep(old), /*mutated=*/true);
  }

  T exchange(T v, std::memory_order = std::memory_order_seq_cst) {
    model::PreOp(this, model::OpKind::kRmw);
    T old = value_;
    value_ = v;
    model::PostOp(model::ToRep(v), model::ToRep(old), /*mutated=*/true);
    return old;
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order = std::memory_order_seq_cst,
                               std::memory_order = std::memory_order_seq_cst) {
    model::PreOp(this, model::OpKind::kRmw);
    T old = value_;
    const bool ok = (old == expected);
    if (ok) {
      value_ = desired;
    } else {
      expected = old;
    }
    model::PostOp(model::ToRep(desired), model::ToRep(old), ok);
    return ok;
  }

  // The model never fails spuriously: under SC exploration a weak CAS's
  // extra failure schedules are a subset of the contention failures the
  // explorer already enumerates via adversarial interleaving.
  bool compare_exchange_weak(T& expected, T desired,
                             std::memory_order s = std::memory_order_seq_cst,
                             std::memory_order f = std::memory_order_seq_cst) {
    return compare_exchange_strong(expected, desired, s, f);
  }

  T fetch_add(T arg, std::memory_order = std::memory_order_seq_cst) {
    model::PreOp(this, model::OpKind::kRmw);
    T old = value_;
    value_ = static_cast<T>(old + arg);
    model::PostOp(model::ToRep(arg), model::ToRep(old), /*mutated=*/true);
    return old;
  }

  T fetch_sub(T arg, std::memory_order = std::memory_order_seq_cst) {
    model::PreOp(this, model::OpKind::kRmw);
    T old = value_;
    value_ = static_cast<T>(old - arg);
    model::PostOp(model::ToRep(arg), model::ToRep(old), /*mutated=*/true);
    return old;
  }

  T fetch_or(T arg, std::memory_order = std::memory_order_seq_cst) {
    model::PreOp(this, model::OpKind::kRmw);
    T old = value_;
    value_ = static_cast<T>(old | arg);
    model::PostOp(model::ToRep(arg), model::ToRep(old), /*mutated=*/true);
    return old;
  }

  T fetch_and(T arg, std::memory_order = std::memory_order_seq_cst) {
    model::PreOp(this, model::OpKind::kRmw);
    T old = value_;
    value_ = static_cast<T>(old & arg);
    model::PostOp(model::ToRep(arg), model::ToRep(old), /*mutated=*/true);
    return old;
  }

 private:
  T value_;
};

static_assert(sizeof(ModelAtomic<uint64_t>) == sizeof(std::atomic<uint64_t>),
              "model seam must not change the lock-word layout");

// Fences are invisible under the model's sequential consistency (every
// scheduled operation is already SC); call sites keep their fences for the
// real build, the model build compiles them away.
inline void ModelThreadFence(std::memory_order) {}

}  // namespace optiql

#else  // !OPTIQL_MODEL -------------------------------------------------

namespace optiql {

// Normal build: the seam IS std::atomic. Pure type substitution — the
// static_assert pins that there is nothing to pay for.
template <class T>
using ModelAtomic = std::atomic<T>;

static_assert(std::is_same_v<ModelAtomic<uint64_t>, std::atomic<uint64_t>>,
              "normal builds must compile the seam to plain std::atomic");

inline void ModelThreadFence(std::memory_order mo) {
  std::atomic_thread_fence(mo);
}

}  // namespace optiql

#endif  // OPTIQL_MODEL

#endif  // OPTIQL_COMMON_MODEL_ATOMIC_H_
