#include "tools/modelcheck/scenarios.h"

#include <optional>

#include "analysis/model_spec.h"
#include "common/check.h"
#include "core/optiql.h"
#include "locks/mcs_lock.h"
#include "locks/mcs_rw_lock.h"
#include "locks/optlock.h"
#include "locks/tts_lock.h"

namespace optiql::model {

namespace {

QNode* Deck(int tid, int i) { return Runtime::Current()->DeckNode(tid, i); }

// ---------------------------------------------------------------------------
// Lock adapters: unify the acquire/release surface so one scenario template
// covers every family. Each adapter owns the lock, routes Lock/Unlock with
// whatever handle discipline the family needs, and asserts its end state.
// `acquisitions` lets version-carrying locks pin strict monotonicity: after
// k exclusive sections the published version must be exactly k (no lost or
// duplicated bumps anywhere in the handover chain).

struct TtsOps {
  static constexpr const char* kLabel = "TtsLock.word";
  TtsLock lock;
  void Lock(int) { lock.AcquireEx(); }
  void Unlock(int) { lock.ReleaseEx(); }
  void CheckFinal(uint64_t) {
    OPTIQL_INVARIANT(!lock.IsLockedEx(), "lock still held at end");
  }
};

struct McsOps {
  static constexpr const char* kLabel = "McsLock.tail";
  McsLock lock;
  void Lock(int tid) { lock.AcquireEx(Deck(tid, 0)); }
  void Unlock(int tid) { lock.ReleaseEx(Deck(tid, 0)); }
  void CheckFinal(uint64_t) {
    OPTIQL_INVARIANT(!lock.IsLockedEx(), "queue not empty at end");
  }
};

struct OlcOps {
  static constexpr const char* kLabel = "OptLock.word";
  OptLock lock;
  void Lock(int) { lock.AcquireEx(); }
  void Unlock(int) { lock.ReleaseEx(); }
  void CheckFinal(uint64_t acquisitions) {
    OPTIQL_INVARIANT(!lock.IsLockedEx(), "lock still held at end");
    OPTIQL_INVARIANT(lock.LoadWord() == acquisitions,
                     "version not strictly monotonic: k exclusive releases "
                     "must publish version k");
  }
};

struct OptiQlOps {
  static constexpr const char* kLabel = "OptiQL.word";
  OptiQL lock;
  void Lock(int tid) { lock.AcquireEx(Deck(tid, 0)); }
  void Unlock(int tid) { lock.ReleaseEx(Deck(tid, 0)); }
  void CheckFinal(uint64_t acquisitions) {
    OPTIQL_INVARIANT(!lock.IsLockedEx(), "word still LOCKED at end");
    OPTIQL_INVARIANT(!lock.IsOpReadWindowOpen(),
                     "opportunistic-read window left open after the queue "
                     "drained");
    OPTIQL_INVARIANT(OptiQL::VersionOf(lock.LoadWord()) == acquisitions,
                     "version not strictly monotonic across queue handover: "
                     "k exclusive releases must publish version k");
  }
};

struct OptiQlNorOps {
  static constexpr const char* kLabel = "OptiQL-NOR.word";
  OptiQLNor lock;
  void Lock(int tid) { lock.AcquireEx(Deck(tid, 0)); }
  void Unlock(int tid) { lock.ReleaseEx(Deck(tid, 0)); }
  void CheckFinal(uint64_t acquisitions) {
    OPTIQL_INVARIANT(!lock.IsLockedEx(), "word still LOCKED at end");
    OPTIQL_INVARIANT(OptiQLNor::VersionOf(lock.LoadWord()) == acquisitions,
                     "version not strictly monotonic across queue handover");
  }
};

struct McsRwWriterOps {
  static constexpr const char* kLabel = "McsRwLock.word";
  McsRwLock lock;
  void Lock(int tid) { lock.AcquireEx(Deck(tid, 0)); }
  void Unlock(int tid) { lock.ReleaseEx(Deck(tid, 0)); }
  void CheckFinal(uint64_t) {
    OPTIQL_INVARIANT(!lock.HasQueue() && lock.ActiveReaders() == 0,
                     "queue/reader state not drained at end");
  }
};

// ---------------------------------------------------------------------------
// Scenario templates

// N threads, each running `iters` exclusive critical sections on one lock.
// Specs: CsProbe occupancy + lost-update, adapter end state (incl. version
// monotonicity), plus the runtime's built-in qnode-pool conservation check.
template <class Ops>
class MutexScenario : public Scenario {
 public:
  MutexScenario(int threads, int iters) : threads_(threads), iters_(iters) {}
  int num_threads() const override { return threads_; }

  void Reset() override {
    ops_.emplace();
    cs_.emplace();
    Runtime::Current()->NameObject(&ops_->lock, Ops::kLabel);
  }

  void Thread(int tid) override {
    for (int i = 0; i < iters_; ++i) {
      ops_->Lock(tid);
      cs_->Critical();
      ops_->Unlock(tid);
    }
  }

  void Finale() override {
    cs_->CheckFinal();
    ops_->CheckFinal(static_cast<uint64_t>(threads_) * iters_);
  }

 private:
  const int threads_;
  const int iters_;
  std::optional<Ops> ops_;
  std::optional<CsProbe> cs_;
};

// Threads 0..n-2 are writers (publishing a fresh value per section); thread
// n-1 is an optimistic reader that snapshots, reads both data cells, and —
// only when validation succeeds — asserts the pair is consistent. With two
// writers this exercises OptiQL's opportunistic-read window: the reader can
// snapshot and validate entirely inside a queue handover.
template <class Ops>
class OptReadScenario : public Scenario {
 public:
  OptReadScenario(int threads, int iters) : threads_(threads), iters_(iters) {}
  int num_threads() const override { return threads_; }

  void Reset() override {
    ops_.emplace();
    seq_.emplace();
    Runtime::Current()->NameObject(&ops_->lock, Ops::kLabel);
  }

  void Thread(int tid) override {
    if (tid < threads_ - 1) {
      for (int i = 0; i < iters_; ++i) {
        ops_->Lock(tid);
        seq_->Publish(static_cast<uint64_t>(tid) * 100 + i + 1);
        ops_->Unlock(tid);
      }
      return;
    }
    for (int attempt = 0; attempt < 2; ++attempt) {
      uint64_t v;
      if (!ops_->lock.AcquireSh(v)) continue;
      const uint64_t a = seq_->ReadFirst();
      const uint64_t b = seq_->ReadSecond();
      if (ops_->lock.ReleaseSh(v)) {
        SeqProbe::Check(a, b);
        return;
      }
    }
  }

  void Finale() override {
    ops_->CheckFinal(static_cast<uint64_t>(threads_ - 1) * iters_);
  }

 private:
  const int threads_;
  const int iters_;
  std::optional<Ops> ops_;
  std::optional<SeqProbe> seq_;
};

// OptiQL no-bump release: a writer that modified nothing releases with
// ReleaseExNoBump while an optimistic reader runs. The reader's validated
// pairs must be consistent as usual, and — the point of the scenario — the
// word must end bit-identical to its initial state (version 0, no bump).
class OptiQlNoBumpScenario : public Scenario {
 public:
  int num_threads() const override { return 2; }

  void Reset() override {
    lock_.emplace();
    seq_.emplace();
    Runtime::Current()->NameObject(&*lock_, "OptiQL.word");
  }

  void Thread(int tid) override {
    if (tid == 0) {
      lock_->AcquireEx(Deck(0, 0));
      lock_->ReleaseExNoBump(Deck(0, 0));
      return;
    }
    uint64_t v;
    if (!lock_->AcquireSh(v)) return;
    const uint64_t a = seq_->ReadFirst();
    const uint64_t b = seq_->ReadSecond();
    if (lock_->ReleaseSh(v)) SeqProbe::Check(a, b);
  }

  void Finale() override {
    OPTIQL_INVARIANT(lock_->LoadWord() == 0,
                     "ReleaseExNoBump changed the word: a clean critical "
                     "section must leave every overlapping snapshot valid");
  }

 private:
  std::optional<OptiQL> lock_;
  std::optional<SeqProbe> seq_;
};

// OptLock retirement: one writer retires the object; the other thread races
// an optimistic read and a try-acquire against it. Whatever interleaves,
// the final word must be retired, unlocked, and reject new readers.
class OptLockObsoleteScenario : public Scenario {
 public:
  int num_threads() const override { return 2; }

  void Reset() override {
    lock_.emplace();
    cs_.emplace();
    Runtime::Current()->NameObject(&*lock_, "OptLock.word");
  }

  void Thread(int tid) override {
    if (tid == 0) {
      lock_->AcquireEx();
      cs_->Critical();
      lock_->ReleaseExObsolete();
      return;
    }
    uint64_t v;
    if (lock_->AcquireSh(v)) (void)lock_->ReleaseSh(v);
    if (lock_->TryAcquireEx()) {
      cs_->Critical();
      lock_->ReleaseEx();
    }
  }

  void Finale() override {
    cs_->CheckFinal();
    OPTIQL_INVARIANT(lock_->IsObsolete() && !lock_->IsLockedEx(),
                     "retirement lost: final word must be unlocked and "
                     "obsolete");
    uint64_t v;
    OPTIQL_INVARIANT(!lock_->AcquireSh(v),
                     "retired lock still admits optimistic readers");
  }

 private:
  std::optional<OptLock> lock_;
  std::optional<CsProbe> cs_;
};

// The obsolete-survival property across OptiQL queue handover: thread 0
// retires the object; the other threads are plain queued writers. The
// marker is planted in thread 0's qnode version and must ride NextVersion
// through every subsequent grant until the last release publishes it on the
// word — the exact propagation the seeded drop-obsolete bug breaks.
class OptiQlHandoverObsoleteScenario : public Scenario {
 public:
  explicit OptiQlHandoverObsoleteScenario(int threads) : threads_(threads) {}
  int num_threads() const override { return threads_; }

  void Reset() override {
    lock_.emplace();
    cs_.emplace();
    Runtime::Current()->NameObject(&*lock_, "OptiQL.word");
  }

  void Thread(int tid) override {
    QNode* node = Deck(tid, 0);
    lock_->AcquireEx(node);
    cs_->Critical();
    if (tid == 0) {
      lock_->ReleaseExObsolete(node);
    } else {
      lock_->ReleaseEx(node);
    }
  }

  void Finale() override {
    cs_->CheckFinal();
    OPTIQL_INVARIANT(lock_->IsObsolete(),
                     "obsolete marker lost across queue handover: the final "
                     "word must carry the retirement");
    OPTIQL_INVARIANT(!lock_->IsLockedEx(), "word still LOCKED at end");
    uint64_t v;
    OPTIQL_INVARIANT(!lock_->AcquireSh(v),
                     "retired lock still admits optimistic readers");
  }

 private:
  const int threads_;
  std::optional<OptiQL> lock_;
  std::optional<CsProbe> cs_;
};

// MCS-RW shared/exclusive interleaving through the queue: thread 0 is a
// queued writer, the rest are queued readers. RwProbe asserts writers are
// alone and readers never overlap a writer; the finale checks reader-count
// conservation.
class McsRwScenario : public Scenario {
 public:
  explicit McsRwScenario(int threads) : threads_(threads) {}
  int num_threads() const override { return threads_; }

  void Reset() override {
    lock_.emplace();
    rw_.emplace();
    Runtime::Current()->NameObject(&*lock_, "McsRwLock.word");
  }

  void Thread(int tid) override {
    QNode* node = Deck(tid, 0);
    if (tid == 0) {
      lock_->AcquireEx(node);
      rw_->WriterEnter();
      rw_->WriterExit();
      lock_->ReleaseEx(node);
      return;
    }
    lock_->AcquireSh(node);
    rw_->ReaderEnter();
    rw_->ReaderExit();
    lock_->ReleaseSh(node);
  }

  void Finale() override {
    rw_->CheckFinal();
    OPTIQL_INVARIANT(!lock_->HasQueue() && lock_->ActiveReaders() == 0,
                     "reader count not conserved: queue drained but the "
                     "word still records state");
  }

 private:
  const int threads_;
  std::optional<McsRwLock> lock_;
  std::optional<RwProbe> rw_;
};

// ShardedStore's elastic-reshard double-routing window (DESIGN.md §14)
// distilled to two keys and presence bits. Thread 0 is the migration
// copier: under the per-chunk gate it copies every key the source holds
// into the target, then publishes the watermark ("span fully moved").
// Thread 1 is a writer inside the window: it removes k0 (present before
// the window opened) and inserts k1 (absent), each op double-applied to
// source AND target under a shared gate hold — the store's protocol for
// keys whose span is mid-migration. The spec is routed visibility once
// both threads finish: reads go to the target iff the watermark says the
// key moved, and at every interleaving the removed key must be
// unreachable and the inserted key reachable. The seeded
// reshard_copy_skips_gate bug lets the copier run ungated, so a remove
// can land between its source read and target write and the stale copy
// resurrects k0 — exactly the race the shared/exclusive gate exists to
// close.
class ReshardHandoverScenario : public Scenario {
 public:
  int num_threads() const override { return 2; }

  void Reset() override {
    gate_.emplace();
    src0_.emplace(1);  // k0 present in the source before the window opens.
    tgt0_.emplace(0);
    src1_.emplace(0);  // k1 arrives through a window write.
    tgt1_.emplace(0);
    moved_.emplace(0);
    Runtime::Current()->NameObject(&*gate_, "reshard.gate");
    Runtime::Current()->NameObject(&*src0_, "reshard.src[k0]");
    Runtime::Current()->NameObject(&*tgt0_, "reshard.tgt[k0]");
    Runtime::Current()->NameObject(&*src1_, "reshard.src[k1]");
    Runtime::Current()->NameObject(&*tgt1_, "reshard.tgt[k1]");
    Runtime::Current()->NameObject(&*moved_, "reshard.watermark");
  }

  void Thread(int tid) override {
    if (tid == 0) {
      // Copier: one chunk covering the whole span, exclusive on the gate.
      const bool gated = !bugs().reshard_copy_skips_gate;
      if (gated) gate_->AcquireEx();
      if (src0_->load(std::memory_order_acquire) != 0) {
        tgt0_->store(1, std::memory_order_release);
      }
      if (src1_->load(std::memory_order_acquire) != 0) {
        tgt1_->store(1, std::memory_order_release);
      }
      if (gated) gate_->ReleaseEx();
      moved_->store(1, std::memory_order_release);
      return;
    }
    // Window writer: each double-apply pairs source and target under a
    // (shared) gate hold; with one writer the TTS lock models it exactly.
    gate_->AcquireEx();
    src0_->store(0, std::memory_order_release);  // remove k0: source...
    tgt0_->store(0, std::memory_order_release);  // ...and mirror.
    gate_->ReleaseEx();
    gate_->AcquireEx();
    src1_->store(1, std::memory_order_release);  // insert k1: source...
    tgt1_->store(1, std::memory_order_release);  // ...and mirror.
    gate_->ReleaseEx();
  }

  void Finale() override {
    QuietScope quiet;
    const bool moved = moved_->load(std::memory_order_relaxed) != 0;
    const uint64_t vis0 = moved ? tgt0_->load(std::memory_order_relaxed)
                                : src0_->load(std::memory_order_relaxed);
    const uint64_t vis1 = moved ? tgt1_->load(std::memory_order_relaxed)
                                : src1_->load(std::memory_order_relaxed);
    OPTIQL_INVARIANT(vis0 == 0,
                     "removed key resurrected across the reshard handover: "
                     "a stale chunk copy re-inserted it into the target");
    OPTIQL_INVARIANT(vis1 == 1,
                     "inserted key unreachable after the reshard handover: "
                     "the double-applied write was lost");
    OPTIQL_INVARIANT(!gate_->IsLockedEx(), "chunk gate still held at end");
  }

 private:
  std::optional<TtsLock> gate_;
  std::optional<ModelAtomic<uint64_t>> src0_, tgt0_, src1_, tgt1_, moved_;
};

// Classic ABBA deadlock over two TTS locks. This scenario EXPECTS a
// violation: it proves the spin-blocking semantics turn a lost-wakeup cycle
// into a reported deadlock rather than a hang.
class DeadlockDemoScenario : public Scenario {
 public:
  int num_threads() const override { return 2; }

  void Reset() override {
    a_.emplace();
    b_.emplace();
    Runtime::Current()->NameObject(&*a_, "TtsLock.A");
    Runtime::Current()->NameObject(&*b_, "TtsLock.B");
  }

  void Thread(int tid) override {
    TtsLock& first = tid == 0 ? *a_ : *b_;
    TtsLock& second = tid == 0 ? *b_ : *a_;
    first.AcquireEx();
    second.AcquireEx();
    second.ReleaseEx();
    first.ReleaseEx();
  }

 private:
  std::optional<TtsLock> a_;
  std::optional<TtsLock> b_;
};

// ---------------------------------------------------------------------------
// Registry

template <class S, class... Args>
std::function<std::unique_ptr<Scenario>()> Make(Args... args) {
  return [args...] { return std::make_unique<S>(args...); };
}

std::vector<ScenarioInfo> BuildRegistry() {
  std::vector<ScenarioInfo> r;
  auto add = [&r](const char* name, const char* desc, int threads,
                  bool expect_violation,
                  std::function<std::unique_ptr<Scenario>()> make) {
    r.push_back({name, desc, threads, expect_violation, std::move(make)});
  };

  // Mutual exclusion, one entry per lock family at 2 threads...
  add("tts_mutex_2", "TTS lock: 2 writers, 1 section each", 2, false,
      Make<MutexScenario<TtsOps>>(2, 1));
  add("mcs_mutex_2", "MCS lock: 2 writers, 1 section each", 2, false,
      Make<MutexScenario<McsOps>>(2, 1));
  add("optlock_mutex_2", "OptLock: 2 writers, 1 section each + version count",
      2, false, Make<MutexScenario<OlcOps>>(2, 1));
  add("optiql_mutex_2", "OptiQL: 2 writers, 1 section each + version count", 2,
      false, Make<MutexScenario<OptiQlOps>>(2, 1));
  add("optiql_nor_mutex_2", "OptiQL-NOR: 2 writers, 1 section each", 2, false,
      Make<MutexScenario<OptiQlNorOps>>(2, 1));
  add("mcsrw_writers_2", "MCS-RW: 2 queued writers", 2, false,
      Make<MutexScenario<McsRwWriterOps>>(2, 1));

  // ...and the paper-central families at 3 threads.
  add("optlock_mutex_3", "OptLock: 3 writers", 3, false,
      Make<MutexScenario<OlcOps>>(3, 1));
  add("optiql_mutex_3", "OptiQL: 3 writers (full handover chain)", 3, false,
      Make<MutexScenario<OptiQlOps>>(3, 1));
  add("mcsrw_writers_3", "MCS-RW: 3 queued writers", 3, false,
      Make<MutexScenario<McsRwWriterOps>>(3, 1));

  // Optimistic readers against writers (seqlock torn-read spec).
  add("optlock_optread_2", "OptLock: writer vs validating reader", 2, false,
      Make<OptReadScenario<OlcOps>>(2, 1));
  add("optiql_optread_2", "OptiQL: writer vs validating reader", 2, false,
      Make<OptReadScenario<OptiQlOps>>(2, 1));
  add("optiql_optread_3",
      "OptiQL: 2 writers vs reader (opportunistic-read window)", 3, false,
      Make<OptReadScenario<OptiQlOps>>(3, 1));
  add("optiql_nobump_2", "OptiQL ReleaseExNoBump leaves snapshots valid", 2,
      false, Make<OptiQlNoBumpScenario>());

  // Retirement / obsolete-marker survival.
  add("optlock_obsolete_2", "OptLock retirement vs racing reader+writer", 2,
      false, Make<OptLockObsoleteScenario>());
  add("optiql_handover_obsolete_2",
      "OptiQL obsolete marker survives one handover", 2, false,
      Make<OptiQlHandoverObsoleteScenario>(2));
  add("optiql_handover_obsolete_3",
      "OptiQL obsolete marker survives a 2-deep handover chain", 3, false,
      Make<OptiQlHandoverObsoleteScenario>(3));

  // Reader/writer protocol.
  add("mcsrw_rw_2", "MCS-RW: queued writer vs queued reader", 2, false,
      Make<McsRwScenario>(2));
  add("mcsrw_rw_3", "MCS-RW: queued writer vs 2 queued readers", 3, false,
      Make<McsRwScenario>(3));

  // Elastic-sharding handover window.
  add("reshard_handover_2",
      "reshard double-routing window: chunk copier vs double-apply writer",
      2, false, Make<ReshardHandoverScenario>());

  // Negative control: the checker must DETECT this one.
  add("deadlock_demo_2", "ABBA deadlock over two TTS locks (expected hit)",
      2, true, Make<DeadlockDemoScenario>());
  return r;
}

}  // namespace

const std::vector<ScenarioInfo>& AllScenarios() {
  static const std::vector<ScenarioInfo> registry = BuildRegistry();
  return registry;
}

const ScenarioInfo* FindScenario(const std::string& name) {
  for (const ScenarioInfo& info : AllScenarios()) {
    if (name == info.name) return &info;
  }
  return nullptr;
}

}  // namespace optiql::model
