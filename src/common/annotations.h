// Thread Safety Analysis (TSA) annotation macros.
//
// Maps the repo's lock vocabulary onto Clang's -Wthread-safety attribute
// set (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html). Under any
// compiler (or clang version) without the attributes the macros expand to
// nothing, so GCC builds are unaffected; a dedicated CI job compiles the
// annotated code with clang -Werror=thread-safety.
//
// What is annotated and what deliberately is NOT:
//
//   * The pessimistic locks (MCS, MCS-RW, TTS, shared_mutex,
//     and OptLock's exclusive side) are CAPABILITYs with ACQUIRE/RELEASE
//     annotated entry points. Their bodies are implementation detail — TSA
//     treats an annotated primitive's body as trusted and checks *callers*
//     against the contract, which is exactly what we want.
//   * The optimistic read protocols (OptiQL shared mode, OptLock
//     AcquireSh/ReleaseSh) are NOT expressible in TSA: an optimistic
//     "acquire" writes nothing and the subsequent reads are by-design data
//     races resolved by validation. Those paths are covered by
//     scripts/lint_optimistic.py and the OPTIQL_CHECK_INVARIANTS build
//     instead (see DESIGN.md "Analysis layers").
//   * Hand-over-hand lock coupling (the *Coupling index paths) acquires a
//     child while holding the parent and releases the parent afterwards —
//     a pattern TSA's scoped model cannot express. Those functions carry
//     OPTIQL_NO_THREAD_SAFETY_ANALYSIS with a reason comment.
#ifndef OPTIQL_COMMON_ANNOTATIONS_H_
#define OPTIQL_COMMON_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define OPTIQL_TSA(x) __attribute__((x))
#endif
#endif
#ifndef OPTIQL_TSA
#define OPTIQL_TSA(x)  // Expands to nothing outside clang.
#endif

// Marks a class as a lock-like capability; `name` appears in diagnostics.
#define OPTIQL_CAPABILITY(name) OPTIQL_TSA(capability(name))

// Exclusive acquisition/release. Applied to member functions; the implicit
// `this` is the capability.
#define OPTIQL_ACQUIRE(...) OPTIQL_TSA(acquire_capability(__VA_ARGS__))
#define OPTIQL_TRY_ACQUIRE(...) \
  OPTIQL_TSA(try_acquire_capability(__VA_ARGS__))
#define OPTIQL_RELEASE(...) OPTIQL_TSA(release_capability(__VA_ARGS__))

// Shared (reader) acquisition/release, for reader-writer capabilities.
#define OPTIQL_ACQUIRE_SHARED(...) \
  OPTIQL_TSA(acquire_shared_capability(__VA_ARGS__))
#define OPTIQL_TRY_ACQUIRE_SHARED(...) \
  OPTIQL_TSA(try_acquire_shared_capability(__VA_ARGS__))
#define OPTIQL_RELEASE_SHARED(...) \
  OPTIQL_TSA(release_shared_capability(__VA_ARGS__))
// Releases a capability held in either mode (TSA cannot always tell which).
#define OPTIQL_RELEASE_GENERIC(...) \
  OPTIQL_TSA(release_generic_capability(__VA_ARGS__))

// Caller-side contracts.
#define OPTIQL_REQUIRES(...) OPTIQL_TSA(requires_capability(__VA_ARGS__))
#define OPTIQL_REQUIRES_SHARED(...) \
  OPTIQL_TSA(requires_shared_capability(__VA_ARGS__))
#define OPTIQL_EXCLUDES(...) OPTIQL_TSA(locks_excluded(__VA_ARGS__))
#define OPTIQL_GUARDED_BY(x) OPTIQL_TSA(guarded_by(x))
#define OPTIQL_PT_GUARDED_BY(x) OPTIQL_TSA(pt_guarded_by(x))
#define OPTIQL_RETURN_CAPABILITY(x) OPTIQL_TSA(lock_returned(x))

// Opts a function out of the analysis. Every use must carry a comment
// explaining which inexpressible pattern it covers (lock coupling,
// optimistic validation, queue-node handover).
#define OPTIQL_NO_THREAD_SAFETY_ANALYSIS \
  OPTIQL_TSA(no_thread_safety_analysis)

#endif  // OPTIQL_COMMON_ANNOTATIONS_H_
