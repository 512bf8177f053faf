// Clang Thread Safety Analysis attribute macros (trail::sync).
//
// These wrap the `capability`-family attributes so that annotated code
// compiles as plain C++ everywhere and becomes a compile-time proof
// obligation under Clang: with `-Wthread-safety` (promoted to an error
// by TRAIL_WERROR), touching a TRAIL_GUARDED_BY member without holding
// its mutex, or calling a TRAIL_REQUIRES function without the
// capability, fails the build. GCC and other compilers see empty
// macros — the annotations are documentation there, and the TSan CI
// job provides the dynamic check.
//
// Conventions (enforced by scripts/lint.py):
//   * every first-party mutex is a trail::sync type — raw std::mutex /
//     std::condition_variable never appear outside src/sync/;
//   * every mutable member of a class that owns a sync::Mutex is either
//     TRAIL_GUARDED_BY(that mutex), TRAIL_PT_GUARDED_BY(that mutex) for
//     a pointer whose pointee the mutex protects, a std::atomic, or
//     const.
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define TRAIL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TRAIL_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a capability (a lockable resource).
#define TRAIL_CAPABILITY(x) TRAIL_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define TRAIL_SCOPED_CAPABILITY TRAIL_THREAD_ANNOTATION(scoped_lockable)

/// Data members readable/writable only while holding the capability.
#define TRAIL_GUARDED_BY(x) TRAIL_THREAD_ANNOTATION(guarded_by(x))

/// Pointer members whose *pointee* is protected by the capability.
#define TRAIL_PT_GUARDED_BY(x) TRAIL_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function attributes: the function must be called with / without the
/// capability held.
#define TRAIL_REQUIRES(...) TRAIL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TRAIL_EXCLUDES(...) TRAIL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function attributes: the function acquires / releases the capability.
#define TRAIL_ACQUIRE(...) TRAIL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TRAIL_RELEASE(...) TRAIL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
