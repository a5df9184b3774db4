/**
 * @file
 * Portable clang Thread Safety Analysis annotation macros.
 *
 * Clang's -Wthread-safety turns locking discipline into a compile-time
 * property: data members declare which mutex guards them
 * (STRIX_GUARDED_BY), functions declare which locks they take, need,
 * or must not hold (STRIX_ACQUIRE / STRIX_REQUIRES / STRIX_EXCLUDES),
 * and any access that cannot be proven to hold the right capability is
 * a hard error under -Werror. On compilers without the analysis (gcc,
 * MSVC) every macro expands to nothing, so annotated code builds
 * everywhere and the clang CI leg is the enforcer.
 *
 * The annotations only bind to *annotated* lock types: libstdc++'s
 * std::mutex and std::lock_guard carry no attributes, so locking
 * through them is invisible to the analysis and every guarded access
 * would be flagged. Use the annotated wrappers in common/sync.h
 * (strix::Mutex, strix::MutexLock, ...) for any mutex that guards
 * annotated state.
 *
 * Macro names and attribute spellings follow the reference header in
 * the clang Thread Safety Analysis documentation.
 */

#ifndef STRIX_COMMON_THREAD_ANNOTATIONS_H
#define STRIX_COMMON_THREAD_ANNOTATIONS_H

#if defined(__clang__)
#define STRIX_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define STRIX_THREAD_ANNOTATION_(x) // no-op outside clang
#endif

/** Marks a class as a lockable capability (e.g. a mutex wrapper). */
#define STRIX_CAPABILITY(x) STRIX_THREAD_ANNOTATION_(capability(x))

/** Marks an RAII class whose lifetime equals holding a capability. */
#define STRIX_SCOPED_CAPABILITY STRIX_THREAD_ANNOTATION_(scoped_lockable)

/** Data member accessible only with @p x held. */
#define STRIX_GUARDED_BY(x) STRIX_THREAD_ANNOTATION_(guarded_by(x))

/** Pointer member whose *pointee* is guarded by @p x. */
#define STRIX_PT_GUARDED_BY(x) STRIX_THREAD_ANNOTATION_(pt_guarded_by(x))

/** Function requires the capability held exclusively on entry. */
#define STRIX_REQUIRES(...) \
    STRIX_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/** Function acquires the capability exclusively (held on return). */
#define STRIX_ACQUIRE(...) \
    STRIX_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/** Function releases an exclusively held capability. */
#define STRIX_RELEASE(...) \
    STRIX_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/** Function tries to acquire; first arg is the success return value. */
#define STRIX_TRY_ACQUIRE(...) \
    STRIX_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/**
 * Function must NOT be entered with the capability held (documents
 * non-reentrancy and lock ordering; catches self-deadlock).
 */
#define STRIX_EXCLUDES(...) \
    STRIX_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/**
 * Runtime no-op that tells the analysis the capability is held from
 * this point on. The escape hatch for contexts the analysis cannot
 * see through -- condition-variable wait predicates are the canonical
 * case: the lock IS held when the predicate runs, but the predicate
 * body is analyzed as a standalone lambda.
 */
#define STRIX_ASSERT_CAPABILITY(x) \
    STRIX_THREAD_ANNOTATION_(assert_capability(x))

/** Function returns a reference to the capability guarding @p x. */
#define STRIX_RETURN_CAPABILITY(x) \
    STRIX_THREAD_ANNOTATION_(lock_returned(x))

/**
 * Opt a function out of the analysis entirely. Only with a comment
 * carrying the manual proof -- silent annotation-washing defeats the
 * whole point of the gating CI leg.
 */
#define STRIX_NO_THREAD_SAFETY_ANALYSIS \
    STRIX_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif // STRIX_COMMON_THREAD_ANNOTATIONS_H
