/**
 * @file
 * Clang thread-safety (capability) annotation shim.
 *
 * Under Clang the macros expand to the capability attributes consumed
 * by `-Wthread-safety` (promoted to an error by ARTMEM_STRICT), so
 * lock discipline on every concurrent component — today the sweep
 * runner's progress meter — is checked at compile time. Under GCC
 * every macro compiles away to nothing, so the annotated tree builds
 * identically there.
 *
 * Conventions (DESIGN.md §11):
 *  - never declare a raw `std::mutex` member; use `artmem::Mutex`
 *    (util/sync.hpp) so the analysis sees a capability type. The
 *    detlint rule DL005 enforces this mechanically.
 *  - every field touched by more than one thread is either an atomic
 *    or carries ARTMEM_GUARDED_BY(its mutex);
 *  - functions with a locking precondition say so with
 *    ARTMEM_REQUIRES.
 */
#ifndef ARTMEM_UTIL_THREAD_ANNOTATIONS_HPP
#define ARTMEM_UTIL_THREAD_ANNOTATIONS_HPP

#if defined(__clang__) && !defined(ARTMEM_NO_THREAD_SAFETY_ANNOTATIONS)
#define ARTMEM_TSA_(x) __attribute__((x))
#else
#define ARTMEM_TSA_(x)  // no-op on GCC and friends
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define ARTMEM_CAPABILITY(x) ARTMEM_TSA_(capability(x))

/** Marks an RAII type that acquires on construction, releases on
 *  destruction (MutexLock). */
#define ARTMEM_SCOPED_CAPABILITY ARTMEM_TSA_(scoped_lockable)

/** Data member readable/writable only while holding the capability. */
#define ARTMEM_GUARDED_BY(x) ARTMEM_TSA_(guarded_by(x))

/** Pointer member whose pointee is guarded by the capability. */
#define ARTMEM_PT_GUARDED_BY(x) ARTMEM_TSA_(pt_guarded_by(x))

/** Function precondition: the listed capabilities are held. */
#define ARTMEM_REQUIRES(...) ARTMEM_TSA_(requires_capability(__VA_ARGS__))

/** Function acquires the listed capabilities (held on return). */
#define ARTMEM_ACQUIRE(...) ARTMEM_TSA_(acquire_capability(__VA_ARGS__))

/** Function releases the listed capabilities. */
#define ARTMEM_RELEASE(...) ARTMEM_TSA_(release_capability(__VA_ARGS__))

/** Function tries to acquire; first argument is the success value. */
#define ARTMEM_TRY_ACQUIRE(...) \
    ARTMEM_TSA_(try_acquire_capability(__VA_ARGS__))

/** Function must be called with the capabilities NOT held. */
#define ARTMEM_EXCLUDES(...) ARTMEM_TSA_(locks_excluded(__VA_ARGS__))

/** Tells the analysis the capability is held (runtime-checked facts,
 *  condition-variable predicates). */
#define ARTMEM_ASSERT_CAPABILITY(x) ARTMEM_TSA_(assert_capability(x))

/** Function returns a reference to the named capability. */
#define ARTMEM_RETURN_CAPABILITY(x) ARTMEM_TSA_(lock_returned(x))

/** Opt a function out of the analysis (initialization/teardown paths
 *  whose exclusivity the analysis cannot see). Use sparingly; every
 *  use needs a comment saying why the exclusion is sound. */
#define ARTMEM_NO_THREAD_SAFETY_ANALYSIS \
    ARTMEM_TSA_(no_thread_safety_analysis)

#endif  // ARTMEM_UTIL_THREAD_ANNOTATIONS_HPP
