/**
 * @file
 * Capability-annotated synchronization primitives.
 *
 * `std::mutex` carries no capability attribute, so Clang's
 * thread-safety analysis cannot track it — GUARDED_BY(a raw
 * std::mutex) is rejected with "not a capability". These thin wrappers
 * give the analysis something to reason about while compiling down to
 * the exact std primitives (no extra state, no extra branches). All
 * concurrent components must use them; detlint rule DL005 flags raw
 * std::mutex declarations anywhere outside this file.
 */
#ifndef ARTMEM_UTIL_SYNC_HPP
#define ARTMEM_UTIL_SYNC_HPP

#include <mutex>  // lint:allow(DL005) the one sanctioned raw-mutex site

#include "util/thread_annotations.hpp"

namespace artmem {

/** Annotated exclusive mutex; wraps std::mutex 1:1. */
class ARTMEM_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() ARTMEM_ACQUIRE() { mutex_.lock(); }
    void unlock() ARTMEM_RELEASE() { mutex_.unlock(); }

  private:
    std::mutex mutex_;
};

/** RAII scoped lock over Mutex (std::scoped_lock analogue). */
class ARTMEM_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex& mutex) ARTMEM_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }

    ~MutexLock() ARTMEM_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

  private:
    Mutex& mutex_;
};

}  // namespace artmem

#endif  // ARTMEM_UTIL_SYNC_HPP
