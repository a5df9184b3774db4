/**
 * @file
 * Annotated synchronization primitives for thread-safety analysis.
 *
 * Thin, zero-cost wrappers over the std primitives that carry the
 * clang Thread Safety Analysis attributes libstdc++'s own types lack
 * (see common/thread_annotations.h). Every mutex in this codebase
 * that guards STRIX_GUARDED_BY state uses these wrappers, so the
 * locking discipline is machine-checked on the clang CI leg:
 *
 *   Mutex m_;
 *   int value_ STRIX_GUARDED_BY(m_);
 *   ...
 *   MutexLock lock(m_);   // analysis: m_ acquired here
 *   value_ = 1;           // ok; without the lock: compile error
 *
 * Condition variables use CondVar (std::condition_variable_any),
 * which waits directly on a MutexLock; wait *predicates* must open
 * with `m_.assertHeld()` because the analysis treats a lambda body as
 * a standalone function and cannot see that the wait machinery runs
 * it with the lock held.
 */

#ifndef STRIX_COMMON_SYNC_H
#define STRIX_COMMON_SYNC_H

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace strix {

/** std::mutex with thread-safety-analysis attributes. */
class STRIX_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() STRIX_ACQUIRE() { m_.lock(); }
    void unlock() STRIX_RELEASE() { m_.unlock(); }
    bool try_lock() STRIX_TRY_ACQUIRE(true) { return m_.try_lock(); }

    /**
     * Tell the analysis this mutex is held (runtime no-op). For wait
     * predicates and other contexts the analysis cannot see into;
     * every use is a manual claim, so keep them next to the wait that
     * makes them true.
     */
    void assertHeld() const STRIX_ASSERT_CAPABILITY(this) {}

  private:
    std::mutex m_;
};

/**
 * Scoped exclusive lock over a Mutex (lock_guard / unique_lock in
 * one): acquires in the constructor, releases in the destructor, and
 * supports manual unlock()/lock() so it can back condition-variable
 * waits and unlock-before-rethrow paths. Not movable -- the analysis
 * tracks the object itself as the held capability.
 */
class STRIX_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) STRIX_ACQUIRE(m) : m_(m) { m_.lock(); }

    ~MutexLock() STRIX_RELEASE()
    {
        if (held_)
            m_.unlock();
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Re-acquire after a manual unlock (CondVar uses this pair). */
    void lock() STRIX_ACQUIRE()
    {
        m_.lock();
        held_ = true;
    }

    void unlock() STRIX_RELEASE()
    {
        held_ = false;
        m_.unlock();
    }

  private:
    Mutex &m_;
    bool held_ = true;
};

/**
 * Condition variable that waits on a MutexLock.
 * condition_variable_any works with any BasicLockable, which is what
 * lets the annotated scoped lock stand in for std::unique_lock; the
 * pool/executor wakeup paths this backs are per-job, not per-index,
 * so the _any indirection costs nothing measurable.
 */
using CondVar = std::condition_variable_any;

} // namespace strix

#endif // STRIX_COMMON_SYNC_H
