/**
 * @file
 * Waitable monotonic clock: the time seam for deadline-driven queues.
 *
 * A flush loop (the BatchExecutor's dispatcher) needs exactly three
 * time operations: read a monotonic microsecond counter, sleep until a
 * deadline, and be woken early by a producer. Bundling them behind one interface makes the deadline
 * path testable: production code gets SteadyWaitableClock (real
 * std::chrono::steady_clock time), tests get ManualWaitableClock and
 * advance virtual time deterministically -- a "deadline elapsed" test
 * never has to sleep for real or race the scheduler.
 *
 * Wakeups use a latch, not an edge: signal() with no waiter present
 * makes the *next* wait return immediately. That closes the classic
 * lost-wakeup window where a consumer checks its queue, finds it
 * empty, and a producer signals before the consumer reaches wait().
 */

#ifndef STRIX_COMMON_WAITCLOCK_H
#define STRIX_COMMON_WAITCLOCK_H

#include <chrono>
#include <cstdint>

#include "common/sync.h"

namespace strix {

/**
 * Monotonic microsecond clock with latched deadline waits.
 *
 * Time starts at 0 when the clock is constructed and never goes
 * backwards. All members are safe to call concurrently; any number of
 * threads may wait, and signal() wakes them all (each consumes no
 * more than the one latched signal -- waiters re-check their own
 * state, so spurious returns are part of the contract).
 */
class WaitableClock
{
  public:
    virtual ~WaitableClock() = default;

    /** Monotonic microseconds since clock construction. */
    virtual uint64_t nowMicros() const = 0;

    /**
     * Block until nowMicros() >= deadline_us or a signal arrives
     * (latched or live). Returns true if a signal was consumed,
     * false if the deadline elapsed. Callers must re-check their own
     * predicate either way.
     */
    virtual bool waitUntil(uint64_t deadline_us) = 0;

    /** Block until a signal arrives (no deadline). */
    virtual void wait() = 0;

    /** Wake current waiters; latch for the next one if none. */
    virtual void signal() = 0;
};

/** WaitableClock over std::chrono::steady_clock. */
class SteadyWaitableClock final : public WaitableClock
{
  public:
    SteadyWaitableClock() : start_(std::chrono::steady_clock::now()) {}

    uint64_t nowMicros() const override;
    bool waitUntil(uint64_t deadline_us) override;
    void wait() override;
    void signal() override;

  private:
    const std::chrono::steady_clock::time_point start_;
    mutable Mutex m_;
    CondVar cv_;
    bool signaled_ STRIX_GUARDED_BY(m_) = false; //!< the wakeup latch
};

/**
 * Manually advanced WaitableClock for tests. Time only moves when
 * advance()/set() is called; both wake deadline waiters so they can
 * re-evaluate. A waitUntil() whose deadline is already in the past
 * returns immediately.
 */
class ManualWaitableClock final : public WaitableClock
{
  public:
    uint64_t nowMicros() const override;
    bool waitUntil(uint64_t deadline_us) override;
    void wait() override;
    void signal() override;

    /** Move virtual time forward by @p micros. */
    void advance(uint64_t micros);

    /** Jump virtual time to @p micros (panics on going backwards). */
    void set(uint64_t micros);

  private:
    mutable Mutex m_;
    CondVar cv_;
    uint64_t now_us_ STRIX_GUARDED_BY(m_) = 0;   //!< virtual time
    bool signaled_ STRIX_GUARDED_BY(m_) = false; //!< the wakeup latch
};

} // namespace strix

#endif // STRIX_COMMON_WAITCLOCK_H
