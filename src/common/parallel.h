/**
 * @file
 * ThreadPool: the lanes every PBS runs on.
 *
 * A fixed set of lane threads pops one FIFO of jobs. The serving path
 * posts one job per PBS request (BatchExecutor's flush); the batched
 * path runs a blocking parallelFor in which the caller takes part
 * (ServerContext::bootstrapBatch). Both schedule through this one
 * type, so a change to how lanes take PBS work is made here once.
 *
 * Lane pairs: a PBS narrower than the pool offers its second half to
 * an idle lane (postIfIdle), and the two lanes then meet once per
 * step through a LanePair. A partner gives its lane back at the next
 * step boundary once a job is queued (queued()), so queued work
 * waits one step, never a whole PBS.
 */

#ifndef STRIX_COMMON_PARALLEL_H
#define STRIX_COMMON_PARALLEL_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace strix {

/**
 * Fixed lanes over one FIFO of jobs.
 *
 * post(job) queues job(lane); lanes run jobs in FIFO order, one at a
 * time each.
 *
 * parallelFor(count, fn) invokes fn(index, worker) exactly once for
 * every index in [0, count). The calling thread takes part as worker
 * 0 and posts at most min(count, lanes()) - 1 helper jobs; a helper
 * running on lane L joins as worker L + 1. So `worker` lies in
 * [0, lanes()] and can index per-worker scratch of size lanes() + 1,
 * and at most lanes() calls of fn run at once. Indices are handed out
 * dynamically (one shared atomic counter) for load balance; callers
 * that need deterministic output write results by index, which makes
 * the result independent of the schedule. The caller never waits for
 * a helper to start: it can finish the loop alone, so a parallelFor
 * called from inside a job cannot deadlock, and a helper that a lane
 * pops after the caller has finished returns without touching fn.
 *
 * postIfIdle(job) runs job(lane) on an idle lane only if the pool has
 * one to spare; lane pairs use it to find a partner (see LanePair).
 *
 * Thread safety: post, postIfIdle, hasSpareLane, queued and
 * parallelFor are safe to call concurrently from any thread;
 * concurrent parallelFor calls share the lanes.
 *
 * Error contract: if fn throws, the loop stops handing out new
 * indices, in-flight indices on other workers still complete, and the
 * *first* exception (in completion order) is rethrown on the calling
 * thread once the loop has quiesced; later exceptions are dropped.
 * Indices never handed out are never attempted, and the pool remains
 * fully usable afterwards. The contract is identical whether the loop
 * runs inline (a 1-lane pool, or count == 1) or across helpers, since
 * both go through the same abort/record/deferred-rethrow machinery,
 * asserted by tests/test_parallel.cpp. A posted job must not throw.
 */
class ThreadPool
{
  public:
    /**
     * Start @p lanes lane threads; 0 means defaultThreadCount(). A
     * 1-lane pool runs every parallelFor inline on its caller. If a
     * lane cannot start, the lanes already started are joined and the
     * std::system_error propagates.
     */
    explicit ThreadPool(unsigned lanes = 0);

    /** Run every job still queued, then join the lanes. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Lane threads: >= 1. */
    unsigned lanes() const { return static_cast<unsigned>(lanes_.size()); }

    /** Queue job(lane); jobs start in the order they were posted. */
    void post(std::function<void(unsigned lane)> job) STRIX_EXCLUDES(m_);

    /**
     * Run job(lane) on an idle lane if the pool has one to spare: no
     * job is queued, a lane is waiting for work that no earlier offer
     * has reserved, and fewer than lanes() threads run pool work
     * (lane jobs, offers, and parallelFor callers until their own
     * share of the loop is done). The offer then reserves that lane:
     * it never waits behind a posted job, and queued() does not count
     * it. Otherwise returns false and drops @p job. A lane still
     * prefers a posted job, so an offer whose lane was taken runs on
     * the next lane to go idle. Like a posted job, it must not throw.
     */
    bool postIfIdle(std::function<void(unsigned lane)> job)
        STRIX_EXCLUDES(m_);

    /**
     * Lock-free: false if postIfIdle would refuse now because a job is
     * queued or lanes() threads run pool work. True promises no lane
     * (postIfIdle checks again under its lock); a caller that must
     * build its job first asks this before paying for it.
     */
    bool hasSpareLane() const
    {
        return queued() == 0 &&
               busy_.load(std::memory_order_relaxed) < lanes();
    }

    /** Posted jobs not yet started (offers excluded); lock-free. */
    size_t queued() const { return queued_.load(std::memory_order_relaxed); }

    /** Run fn(index, worker) for every index in [0, count). */
    void parallelFor(size_t count,
                     const std::function<void(size_t, unsigned)> &fn)
        STRIX_EXCLUDES(m_);

    /**
     * Pool size used when the constructor gets 0: the STRIX_THREADS
     * environment variable if set to a positive integer in [1, 4096],
     * otherwise std::thread::hardware_concurrency() (minimum 1).
     * Anything else -- including negative values, which strtoul would
     * otherwise silently wrap into the accepted range -- is rejected
     * with a warning and falls back to the hardware default.
     */
    static unsigned defaultThreadCount();

  private:
    void laneLoop(unsigned lane) STRIX_EXCLUDES(m_);
    /** Stop and join every started lane. */
    void stopLanes() STRIX_EXCLUDES(m_);

    Mutex m_;
    CondVar cv_; //!< wakes lanes: job or offer queued, or stopping
    std::deque<std::function<void(unsigned)>> jobs_ STRIX_GUARDED_BY(m_);
    std::deque<std::function<void(unsigned)>> offers_ STRIX_GUARDED_BY(m_);
    unsigned waiting_ STRIX_GUARDED_BY(m_) = 0; //!< lanes with nothing to run
    bool stop_ STRIX_GUARDED_BY(m_) = false;
    std::atomic<size_t> queued_{0}; //!< jobs_.size(), for lock-free reads
    std::atomic<unsigned> busy_{0}; //!< threads running pool work
    std::vector<std::thread> lanes_; //!< immutable after construction
};

/**
 * pool->parallelFor(count, fn), or, with no pool, fn(index, 0) for
 * every index in order on the caller. For work whose result is the
 * same at any lane count (split key expansion), so a caller without a
 * pool runs the same loop body.
 */
void parallelFor(ThreadPool *pool, size_t count,
                 const std::function<void(size_t, unsigned)> &fn);

/**
 * The two-party handshake of a lane pair: an owner runs a numbered
 * sequence of steps (numbered from 1, increasing, not necessarily
 * consecutive) and splits each with a partner lane while one is
 * attached. A step is a first half, one meeting, and a second half,
 * so data each side writes in its first half may be read by the other
 * in its second half.
 *
 * - A partner calls ask() and, if the pair took it, joined(), which
 *   returns the step the owner admits it at (or 0 once the owner has
 *   closed).
 * - At the boundary before each step, an owner without a partner
 *   calls pending() and, if a partner has asked, admit(step).
 * - Both sides then meet once per step: partnerMeet(step) and
 *   ownerMeet(step).
 * - At a boundary of its choosing, the partner calls leave(step): it
 *   has finished every step before @p step and runs none after. The
 *   owner learns it at its next meeting, which then returns false.
 * - close(until) ends the pair: later asks are refused, a partner
 *   waiting in joined() or partnerMeet() is released, and the owner
 *   waits until an attached partner is out of its halves.
 *
 * Every wait pauses briefly, then yields for a few tens of
 * microseconds, then parks on a condition variable: two sides the
 * scheduler put on one core hand it over at once, and a side that is
 * preempted does not leave the other burning a core. All shared state is atomics or guarded by the
 * park mutex, so ThreadSanitizer sees every handshake.
 */
class LanePair
{
  public:
    /**
     * Partner: ask to join at the owner's next boundary. False if the
     * pair is closed (or another partner holds it).
     */
    bool ask();

    /** Partner: wait for admission; the step, or 0 if closed. */
    uint64_t joined() STRIX_EXCLUDES(park_m_);

    /**
     * Partner: arrive at @p step, then wait for the owner. False if
     * the owner closed the pair instead.
     */
    bool partnerMeet(uint64_t step) STRIX_EXCLUDES(park_m_);

    /** Partner: every step before @p step is done; leave the pair. */
    void leave(uint64_t step) STRIX_EXCLUDES(park_m_);

    /** Owner: has a partner asked to join? Lock-free. */
    bool pending() const
    {
        return join_.load(std::memory_order_acquire) == kAsked;
    }

    /** Owner, after pending(): the partner joins at @p step. */
    void admit(uint64_t step) STRIX_EXCLUDES(park_m_);

    /**
     * Owner: arrive at @p step, then wait for the partner. True if it
     * arrived (it may be in a later step already); false if it left
     * before @p step, in which case every step before @p step is done
     * and the owner continues alone.
     */
    bool ownerMeet(uint64_t step) STRIX_EXCLUDES(park_m_);

    /**
     * Owner: refuse later asks, release a waiting partner, then wait
     * until the partner has finished every step before @p until. An
     * owner that leaves mid-step (an exception) passes the step it
     * has not yet met, or the one after the step it has, so the
     * partner is out of the owner's buffers before they go; an owner
     * without a partner passes 0.
     */
    void close(uint64_t until) STRIX_EXCLUDES(park_m_);

  private:
    static constexpr uint64_t kIdle = 0;
    static constexpr uint64_t kAsked = 1;
    static constexpr uint64_t kClosed = UINT64_MAX;

    /** Spin, then park until @p done() holds. */
    template <typename Done>
    void await(const Done &done) STRIX_EXCLUDES(park_m_);
    /** Wake a parked side after a store it may wait on. */
    void wake() STRIX_EXCLUDES(park_m_);

    /** kIdle, kAsked, admitted step + 1, or kClosed. */
    std::atomic<uint64_t> join_{kIdle};
    /** The owner's last meeting step, or kClosed. */
    alignas(64) std::atomic<uint64_t> owner_{0};
    /**
     * 2 * step at the partner's meeting, 2 * step + 1 on leave(step),
     * kClosed once a partner found the pair closed.
     */
    alignas(64) std::atomic<uint64_t> partner_{0};
    alignas(64) std::atomic<unsigned> parked_{0}; //!< sides in await
    Mutex park_m_;
    CondVar park_cv_;
};

} // namespace strix

#endif // STRIX_COMMON_PARALLEL_H
