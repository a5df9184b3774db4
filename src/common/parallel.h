/**
 * @file
 * ThreadPool: the lanes every PBS runs on.
 *
 * A fixed set of lane threads pops one FIFO of jobs. The serving path
 * posts one job per PBS request (BatchExecutor's flush); the batched
 * path runs a blocking parallelFor in which the caller takes part
 * (ServerContext::bootstrapBatch). Both schedule through this one
 * type, so a change to how lanes take PBS work is made here once.
 */

#ifndef STRIX_COMMON_PARALLEL_H
#define STRIX_COMMON_PARALLEL_H

#include <cstddef>
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
 * Thread safety: post and parallelFor are safe to call concurrently
 * from any thread; concurrent parallelFor calls share the lanes.
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
     * 1-lane pool runs every parallelFor inline on its caller.
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

    Mutex m_;
    CondVar cv_; //!< wakes lanes: job queued or stopping
    std::deque<std::function<void(unsigned)>> jobs_ STRIX_GUARDED_BY(m_);
    bool stop_ STRIX_GUARDED_BY(m_) = false;
    std::vector<std::thread> lanes_; //!< immutable after construction
};

} // namespace strix

#endif // STRIX_COMMON_PARALLEL_H
