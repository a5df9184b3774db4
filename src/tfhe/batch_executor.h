/**
 * @file
 * BatchExecutor: cross-session dynamic batching for the PBS stream --
 * the software rendering of Strix's two-level ciphertext batching.
 *
 * The paper wins throughput by keeping every PBS unit busy with
 * ciphertexts. `ServerContext::bootstrapBatch` already batches
 * *within* one caller's call; this executor closes the remaining gap
 * by coalescing *across* callers: independent sessions submit single
 * PBS requests and get futures back, and requests that share a
 * params-shard -- the same `EvalKeys` bundle by pointer identity,
 * which is what the daemon's `EvalKeyCache` hands out per tenant --
 * are flushed together as one batch. Requests from different shards
 * never share a batch (cross-tenant isolation by construction: every
 * request runs under exactly its own shard's key bundle).
 *
 * The flush policy has two triggers: a shard flushes when its fill
 * reaches `target_batch` requests (size trigger) or when its oldest
 * request has waited `flush_delay_us` (deadline trigger), so a
 * saturated stream flushes at full width while a trickle still meets
 * a microsecond-scale latency bound. A flush moves the batch onto one
 * FIFO ready queue shared by every shard and posts one job per
 * request to the executor's ThreadPool (one lane per core,
 * `ThreadPool::defaultThreadCount()`, started by the first submit);
 * each job pops the oldest ready request and runs its PBS+KS under
 * its own shard's bundle. Due batches of different tenants therefore
 * run at the same time. While fewer requests run than there are
 * lanes, an idle lane joins a running request as its partner and the
 * two split each CMux step and the keyswitch (README "Lane pairs");
 * the partner gives its lane back at its next step boundary once a
 * request is queued. So neither a narrow flush nor a flush wider than
 * the lanes leaves a lane idle -- the blind-rotation fragmentation of
 * the paper's Fig. 2 arises neither between batches nor inside one.
 *
 * Every completed request (value or exception) signals a self-pipe,
 * completionFd(), so an event loop wakes on completions instead of
 * polling its futures on a timer.
 *
 * Time comes from a WaitableClock, so the deadline path is testable
 * with a ManualWaitableClock and no real sleeps.
 *
 * Thread-safety: every member is safe to call concurrently. Results
 * are bit-identical to calling `bootstrap`/`bootstrapBatch` directly
 * -- batching changes scheduling, never values (asserted by
 * tests/test_batch_executor.cpp).
 */

#ifndef STRIX_TFHE_BATCH_EXECUTOR_H
#define STRIX_TFHE_BATCH_EXECUTOR_H

#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/sync.h"
#include "common/waitclock.h"
#include "common/wake_pipe.h"
#include "tfhe/server_context.h"

namespace strix {

/** Coalesces PBS requests across sessions and runs them on shared lanes. */
class BatchExecutor
{
  public:
    /** Flush-policy knobs. */
    struct Options
    {
        /**
         * Size trigger: a shard flushes as soon as this many requests
         * are waiting (values < 1 are treated as 1). This is the
         * batch width the occupancy metric is measured against.
         */
        size_t target_batch = 16;

        /**
         * Deadline trigger: maximum time a request may wait in the
         * fill queue before its shard is flushed regardless of width.
         * 0 flushes on the dispatcher's next pass.
         */
        uint64_t flush_delay_us = 200;
    };

    /** Monotonic counters; a consistent snapshot via stats(). */
    struct Stats
    {
        uint64_t submitted = 0;        //!< requests accepted
        uint64_t completed = 0;        //!< futures fulfilled
        uint64_t sweeps = 0;           //!< batches flushed to the lanes
        uint64_t swept_lwes = 0;       //!< requests across all flushes
        uint64_t size_flushes = 0;     //!< flushes triggered by width
        uint64_t deadline_flushes = 0; //!< flushes triggered by age
        uint64_t drain_flushes = 0;    //!< flushes triggered by shutdown

        /** Mean batch width over target width: 1.0 = full flushes. */
        double occupancy(size_t target_batch) const
        {
            if (sweeps == 0 || target_batch == 0)
                return 0.0;
            return double(swept_lwes) /
                   (double(sweeps) * double(target_batch));
        }
    };

    /**
     * Start the dispatcher; the lanes start with the first submit.
     * @p clock defaults to a fresh SteadyWaitableClock; tests pass a
     * ManualWaitableClock to drive the deadline trigger
     * deterministically.
     */
    explicit BatchExecutor(Options opts,
                           std::shared_ptr<WaitableClock> clock = nullptr);

    /** Default Options, real clock. */
    BatchExecutor();

    /** Drains every pending request (see shutdown()), then joins. */
    ~BatchExecutor();

    BatchExecutor(const BatchExecutor &) = delete;
    BatchExecutor &operator=(const BatchExecutor &) = delete;

    /**
     * Queue one PBS+KS of @p ct against @p test_vector under @p keys
     * (panics on null, or after shutdown). The future yields a result
     * bit-identical to `ServerContext(keys).bootstrap(ct, tv)`; a
     * failed PBS delivers its exception through that request's
     * future alone. Safe from any thread; requests sharing a keys
     * pointer coalesce into one batch. The executor drops its last
     * reference to @p keys before the future is ready, so a bundle
     * with no request left is held only by its caller's owners.
     */
    std::future<LweCiphertext> submit(std::shared_ptr<const EvalKeys> keys,
                                      LweCiphertext ct,
                                      TorusPolynomial test_vector)
        STRIX_EXCLUDES(m_);

    /**
     * Block until every request submitted so far has completed.
     * Concurrent submitters can re-fill the queues afterwards; drain
     * only promises a moment of emptiness.
     */
    void drain() STRIX_EXCLUDES(m_);

    /**
     * Mark everything currently queued as due and wake the dispatcher
     * (non-blocking); requests submitted later fall back to the
     * normal triggers. A serving layer's shutdown drain calls this
     * each pass so pending responses are fulfilled promptly even
     * under a very long flush_delay_us policy. Flushes this forces
     * are counted as drain_flushes.
     */
    void flushNow() STRIX_EXCLUDES(m_);

    /**
     * Stop accepting submissions, flush everything still queued
     * (futures are fulfilled, not dropped), join the dispatcher, then
     * destroy the lane pool, which runs every posted request and
     * joins the lanes. Idempotent and safe to call concurrently; the
     * destructor calls it. Submitting afterwards panics.
     */
    void shutdown() STRIX_EXCLUDES(m_, join_mutex_);

    /** Snapshot of the counters. */
    Stats stats() const STRIX_EXCLUDES(m_);

    /**
     * Read end of the completion pipe: readable once a future this
     * executor made ready (value or exception) may not have been seen.
     * Watch it in poll(2) and call drainCompletions() before checking
     * the futures.
     */
    int completionFd() const { return completions_.fd(); }

    /** Consume the completion pipe's pending signals. */
    void drainCompletions() { completions_.drain(); }

    const Options &options() const { return opts_; }

  private:
    /** One queued PBS request. */
    struct Request
    {
        uint64_t submit_us = 0; //!< clock time at submission
        LweCiphertext ct;
        TorusPolynomial tv;
        std::promise<LweCiphertext> result;
    };

    /**
     * Per-params-shard state: the key bundle and the fill queue the
     * dispatcher flushes batches out of. A shard exists only while its
     * fill queue is non-empty: submit creates it, and the flush that
     * empties the queue erases it, so the executor holds a tenant's
     * bundle only while that tenant has queued or running requests.
     */
    struct Shard
    {
        explicit Shard(std::shared_ptr<const EvalKeys> k);

        const std::shared_ptr<const EvalKeys> keys;
        std::deque<Request> fill; //!< never empty
    };

    /** A flushed request waiting for a lane, holding its own bundle. */
    struct Ready
    {
        std::shared_ptr<const EvalKeys> keys;
        Request req;
    };

    void dispatchLoop() STRIX_EXCLUDES(m_);
    /** One job on @p pool's lane: run the oldest ready request. */
    void runReady(ThreadPool &pool, unsigned lane) STRIX_EXCLUDES(m_);

    const Options opts_;
    const std::shared_ptr<WaitableClock> clock_;

    // Lock order: m_ is never held across a WaitableClock call -- the
    // dispatcher releases it around clock_->wait()/waitUntil() and
    // producers signal() after dropping it, so BatchExecutor::m_ and
    // the clock's internal mutex are never nested.
    mutable Mutex m_;
    std::map<const EvalKeys *, Shard> shards_ STRIX_GUARDED_BY(m_);
    std::deque<Ready> ready_ STRIX_GUARDED_BY(m_); //!< FIFO, all shards
    Stats stats_ STRIX_GUARDED_BY(m_);
    uint64_t in_flight_ STRIX_GUARDED_BY(m_) = 0; //!< submitted - completed
    bool stopping_ STRIX_GUARDED_BY(m_) = false;
    bool flush_now_ STRIX_GUARDED_BY(m_) = false; //!< force-flush latch
    CondVar drained_cv_; //!< signaled at in_flight_ == 0

    // One per lane, sized with pool_ before any job is posted; lane L
    // alone touches scratch_[L], so it needs no lock.
    std::vector<PbsScratch> scratch_;
    std::unique_ptr<ThreadPool> pool_ STRIX_GUARDED_BY(m_); //!< first submit

    WakePipe completions_; //!< signaled after every future is ready

    Mutex join_mutex_;       //!< serializes concurrent shutdown()s
    std::thread dispatcher_; //!< started last: sees a complete object
};

} // namespace strix

#endif // STRIX_TFHE_BATCH_EXECUTOR_H
