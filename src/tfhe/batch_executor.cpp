/**
 * @file
 * BatchExecutor implementation.
 *
 * One dispatcher thread owns the flush decisions: it scans the shards
 * for a due fill queue (size, deadline, or drain trigger), moves up
 * to target_batch requests onto the shared ready queue and posts one
 * lane job per request. It never runs a PBS, so a flush costs
 * microseconds and the next scan follows at once. Each lane job pops
 * the oldest ready request and runs it through bootstrapKeySwitch --
 * the same function ServerContext's bootstrap and bootstrapBatch
 * call, so results stay bit-identical to them by construction.
 */

#include "tfhe/batch_executor.h"

#include <algorithm>
#include <exception>
#include <limits>

#include "common/logging.h"
#include "poly/negacyclic_fft.h"

namespace strix {

namespace {

BatchExecutor::Options
sanitized(BatchExecutor::Options opts)
{
    opts.target_batch = std::max<size_t>(1, opts.target_batch);
    return opts;
}

constexpr uint64_t kNoDeadline = std::numeric_limits<uint64_t>::max();

} // namespace

BatchExecutor::Shard::Shard(std::shared_ptr<const EvalKeys> k)
    : keys(std::move(k))
{
    // Lanes read the plan cache lock-free once it is built.
    NegacyclicFft::prewarm(keys->params().N);
}

BatchExecutor::BatchExecutor() : BatchExecutor(Options()) {}

BatchExecutor::BatchExecutor(Options opts,
                             std::shared_ptr<WaitableClock> clock)
    : opts_(sanitized(opts)),
      clock_(clock ? std::move(clock)
                   : std::make_shared<SteadyWaitableClock>()),
      dispatcher_([this] { dispatchLoop(); })
{
}

BatchExecutor::~BatchExecutor()
{
    shutdown();
}

std::future<LweCiphertext>
BatchExecutor::submit(std::shared_ptr<const EvalKeys> keys,
                      LweCiphertext ct, TorusPolynomial test_vector)
{
    panicIfNot(keys != nullptr, "BatchExecutor: null EvalKeys bundle");
    std::future<LweCiphertext> fut;
    {
        MutexLock lock(m_);
        panicIfNot(!stopping_, "BatchExecutor: submit after shutdown");
        // The lanes start with the first request, not with the
        // executor: a daemon builds its executor before any tenant
        // registers, and lanes started that early bind to malloc
        // arenas ahead of its event-loop thread, which then decodes
        // key bundles into a fresh arena instead of reusing freed
        // ones (serve_set1 peak RSS rose ~10% in half the runs on a
        // 4-vCPU host).
        if (!pool_) {
            pool_ = std::make_unique<ThreadPool>();
            scratch_.resize(pool_->lanes());
        }
        const EvalKeys *id = keys.get();
        Shard &shard = shards_.try_emplace(id, std::move(keys)).first->second;
        Request r;
        r.submit_us = clock_->nowMicros();
        r.ct = std::move(ct);
        r.tv = std::move(test_vector);
        fut = r.result.get_future();
        shard.fill.push_back(std::move(r));
        ++stats_.submitted;
        ++in_flight_;
    }
    // Wake the dispatcher to re-evaluate the triggers. The latch in
    // the clock closes the window where it already checked the queues
    // but has not reached its wait yet.
    clock_->signal();
    return fut;
}

void
BatchExecutor::dispatchLoop()
{
    MutexLock lock(m_);
    for (;;) {
        auto due = shards_.end();
        uint64_t *reason = nullptr;
        uint64_t next_deadline = kNoDeadline;
        const uint64_t now = clock_->nowMicros();
        for (auto it = shards_.begin(); it != shards_.end(); ++it) {
            const std::deque<Request> &fill = it->second.fill;
            if (fill.size() >= opts_.target_batch) {
                due = it;
                reason = &stats_.size_flushes;
                break;
            }
            if (stopping_ || flush_now_) {
                due = it;
                reason = &stats_.drain_flushes;
                break;
            }
            uint64_t deadline = fill.front().submit_us + opts_.flush_delay_us;
            if (deadline < fill.front().submit_us)
                deadline = kNoDeadline - 1; // saturate a wrapped sum
            if (deadline <= now) {
                due = it;
                reason = &stats_.deadline_flushes;
                break;
            }
            next_deadline = std::min(next_deadline, deadline);
        }

        if (due != shards_.end()) {
            // Move up to one batch's width onto the ready queue;
            // anything beyond target_batch stays and is picked up by
            // the next pass (likely as a size flush).
            // One job per request, capturing two pointers, so the
            // post fits std::function's inline buffer. The job takes
            // its pool from the capture: shutdown() has already moved
            // pool_ out when the pool's destructor runs the last jobs.
            Shard &sh = due->second;
            const size_t take = std::min(sh.fill.size(), opts_.target_batch);
            ThreadPool *pool = pool_.get();
            for (size_t i = 0; i < take; ++i) {
                ready_.push_back({sh.keys, std::move(sh.fill.front())});
                sh.fill.pop_front();
                pool->post([this, pool](unsigned lane) {
                    runReady(*pool, lane);
                });
            }
            if (sh.fill.empty())
                shards_.erase(due); // its ready requests hold the bundle
            ++stats_.sweeps;
            stats_.swept_lwes += take;
            ++*reason;
            continue;
        }

        if (stopping_)
            return; // every fill is empty and none can refill
        flush_now_ = false; // queues momentarily empty: latch satisfied
        lock.unlock();
        if (next_deadline == kNoDeadline)
            clock_->wait();
        else
            clock_->waitUntil(next_deadline);
        lock.lock();
    }
}

void
BatchExecutor::runReady(ThreadPool &pool, unsigned lane)
{
    MutexLock lock(m_);
    // Each ready request was posted with its own job, so the queue
    // holds at least this job's request.
    Ready job = std::move(ready_.front());
    ready_.pop_front();
    lock.unlock();
    PartnerLanes lanes(pool);
    LweCiphertext out;
    std::exception_ptr failure;
    try {
        // One request per lane job: an epoch of width 1, which an idle
        // lane may join as its partner.
        const TorusPolynomial *tv = &job.req.tv;
        bootstrapKeySwitch(*job.keys, &job.req.ct, &tv, 1, &out,
                           scratch_[lane], &lanes);
    } catch (...) {
        failure = std::current_exception(); // fails this request only
    }
    // Let the bundle go before the caller can see the result: once a
    // tenant's last reply is out, nothing here pins its keys.
    job.keys.reset();
    if (failure)
        job.req.result.set_exception(failure);
    else
        job.req.result.set_value(std::move(out));
    completions_.signal();
    lock.lock();
    ++stats_.completed;
    if (--in_flight_ == 0)
        drained_cv_.notify_all();
}

void
BatchExecutor::drain()
{
    MutexLock lock(m_);
    drained_cv_.wait(lock, [&] {
        m_.assertHeld(); // the wait runs its predicate locked
        return in_flight_ == 0;
    });
}

void
BatchExecutor::flushNow()
{
    {
        MutexLock lock(m_);
        flush_now_ = true;
    }
    clock_->signal();
}

void
BatchExecutor::shutdown()
{
    {
        MutexLock lock(m_);
        stopping_ = true;
    }
    clock_->signal();
    MutexLock join_lock(join_mutex_);
    if (dispatcher_.joinable())
        dispatcher_.join();
    // With the dispatcher done nothing posts any more: destroying the
    // pool, outside m_ since its jobs take it, runs every posted
    // request, then joins the lanes.
    std::unique_ptr<ThreadPool> pool;
    {
        MutexLock lock(m_);
        pool.swap(pool_);
    }
}

BatchExecutor::Stats
BatchExecutor::stats() const
{
    MutexLock lock(m_);
    return stats_;
}

} // namespace strix
