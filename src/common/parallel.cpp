/**
 * @file
 * ThreadPool implementation.
 */

#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace strix {

namespace {

/**
 * One parallelFor call's shared state. Helpers hold it by shared_ptr,
 * so a helper that a lane pops after the caller has returned still
 * finds it alive, and finds `closed`, which sends it away before it
 * can touch the (by then dangling) fn.
 */
struct Loop
{
    Loop(const std::function<void(size_t, unsigned)> &f, size_t n)
        : fn(&f), count(n)
    {
    }

    /** Take indices until they run out or a call has thrown. */
    void run(unsigned worker)
    {
        size_t i;
        while (!abort.load(std::memory_order_relaxed) &&
               (i = next.fetch_add(1, std::memory_order_relaxed)) <
                   count) {
            try {
                (*fn)(i, worker);
            } catch (...) {
                abort.store(true, std::memory_order_relaxed);
                MutexLock lock(m);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    }

    /** A posted helper's body: join the loop unless it is closed. */
    void help(unsigned worker)
    {
        {
            MutexLock lock(m);
            if (closed)
                return;
            ++helpers;
        }
        run(worker);
        MutexLock lock(m);
        if (--helpers == 0 && closed)
            idle_cv.notify_one();
    }

    const std::function<void(size_t, unsigned)> *const fn;
    const size_t count;
    // Lock-free mid-loop fast path every worker hammers (relaxed order
    // suffices: indices carry no payload, and results are published
    // to the caller through m).
    std::atomic<size_t> next{0};     //!< next index to hand out
    std::atomic<bool> abort{false};  //!< set on the first exception
    Mutex m;
    CondVar idle_cv; //!< wakes the closed caller at helpers == 0
    unsigned helpers STRIX_GUARDED_BY(m) = 0; //!< helpers inside run()
    bool closed STRIX_GUARDED_BY(m) = false;  //!< caller left run()
    std::exception_ptr first_error STRIX_GUARDED_BY(m);
};

} // namespace

ThreadPool::ThreadPool(unsigned lanes)
{
    if (lanes == 0)
        lanes = defaultThreadCount();
    lanes_.reserve(lanes);
    for (unsigned lane = 0; lane < lanes; ++lane)
        lanes_.emplace_back([this, lane] { laneLoop(lane); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(m_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : lanes_)
        t.join();
}

unsigned
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("STRIX_THREADS")) {
        // strtoul accepts a leading minus and wraps the negated value
        // into unsigned range ("-1" -> ULONG_MAX, and a large negative
        // can wrap back *inside* [1, 4096] on its way through 2^64),
        // so a sign must be rejected before parsing, not after.
        const char *num = env;
        while (std::isspace(static_cast<unsigned char>(*num)))
            ++num;
        char *end = nullptr;
        unsigned long v = 0;
        if (*num != '-')
            v = std::strtoul(num, &end, 10);
        if (end != num && end != nullptr && *end == '\0' && v >= 1 &&
            v <= 4096)
            return static_cast<unsigned>(v);
        warn("ignoring invalid STRIX_THREADS value '" +
             std::string(env) + "'");
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : hc;
}

void
ThreadPool::laneLoop(unsigned lane)
{
    for (;;) {
        std::function<void(unsigned)> job;
        {
            MutexLock lock(m_);
            cv_.wait(lock, [&] {
                m_.assertHeld(); // the wait runs its predicate locked
                return stop_ || !jobs_.empty();
            });
            if (jobs_.empty())
                return; // stopping, and every queued job has run
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job(lane);
    }
}

void
ThreadPool::post(std::function<void(unsigned lane)> job)
{
    {
        MutexLock lock(m_);
        jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
}

void
ThreadPool::parallelFor(size_t count,
                        const std::function<void(size_t, unsigned)> &fn)
{
    if (count == 0)
        return;
    auto shared = std::make_shared<Loop>(fn, count);
    const size_t helpers = std::min<size_t>(count, lanes()) - 1;
    for (size_t h = 0; h < helpers; ++h)
        post([shared](unsigned lane) { shared->help(lane + 1); });
    Loop &loop = *shared;
    loop.run(0);

    MutexLock lock(loop.m);
    loop.closed = true;
    loop.idle_cv.wait(lock, [&] {
        loop.m.assertHeld(); // the wait runs its predicate locked
        return loop.helpers == 0;
    });
    // Take the error out of the shared state: a late helper may free
    // that state on its lane, and the exception must stay the caller's.
    if (std::exception_ptr e = std::exchange(loop.first_error, nullptr)) {
        lock.unlock();
        std::rethrow_exception(e);
    }
}

} // namespace strix
