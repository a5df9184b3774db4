/**
 * @file
 * ThreadPool implementation.
 */

#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
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
    try {
        for (unsigned lane = 0; lane < lanes; ++lane)
            lanes_.emplace_back([this, lane] { laneLoop(lane); });
    } catch (...) {
        // A lane that cannot start (std::system_error, e.g. EAGAIN
        // under a thread limit): join the lanes already running before
        // the throw leaves, or their std::threads would terminate the
        // process as they are destroyed.
        stopLanes();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    stopLanes();
}

void
ThreadPool::stopLanes()
{
    {
        MutexLock lock(m_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &t : lanes_)
        t.join();
}

void
parallelFor(ThreadPool *pool, size_t count,
            const std::function<void(size_t, unsigned)> &fn)
{
    if (pool != nullptr) {
        pool->parallelFor(count, fn);
        return;
    }
    for (size_t i = 0; i < count; ++i)
        fn(i, 0);
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
    MutexLock lock(m_);
    for (;;) {
        ++waiting_;
        cv_.wait(lock, [&] {
            m_.assertHeld(); // the wait runs its predicate locked
            return stop_ || !jobs_.empty() || !offers_.empty();
        });
        --waiting_;
        std::function<void(unsigned)> job;
        if (!jobs_.empty()) {
            job = std::move(jobs_.front());
            jobs_.pop_front();
            queued_.store(jobs_.size(), std::memory_order_relaxed);
        } else if (!offers_.empty()) {
            job = std::move(offers_.front());
            offers_.pop_front();
        } else {
            return; // stopping, and every queued job has run
        }
        busy_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        job(lane);
        job = nullptr; // its captures go before the lane counts as idle
        busy_.fetch_sub(1, std::memory_order_relaxed);
        lock.lock();
    }
}

void
ThreadPool::post(std::function<void(unsigned lane)> job)
{
    {
        MutexLock lock(m_);
        jobs_.push_back(std::move(job));
        queued_.store(jobs_.size(), std::memory_order_relaxed);
    }
    cv_.notify_one();
}

bool
ThreadPool::postIfIdle(std::function<void(unsigned lane)> job)
{
    // Lock-free refusal first: a full pool must not cost a contended
    // lock.
    if (!hasSpareLane())
        return false;
    {
        MutexLock lock(m_);
        const size_t reserved = offers_.size();
        if (!jobs_.empty() || waiting_ <= reserved ||
            busy_.load(std::memory_order_relaxed) + reserved >= lanes())
            return false;
        offers_.push_back(std::move(job));
    }
    cv_.notify_one();
    return true;
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
    // The caller runs pool work like a lane until its share is done.
    busy_.fetch_add(1, std::memory_order_relaxed);
    loop.run(0);
    busy_.fetch_sub(1, std::memory_order_relaxed);

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

namespace {

/** Wait this long before parking: a few CMux halves at set I. */
constexpr auto kSpin = std::chrono::microseconds(50);

/**
 * Pause this many times, then yield: two sides the scheduler put on
 * one core must hand it over at once, or each half costs a spin.
 */
constexpr unsigned kPauses = 64;

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#else
    std::this_thread::yield();
#endif
}

} // namespace

template <typename Done>
void
LanePair::await(const Done &done)
{
    if (done())
        return;
    const auto give_up = std::chrono::steady_clock::now() + kSpin;
    for (unsigned i = 1;; ++i) {
        if (i < kPauses)
            cpuRelax();
        else
            std::this_thread::yield();
        if (done())
            return;
        if (i % 64 == 0 && std::chrono::steady_clock::now() >= give_up)
            break;
    }
    MutexLock lock(park_m_);
    // Counting first, then re-checking, pairs with wake(): the store a
    // waker made before reading parked_ is seen here, or the waker sees
    // this count and notifies under the mutex (both sequentially
    // consistent).
    parked_.fetch_add(1);
    while (!done())
        park_cv_.wait(lock);
    parked_.fetch_sub(1);
}

void
LanePair::wake()
{
    if (parked_.load() == 0)
        return;
    MutexLock lock(park_m_);
    park_cv_.notify_all();
}

bool
LanePair::ask()
{
    uint64_t idle = kIdle;
    return join_.compare_exchange_strong(idle, kAsked);
}

uint64_t
LanePair::joined()
{
    uint64_t v = kAsked;
    await([&] { return (v = join_.load()) != kAsked; });
    if (v == kClosed) {
        // Closed before this partner took its admission, if it had
        // one: a closing owner may be waiting for it in close().
        partner_.store(kClosed);
        wake();
        return 0;
    }
    // Clear the admission for a later partner; a close since the load
    // must stand, and this partner still meets the owner at v - 1.
    join_.compare_exchange_strong(v, kIdle);
    return v - 1;
}

bool
LanePair::partnerMeet(uint64_t step)
{
    partner_.store(2 * step);
    wake();
    uint64_t o = 0;
    await([&] { return (o = owner_.load()) >= step; });
    if (o != kClosed)
        return true;
    // The owner closed, maybe after it met this step: tell close()
    // this partner is out whatever step it waits for.
    partner_.store(kClosed);
    wake();
    return false;
}

void
LanePair::leave(uint64_t step)
{
    partner_.store(2 * step + 1);
    wake();
}

void
LanePair::admit(uint64_t step)
{
    join_.store(step + 1);
    wake();
}

bool
LanePair::ownerMeet(uint64_t step)
{
    owner_.store(step);
    wake();
    uint64_t p = 0;
    await([&] { return (p = partner_.load()) >= 2 * step; });
    // Past 2 * step the partner met this step and ran on: it may have
    // arrived at, or left before, a later one already.
    return p != 2 * step + 1;
}

void
LanePair::close(uint64_t until)
{
    join_.store(kClosed);
    owner_.store(kClosed);
    wake();
    await([&] { return partner_.load() >= 2 * until; });
}

} // namespace strix
