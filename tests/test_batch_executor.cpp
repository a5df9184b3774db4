/**
 * @file
 * BatchExecutor tests: the WaitableClock seam, both flush triggers
 * (size and deadline, the latter driven by a ManualWaitableClock with
 * no real sleeps), bit-identity against the direct bootstrapBatch
 * path with two tenants' batches on the lanes at once, cross-tenant
 * shard isolation, shutdown/drain semantics, when the executor's and
 * a ServerContext's lanes start and stop, that the executor lets a
 * bundle go as soon as its last request is answered (a failed PBS
 * included), and concurrent mixed-tenant submit stresses for the TSan
 * CI leg.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <poll.h>

#include "common/parallel.h"
#include "common/waitclock.h"
#include "support/test_util.h"
#include "tfhe/batch_executor.h"
#include "tfhe/server_context.h"

using namespace strix;
using namespace strix::test;

namespace {

constexpr uint64_t kSpace = 8;

/** A deadline the real clock will not hit within any test's runtime. */
constexpr uint64_t kNeverUs = 3600u * 1000u * 1000u; // one hour

void
expectSameCiphertext(const LweCiphertext &a, const LweCiphertext &b,
                     size_t index)
{
    EXPECT_EQ(a.raw(), b.raw())
        << "ciphertext " << index << " differs from the direct path";
}

/** Threads of this process: the entries of /proc/self/task. */
size_t
threadCount()
{
    using std::filesystem::directory_iterator;
    return size_t(std::distance(directory_iterator("/proc/self/task"),
                                directory_iterator()));
}

/**
 * threadCount() once it reaches @p want, or after ~2 s: a joined
 * thread's task entry can outlive its join by a moment.
 */
size_t
settledThreadCount(size_t want)
{
    for (int i = 0; i < 2000 && threadCount() != want; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return threadCount();
}

/** Whether @p fd is readable within @p timeout_ms (0: right now). */
bool
readable(int fd, int timeout_ms = 0)
{
    struct pollfd p = {fd, POLLIN, 0};
    return ::poll(&p, 1, timeout_ms) == 1 && (p.revents & POLLIN) != 0;
}

/** Sets STRIX_THREADS for its scope, then restores it. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(const char *value)
    {
        if (const char *old = std::getenv("STRIX_THREADS"))
            saved_ = old;
        had_ = std::getenv("STRIX_THREADS") != nullptr;
        setenv("STRIX_THREADS", value, 1);
    }
    ~ScopedThreads()
    {
        if (had_)
            setenv("STRIX_THREADS", saved_.c_str(), 1);
        else
            unsetenv("STRIX_THREADS");
    }

  private:
    std::string saved_;
    bool had_ = false;
};

/**
 * Every malformed PBS input panics, so only a failed allocation makes
 * a PBS throw. While nonzero, the next allocation of exactly this many
 * bytes, on any thread, throws std::bad_alloc and disarms it.
 */
std::atomic<size_t> g_fail_alloc_bytes{0};

void *
allocate(size_t bytes)
{
    size_t armed = bytes;
    if (g_fail_alloc_bytes.load(std::memory_order_relaxed) == bytes &&
        g_fail_alloc_bytes.compare_exchange_strong(armed, 0))
        throw std::bad_alloc();
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every non-aligned form is replaced, so each block is released by the
// allocator that made it (the sanitizer legs check that pairing).
void *operator new(size_t bytes) { return allocate(bytes); }
void *operator new[](size_t bytes) { return allocate(bytes); }
void *operator new(size_t bytes, const std::nothrow_t &) noexcept
{
    return std::malloc(bytes == 0 ? 1 : bytes);
}
void *operator new[](size_t bytes, const std::nothrow_t &) noexcept
{
    return std::malloc(bytes == 0 ? 1 : bytes);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

TEST(WaitableClock, ManualClockLatchesSignals)
{
    ManualWaitableClock clock;
    EXPECT_EQ(clock.nowMicros(), 0u);
    // A latched signal makes the next wait return immediately even
    // though the deadline is far in the virtual future.
    clock.signal();
    EXPECT_TRUE(clock.waitUntil(kNeverUs));
    // The latch was consumed: an already-elapsed deadline now returns
    // false (deadline path, no signal).
    clock.advance(2000);
    EXPECT_EQ(clock.nowMicros(), 2000u);
    EXPECT_FALSE(clock.waitUntil(1500));
}

TEST(WaitableClock, ManualClockAdvanceWakesDeadlineWaiter)
{
    ManualWaitableClock clock;
    std::atomic<bool> woke{false};
    std::thread waiter([&] {
        clock.waitUntil(500);
        woke = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(woke.load()); // virtual time has not moved
    clock.advance(500);
    waiter.join();
    EXPECT_TRUE(woke.load());
}

TEST(WaitableClock, SteadyClockConsumesLatchedSignal)
{
    SteadyWaitableClock clock;
    clock.signal();
    EXPECT_TRUE(clock.waitUntil(kNeverUs)); // returns without sleeping
    EXPECT_FALSE(clock.waitUntil(0));       // deadline already elapsed
}

class BatchExecutorTest : public ::testing::Test
{
  protected:
    BatchExecutorTest() : keys_(fastParams(), kSeedBatchExecutor) {}

    LweCiphertext encrypt(int64_t v)
    {
        return keys_.client.encryptInt(v % int64_t(kSpace), kSpace);
    }

    TorusPolynomial shiftLut(int64_t delta) const
    {
        return makeIntTestVector(
            keys_.server.params().N, kSpace, [delta](int64_t v) {
                return (v + delta) % int64_t(kSpace);
            });
    }

    TestKeys keys_;
};

TEST_F(BatchExecutorTest, SizeTriggerSweepsAtFullWidth)
{
    BatchExecutor::Options opts;
    opts.target_batch = 4;
    opts.flush_delay_us = kNeverUs; // size trigger only
    BatchExecutor exec(opts);

    TorusPolynomial tv = shiftLut(3);
    std::vector<std::future<LweCiphertext>> futs;
    for (int i = 0; i < 8; ++i)
        futs.push_back(
            exec.submit(keys_.client.evalKeys(), encrypt(i), tv));

    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(keys_.client.decryptInt(futs[size_t(i)].get(), kSpace),
                  (i + 3) % int64_t(kSpace))
            << "request " << i;

    exec.drain();
    BatchExecutor::Stats st = exec.stats();
    EXPECT_EQ(st.submitted, 8u);
    EXPECT_EQ(st.completed, 8u);
    EXPECT_EQ(st.sweeps, 2u); // two full-width sweeps, nothing partial
    EXPECT_EQ(st.swept_lwes, 8u);
    EXPECT_EQ(st.size_flushes, 2u);
    EXPECT_EQ(st.deadline_flushes, 0u);
    EXPECT_DOUBLE_EQ(st.occupancy(opts.target_batch), 1.0);
}

TEST_F(BatchExecutorTest, DeadlineTriggerFiresOnVirtualTimeOnly)
{
    auto clock = std::make_shared<ManualWaitableClock>();
    BatchExecutor::Options opts;
    opts.target_batch = 64; // never reached: deadline must flush
    opts.flush_delay_us = 500;
    BatchExecutor exec(opts, clock);

    TorusPolynomial tv = shiftLut(1);
    std::future<LweCiphertext> fut =
        exec.submit(keys_.client.evalKeys(), encrypt(5), tv);

    // Below both triggers nothing may flush, no matter how much real
    // time passes -- the executor's only clock is the manual one.
    EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout);
    clock->advance(499); // one microsecond short of the deadline
    EXPECT_EQ(fut.wait_for(std::chrono::milliseconds(50)),
              std::future_status::timeout);
    EXPECT_EQ(exec.stats().sweeps, 0u);

    clock->advance(1); // now == submit time + flush_delay_us
    EXPECT_EQ(keys_.client.decryptInt(fut.get(), kSpace), 6);

    exec.drain();
    BatchExecutor::Stats st = exec.stats();
    EXPECT_EQ(st.sweeps, 1u);
    EXPECT_EQ(st.deadline_flushes, 1u);
    EXPECT_EQ(st.size_flushes, 0u);
}

TEST_F(BatchExecutorTest, ResultsBitIdenticalToDirectBatch)
{
    // A second tenant on another ring size: with target_batch 2 and
    // the submissions interleaved, both shards' batches are on the
    // lanes at the same time.
    TestKeys other(midParams(), kSeedBatchExecutor + 3);
    constexpr size_t kCount = 10;
    std::vector<LweCiphertext> cts, cts_b;
    std::vector<TorusPolynomial> tvs, tvs_b;
    std::vector<const TorusPolynomial *> tv_ptrs;
    for (size_t i = 0; i < kCount; ++i) {
        cts.push_back(encrypt(int64_t(i)));
        tvs.push_back(shiftLut(int64_t(i % 3))); // heterogeneous LUTs
        cts_b.push_back(
            other.client.encryptInt(int64_t(i % kSpace), kSpace));
        tvs_b.push_back(makeIntTestVector(
            other.server.params().N, kSpace, [i](int64_t v) {
                return (v + int64_t(i % 4)) % int64_t(kSpace);
            }));
    }
    for (size_t i = 0; i < kCount; ++i)
        tv_ptrs.push_back(&tvs[i]);

    std::vector<LweCiphertext> direct = keys_.server.bootstrapBatch(
        cts.data(), tv_ptrs.data(), kCount);

    BatchExecutor::Options opts;
    opts.target_batch = 2;
    opts.flush_delay_us = kNeverUs;
    BatchExecutor exec(opts);
    std::vector<std::future<LweCiphertext>> futs, futs_b;
    for (size_t i = 0; i < kCount; ++i) {
        futs.push_back(
            exec.submit(keys_.client.evalKeys(), cts[i], tvs[i]));
        futs_b.push_back(
            exec.submit(other.client.evalKeys(), cts_b[i], tvs_b[i]));
    }

    for (size_t i = 0; i < kCount; ++i) {
        const LweCiphertext got = futs[i].get();
        expectSameCiphertext(got, direct[i], i);
        expectSameCiphertext(got, keys_.server.bootstrap(cts[i], tvs[i]),
                             i);
        expectSameCiphertext(futs_b[i].get(),
                             other.server.bootstrap(cts_b[i], tvs_b[i]),
                             kCount + i);
    }
    exec.drain();
    BatchExecutor::Stats st = exec.stats();
    EXPECT_EQ(st.size_flushes, kCount); // 2 tenants x kCount / 2
}

TEST_F(BatchExecutorTest, PerRequestLutBatchMatchesSingleBootstrap)
{
    // The per-request-test-vector bootstrapBatch overload the sweeps
    // run on: each slot gets its own LUT, each out[i] is bit-identical
    // to the single-call path for (cts[i], tvs[i]).
    constexpr size_t kCount = 6;
    std::vector<LweCiphertext> cts;
    std::vector<TorusPolynomial> tvs;
    std::vector<const TorusPolynomial *> tv_ptrs;
    for (size_t i = 0; i < kCount; ++i) {
        cts.push_back(encrypt(int64_t(i)));
        tvs.push_back(shiftLut(int64_t(i)));
    }
    for (size_t i = 0; i < kCount; ++i)
        tv_ptrs.push_back(&tvs[i]);

    ServerContext three(keys_.client.evalKeys(), 3);
    std::vector<LweCiphertext> batch =
        three.bootstrapBatch(cts.data(), tv_ptrs.data(), kCount);
    ASSERT_EQ(batch.size(), kCount);
    for (size_t i = 0; i < kCount; ++i) {
        expectSameCiphertext(batch[i],
                             keys_.server.bootstrap(cts[i], tvs[i]), i);
        EXPECT_EQ(keys_.client.decryptInt(batch[i], kSpace),
                  int64_t((2 * i) % kSpace));
    }
}

TEST_F(BatchExecutorTest, CrossTenantShardsNeverCoBatch)
{
    // A second tenant with a *differently shaped* ring: if requests
    // ever co-batched across shards the sweep would mix N=512 and
    // N=256 test vectors and could not produce correct results.
    TestKeys other(midParams(), kSeedBatchExecutor + 1);

    BatchExecutor::Options opts;
    opts.target_batch = 3;
    opts.flush_delay_us = kNeverUs;
    BatchExecutor exec(opts);

    TorusPolynomial tv_a = shiftLut(1);
    TorusPolynomial tv_b = makeIntTestVector(
        other.server.params().N, kSpace,
        [](int64_t v) { return (v + 2) % int64_t(kSpace); });

    std::vector<std::future<LweCiphertext>> futs_a, futs_b;
    for (int i = 0; i < 6; ++i) { // interleaved submissions
        futs_a.push_back(
            exec.submit(keys_.client.evalKeys(), encrypt(i), tv_a));
        futs_b.push_back(exec.submit(
            other.client.evalKeys(),
            other.client.encryptInt(i % int64_t(kSpace), kSpace), tv_b));
    }

    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(keys_.client.decryptInt(futs_a[size_t(i)].get(),
                                          kSpace),
                  (i + 1) % int64_t(kSpace))
            << "tenant A request " << i;
        EXPECT_EQ(other.client.decryptInt(futs_b[size_t(i)].get(),
                                          kSpace),
                  (i + 2) % int64_t(kSpace))
            << "tenant B request " << i;
    }

    exec.drain();
    BatchExecutor::Stats st = exec.stats();
    EXPECT_EQ(st.completed, 12u);
    EXPECT_GE(st.sweeps, 4u); // 2 tenants x ceil(6/3) -- never merged
}

TEST_F(BatchExecutorTest, LanesStartAtFirstSubmitAndJoinAtShutdown)
{
    const size_t base = threadCount();

    // A ServerContext starts its lanes at its first batch call: a
    // single bootstrap runs on the caller and starts none.
    {
        ServerContext ctx(keys_.client.evalKeys(), 2);
        const LweCiphertext ct = encrypt(1);
        const TorusPolynomial tv = shiftLut(0);
        (void)ctx.bootstrap(ct, tv);
        EXPECT_EQ(threadCount(), base);
        (void)ctx.bootstrapBatch(&ct, 1, tv);
        EXPECT_EQ(threadCount(), base + 2);
    }
    ASSERT_EQ(settledThreadCount(base), base);

    // The executor starts only its dispatcher, its lanes come with the
    // first submit, and shutdown() joins all of them.
    BatchExecutor exec;
    EXPECT_EQ(threadCount(), base + 1);
    std::future<LweCiphertext> fut =
        exec.submit(keys_.client.evalKeys(), encrypt(2), shiftLut(1));
    EXPECT_EQ(threadCount(), base + 1 + ThreadPool::defaultThreadCount());
    EXPECT_EQ(keys_.client.decryptInt(fut.get(), kSpace), 3);
    exec.shutdown();
    EXPECT_EQ(settledThreadCount(base), base);
}

TEST_F(BatchExecutorTest, ShutdownDrainsInFlightFutures)
{
    TorusPolynomial tv = shiftLut(2);
    std::vector<std::future<LweCiphertext>> futs;
    {
        BatchExecutor::Options opts;
        opts.target_batch = 100;        // size trigger unreachable
        opts.flush_delay_us = kNeverUs; // deadline unreachable
        BatchExecutor exec(opts);
        for (int i = 0; i < 5; ++i)
            futs.push_back(
                exec.submit(keys_.client.evalKeys(), encrypt(i), tv));
        exec.shutdown();
        BatchExecutor::Stats st = exec.stats();
        EXPECT_EQ(st.completed, 5u);
        EXPECT_EQ(st.drain_flushes, 1u);
        // Destructor runs here: a second (idempotent) shutdown.
    }
    for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(futs[size_t(i)].wait_for(std::chrono::seconds(0)),
                  std::future_status::ready)
            << "future " << i << " dropped by shutdown";
        EXPECT_EQ(keys_.client.decryptInt(futs[size_t(i)].get(), kSpace),
                  (i + 2) % int64_t(kSpace));
    }
}

TEST_F(BatchExecutorTest, SubmitAfterShutdownPanics)
{
    BatchExecutor exec;
    exec.shutdown();
    TorusPolynomial tv = shiftLut(0);
    EXPECT_DEATH(exec.submit(keys_.client.evalKeys(), encrypt(1), tv),
                 "after shutdown");
}

TEST_F(BatchExecutorTest, DrainOnIdleExecutorReturnsImmediately)
{
    BatchExecutor exec;
    exec.drain(); // nothing in flight: must not hang
    EXPECT_EQ(exec.stats().submitted, 0u);
}

/**
 * The TSan stress: several client threads with mixed tenants hammer
 * one executor, then everything is drained and decrypted. This is the
 * shape the dispatcher's locking exists for.
 */
TEST_F(BatchExecutorTest, ConcurrentMixedTenantSubmitStress)
{
    TestKeys other(midParams(), kSeedBatchExecutor + 2);

    BatchExecutor::Options opts;
    opts.target_batch = 4;
    opts.flush_delay_us = 300; // real clock: let both triggers fire
    BatchExecutor exec(opts);

    TorusPolynomial tv_a = shiftLut(1);
    TorusPolynomial tv_b = makeIntTestVector(
        other.server.params().N, kSpace,
        [](int64_t v) { return (v + 2) % int64_t(kSpace); });

    constexpr int kThreads = 4;
    constexpr int kPerThread = 6;
    std::vector<std::future<LweCiphertext>> futs(
        size_t(kThreads) * kPerThread);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const size_t idx = size_t(t) * kPerThread + size_t(i);
                const bool tenant_a = idx % 2 == 0;
                TestKeys &k = tenant_a ? keys_ : other;
                futs[idx] = exec.submit(
                    k.client.evalKeys(),
                    k.client.encryptInt(int64_t(idx % kSpace), kSpace),
                    tenant_a ? tv_a : tv_b);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (size_t idx = 0; idx < futs.size(); ++idx) {
        const bool tenant_a = idx % 2 == 0;
        TestKeys &k = tenant_a ? keys_ : other;
        const int64_t shift = tenant_a ? 1 : 2;
        EXPECT_EQ(k.client.decryptInt(futs[idx].get(), kSpace),
                  int64_t((idx % kSpace + uint64_t(shift)) % kSpace))
            << "request " << idx;
    }

    exec.drain();
    BatchExecutor::Stats st = exec.stats();
    EXPECT_EQ(st.submitted, uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.swept_lwes, st.submitted);
}

/**
 * The shard-lifetime stress: client threads submit for two tenants,
 * spaced so that shards empty, are erased and are created again under
 * requests that are queued or running on lanes. A bundle freed under a
 * running PBS is a use-after-free TSan (and ASan) report; a lost
 * request is a future that never decodes; a shard or a lane job left
 * holding a bundle shows in its use_count() once every reply is in.
 */
TEST_F(BatchExecutorTest, ShardLifetimeRacingSubmitsStress)
{
    TestKeys other(midParams(), kSeedBatchExecutor + 4);
    const std::shared_ptr<const EvalKeys> keys_a = keys_.client.evalKeys();
    const std::shared_ptr<const EvalKeys> keys_b = other.client.evalKeys();
    const long uses_a = keys_a.use_count();
    const long uses_b = keys_b.use_count();

    BatchExecutor::Options opts;
    opts.target_batch = 2;
    opts.flush_delay_us = 100;
    BatchExecutor exec(opts);

    TorusPolynomial tv_a = shiftLut(3);
    TorusPolynomial tv_b = makeIntTestVector(
        other.server.params().N, kSpace,
        [](int64_t v) { return (v + 5) % int64_t(kSpace); });

    constexpr int kThreads = 4;
    constexpr int kPerThread = 5;
    std::vector<std::future<LweCiphertext>> futs(
        size_t(kThreads) * kPerThread);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const size_t idx = size_t(t) * kPerThread + size_t(i);
                const bool tenant_a = idx % 2 == 0;
                TestKeys &k = tenant_a ? keys_ : other;
                futs[idx] = exec.submit(
                    tenant_a ? keys_a : keys_b,
                    k.client.encryptInt(int64_t(idx % kSpace), kSpace),
                    tenant_a ? tv_a : tv_b);
                // Spread the submissions so shards empty between them.
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (size_t idx = 0; idx < futs.size(); ++idx) {
        const bool tenant_a = idx % 2 == 0;
        TestKeys &k = tenant_a ? keys_ : other;
        const int64_t shift = tenant_a ? 3 : 5;
        EXPECT_EQ(k.client.decryptInt(futs[idx].get(), kSpace),
                  int64_t((idx % kSpace + uint64_t(shift)) % kSpace))
            << "request " << idx;
    }
    // Every reply is in, so nothing is queued or on a lane: the
    // executor holds neither bundle.
    EXPECT_EQ(keys_a.use_count(), uses_a);
    EXPECT_EQ(keys_b.use_count(), uses_b);

    exec.drain();
    BatchExecutor::Stats st = exec.stats();
    EXPECT_EQ(st.submitted, uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(st.completed, st.submitted);
    EXPECT_EQ(st.swept_lwes, st.submitted);
}

/**
 * The executor lets a bundle go before its request's future is ready,
 * on success and on failure alike, so a daemon can evict a tenant the
 * moment its last reply is out.
 */
TEST_F(BatchExecutorTest, BundleReleasedWhenFutureReady)
{
    const std::shared_ptr<const EvalKeys> keys = keys_.client.evalKeys();
    const long uses = keys.use_count();
    BatchExecutor::Options opts;
    opts.flush_delay_us = 0;
    BatchExecutor exec(opts);
    const TorusPolynomial tv = shiftLut(1);

    std::future<LweCiphertext> ok = exec.submit(keys, encrypt(2), tv);
    EXPECT_EQ(keys_.client.decryptInt(ok.get(), kSpace), 3);
    EXPECT_EQ(keys.use_count(), uses);

    // Fail the PBS in sample extraction: its output is the one
    // allocation of the extracted dimension.
    const size_t extracted_bytes =
        (size_t(keys->params().extractedDim()) + 1) * sizeof(Torus32);
    g_fail_alloc_bytes = extracted_bytes;
    std::future<LweCiphertext> failed = exec.submit(keys, encrypt(4), tv);
    EXPECT_THROW(failed.get(), std::bad_alloc);
    EXPECT_EQ(g_fail_alloc_bytes.exchange(0), 0u) << "the PBS did not fail";
    EXPECT_EQ(keys.use_count(), uses);

    // The lane that failed serves the next request as usual.
    ok = exec.submit(keys, encrypt(5), tv);
    EXPECT_EQ(keys_.client.decryptInt(ok.get(), kSpace), 6);
    EXPECT_EQ(keys.use_count(), uses);
}

/**
 * Every future the executor makes ready signals its completion pipe,
 * on success and on failure alike, so an event loop wakes for it.
 */
TEST_F(BatchExecutorTest, CompletionPipeSignalledWhenFutureReady)
{
    const std::shared_ptr<const EvalKeys> keys = keys_.client.evalKeys();
    BatchExecutor::Options opts;
    opts.flush_delay_us = 0;
    BatchExecutor exec(opts);
    const TorusPolynomial tv = shiftLut(1);
    EXPECT_FALSE(readable(exec.completionFd()));

    // The signal follows the future's result: wait for it, briefly.
    std::future<LweCiphertext> ok = exec.submit(keys, encrypt(2), tv);
    EXPECT_EQ(keys_.client.decryptInt(ok.get(), kSpace), 3);
    EXPECT_TRUE(readable(exec.completionFd(), 10000));
    exec.drainCompletions();
    EXPECT_FALSE(readable(exec.completionFd()));

    // The one-shot failure of BundleReleasedWhenFutureReady.
    g_fail_alloc_bytes =
        (size_t(keys->params().extractedDim()) + 1) * sizeof(Torus32);
    std::future<LweCiphertext> failed = exec.submit(keys, encrypt(4), tv);
    EXPECT_THROW(failed.get(), std::bad_alloc);
    EXPECT_EQ(g_fail_alloc_bytes.exchange(0), 0u) << "the PBS did not fail";
    EXPECT_TRUE(readable(exec.completionFd(), 10000));
    exec.drainCompletions();
    EXPECT_FALSE(readable(exec.completionFd()));
}

/**
 * An owner that fails in its keyswitch step keeps the extracted LWEs
 * alive until its partner has switched its block of them; the ASan
 * leg reports a use-after-free otherwise. The partner joins at the
 * first step and, at the keyswitch boundary, arms a one-shot failure
 * of the next allocation of an output LWE: the owner's out[0], made
 * while the partner runs its block.
 */
TEST_F(BatchExecutorTest, OwnerFailingInPairedKeySwitchWaitsForPartner)
{
    class FailOwnerAtKeySwitch : public PartnerLanes
    {
      public:
        FailOwnerAtKeySwitch(uint64_t keyswitch, size_t bytes)
            : keyswitch_(keyswitch), bytes_(bytes)
        {
        }
        ~FailOwnerAtKeySwitch() override { join(); }

        bool offer(uint64_t, const PartnerJob &job) override
        {
            if (partner_.joinable() || !job.ask())
                return false;
            partner_ = std::thread([job] { job.run(); });
            return true;
        }

        bool recall(uint64_t step) override
        {
            if (step == keyswitch_) {
                g_fail_alloc_bytes = bytes_;
                armed_ = true;
            }
            return false;
        }

        void join()
        {
            if (partner_.joinable())
                partner_.join();
        }

        bool armed() const { return armed_; }

      private:
        const uint64_t keyswitch_;
        const size_t bytes_;
        std::atomic<bool> armed_{false};
        std::thread partner_;
    };

    const EvalKeys &keys = *keys_.client.evalKeys();
    const LweCiphertext ct = encrypt(3);
    const TorusPolynomial tv = shiftLut(2);
    const TorusPolynomial *const tvs[] = {&tv};
    // A width-1 epoch: n CMux steps, the extraction, the keyswitch.
    const uint64_t keyswitch = uint64_t(keys.params().n) + 2;
    FailOwnerAtKeySwitch lanes(
        keyswitch, (size_t(keys.ksk().outDim()) + 1) * sizeof(Torus32));
    LweCiphertext out;
    PbsScratch scratch;
    EXPECT_THROW(
        bootstrapKeySwitch(keys, &ct, tvs, 1, &out, scratch, &lanes),
        std::bad_alloc);
    lanes.join();
    EXPECT_TRUE(lanes.armed()) << "the partner left before the keyswitch";
    EXPECT_EQ(g_fail_alloc_bytes.exchange(0), 0u) << "the owner did not fail";

    // The scratch serves the next epoch as usual.
    bootstrapKeySwitch(keys, &ct, tvs, 1, &out, scratch);
    EXPECT_EQ(keys_.client.decryptInt(out, kSpace), 5);
}

/**
 * A request queued while both lanes of a 2-lane executor run one PBS
 * as a pair takes the partner's lane within one step: it finishes
 * long before the paired PBS, which takes ~20x as many CMux steps. If
 * the partner kept its lane, the request would wait for the whole
 * paired PBS and finish after it.
 */
TEST_F(BatchExecutorTest, QueuedRequestTakesAPartneredLane)
{
    TestKeys slow(testParams(1000, 512, 1, 3, 8, 0.0), kSeedBatchExecutor + 1);
    const TorusPolynomial slow_tv = makeIntTestVector(
        slow.server.params().N, kSpace,
        [](int64_t v) { return (v + 1) % int64_t(kSpace); });
    ScopedThreads two("2");
    BatchExecutor::Options opts;
    opts.flush_delay_us = 0;
    BatchExecutor exec(opts);

    std::future<LweCiphertext> paired = exec.submit(
        slow.client.evalKeys(), slow.client.encryptInt(3, kSpace), slow_tv);
    // Long enough for the idle lane to join, well inside the PBS. On
    // a loaded host the lane may not join in time; the request then
    // finds it idle and the test checks nothing stronger.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::future<LweCiphertext> queued =
        exec.submit(keys_.client.evalKeys(), encrypt(5), shiftLut(2));
    EXPECT_EQ(keys_.client.decryptInt(queued.get(), kSpace), 7);
    EXPECT_NE(paired.wait_for(std::chrono::seconds(0)),
              std::future_status::ready)
        << "the queued request waited for the paired PBS";
    EXPECT_EQ(slow.client.decryptInt(paired.get(), kSpace), 4);
}

/**
 * Lane pairs under a competing job stream, for the TSan leg: epochs
 * of widths 1-3 on a 3-lane pool take idle lanes as partners, while a
 * stream of short posted jobs recalls them, and every output equals
 * the solo one.
 */
TEST_F(BatchExecutorTest, LanePairsUnderCompetingJobsStress)
{
    constexpr size_t kEpochs = 12;
    const EvalKeys &keys = *keys_.client.evalKeys();
    std::vector<LweCiphertext> cts;
    std::vector<TorusPolynomial> luts;
    for (size_t i = 0; i < 3; ++i) {
        cts.push_back(encrypt(int64_t(i)));
        luts.push_back(shiftLut(int64_t(i)));
    }
    const std::vector<const TorusPolynomial *> tvs = {&luts[0], &luts[1],
                                                      &luts[2]};
    std::vector<LweCiphertext> solo(3);
    PbsScratch solo_scratch;
    bootstrapKeySwitch(keys, cts.data(), tvs.data(), 3, solo.data(),
                       solo_scratch);

    ThreadPool pool(3);
    PartnerLanes lanes(pool);
    std::vector<std::vector<LweCiphertext>> got(kEpochs);
    std::vector<PbsScratch> scratch(pool.lanes());
    std::atomic<size_t> done{0};
    std::atomic<uint64_t> competing{0};
    for (size_t e = 0; e < kEpochs; ++e) {
        const size_t width = e % 3 + 1;
        got[e].resize(width);
        pool.post([&, e, width](unsigned lane) {
            bootstrapKeySwitch(keys, cts.data(), tvs.data(), width,
                               got[e].data(), scratch[lane], &lanes);
            done.fetch_add(1);
        });
        for (int j = 0; j < 4; ++j) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            pool.post([&](unsigned) { competing.fetch_add(1); });
        }
    }
    while (done.load() < kEpochs)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (size_t e = 0; e < kEpochs; ++e)
        for (size_t i = 0; i < got[e].size(); ++i)
            EXPECT_EQ(got[e][i].raw(), solo[i].raw())
                << "epoch " << e << " ciphertext " << i;
}
