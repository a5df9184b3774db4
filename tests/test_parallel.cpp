/**
 * @file
 * Thread-parallel PBS: the ThreadPool primitive (posted jobs and
 * parallelFor), the WakePipe under a racing drain, the lock-free FFT
 * plan caches under concurrent first touch, and the batched bootstrap
 * path -- including the N-threads-x-M-bootstraps stress test that
 * asserts bit-exact agreement with the single-threaded path on one
 * shared context.
 * Labeled `slow`; this suite is what the TSan CI job exists to watch.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <poll.h>

#include "common/parallel.h"
#include "common/wake_pipe.h"
#include "poly/complex_fft.h"
#include "poly/negacyclic_fft.h"
#include "support/test_util.h"
#include "tfhe/server_context.h"

using namespace strix;
using namespace strix::test;

namespace {

/** Bit-exact LWE ciphertext comparison (mask scalars and body). */
void
expectSameCiphertext(const LweCiphertext &a, const LweCiphertext &b,
                     size_t index)
{
    EXPECT_EQ(a.raw(), b.raw()) << "ciphertext " << index
                                << " differs from sequential path";
}

} // namespace

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.lanes(), 4u);
    constexpr size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    std::atomic<bool> worker_in_range{true};
    pool.parallelFor(kCount, [&](size_t i, unsigned worker) {
        if (worker > pool.lanes()) // caller 0, lane L is worker L + 1
            worker_in_range = false;
        hits[i].fetch_add(1);
    });
    EXPECT_TRUE(worker_in_range.load());
    for (size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.lanes(), 1u);
    std::vector<size_t> order;
    pool.parallelFor(8, [&](size_t i, unsigned worker) {
        EXPECT_EQ(worker, 0u);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, CountSmallerThanPool)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(3, [&](size_t i, unsigned) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ZeroCountIsANoop)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [&](size_t, unsigned) { FAIL(); });
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i, unsigned) {
                                      if (i == 17)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> ran{0};
    pool.parallelFor(10, [&](size_t, unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

/**
 * Regression for the serial-fallback error contract: a 1-thread pool
 * (and count == 1 on any pool) used to bypass the abort_/first_error_
 * machinery and let exceptions fly out mid-loop. The contract must be
 * identical inline and across N workers: same exception type and
 * message on the caller, remaining indices never attempted after the
 * throw, pool fully usable afterwards with no stale deferred error.
 */
TEST(ThreadPool, ErrorContractIdenticalInlineAndParallel)
{
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        std::atomic<int> attempts{0};
        bool caught = false;
        try {
            pool.parallelFor(16, [&](size_t i, unsigned) {
                attempts.fetch_add(1);
                if (i == 3)
                    throw std::runtime_error("contract");
            });
        } catch (const std::runtime_error &e) {
            caught = true;
            EXPECT_STREQ(e.what(), "contract");
        }
        EXPECT_TRUE(caught);
        if (threads == 1) {
            // Inline order is deterministic: indices 0..3 ran, the
            // abort flag stopped everything after the throw.
            EXPECT_EQ(attempts.load(), 4);
        } else {
            EXPECT_LE(attempts.load(), 16);
        }
        // The next loop must run clean: every index covered, and no
        // stale first_error_ rethrown from the previous job.
        std::atomic<int> ran{0};
        pool.parallelFor(8, [&](size_t, unsigned) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 8);
    }
}

TEST(ThreadPool, CountOneOnParallelPoolUsesErrorContract)
{
    // count == 1 takes the inline path even on a multi-lane pool.
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(
                     1, [](size_t, unsigned) {
                         throw std::logic_error("single");
                     }),
                 std::logic_error);
    std::atomic<int> ran{0};
    pool.parallelFor(1, [&](size_t, unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, PostRunsEveryJobOnce)
{
    // One lane runs jobs in the order they were posted. The first job
    // holds the lane for 20 ms, long enough for the destructor to
    // begin with the rest still queued: it must run them all.
    std::vector<int> order;
    std::promise<void> gate;
    std::thread opener;
    {
        std::shared_future<void> open = gate.get_future().share();
        ThreadPool pool(1);
        pool.post([open](unsigned) { open.wait(); });
        for (int i = 0; i < 8; ++i)
            pool.post([&order, i](unsigned lane) {
                EXPECT_EQ(lane, 0u);
                order.push_back(i);
            });
        opener = std::thread([&gate] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            gate.set_value();
        });
    }
    opener.join();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));

    // Four lanes run every job exactly once, each on a lane in range.
    constexpr int kJobs = 200;
    std::vector<std::atomic<int>> runs(kJobs);
    std::atomic<bool> lane_in_range{true};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.lanes(), 4u);
        for (int i = 0; i < kJobs; ++i)
            pool.post([&, i](unsigned lane) {
                if (lane >= 4)
                    lane_in_range = false;
                runs[size_t(i)].fetch_add(1);
            });
    }
    EXPECT_TRUE(lane_in_range.load());
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(runs[size_t(i)].load(), 1) << "job " << i;
}

TEST(ThreadPool, ParallelForInsideJobsCompletes)
{
    // Every lane runs a job that calls parallelFor while all lanes are
    // taken, so no helper can start until some caller has finished
    // alone; none of them may wait for one.
    constexpr unsigned kLanes = 4;
    std::atomic<unsigned> started{0};
    std::vector<std::promise<unsigned>> done(kLanes);
    ThreadPool pool(kLanes); // declared last: its jobs end first
    for (unsigned j = 0; j < kLanes; ++j)
        pool.post([&, j](unsigned lane) {
            started.fetch_add(1);
            while (started.load() < kLanes)
                std::this_thread::yield();
            std::atomic<int> hits{0};
            pool.parallelFor(64, [&](size_t, unsigned) { hits.fetch_add(1); });
            EXPECT_EQ(hits.load(), 64);
            done[j].set_value(lane);
        });
    std::set<unsigned> seen;
    for (auto &d : done)
        seen.insert(d.get_future().get());
    EXPECT_EQ(seen.size(), size_t(kLanes)) << "each lane ran one job";
}

TEST(ThreadPool, AtMostLanesWorkersAtOnce)
{
    for (unsigned lanes : {1u, 3u}) {
        SCOPED_TRACE(lanes);
        ThreadPool pool(lanes);
        std::atomic<unsigned> running{0}, peak{0};
        pool.parallelFor(48, [&](size_t, unsigned) {
            const unsigned now = running.fetch_add(1) + 1;
            unsigned seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            running.fetch_sub(1);
        });
        EXPECT_GE(peak.load(), 1u);
        EXPECT_LE(peak.load(), pool.lanes());
    }
}

/**
 * postIfIdle: an offer runs only on a lane that is waiting for work,
 * never waits behind a posted job, and is not counted by queued().
 */
TEST(ThreadPool, PostIfIdleTakesOnlyAnIdleLane)
{
    ThreadPool pool(2);
    std::promise<void> ran;
    // Lanes reach their wait shortly after construction.
    bool posted = false;
    for (int i = 0; i < 2000 && !posted; ++i) {
        posted = pool.postIfIdle([&](unsigned) { ran.set_value(); });
        if (!posted)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(posted);
    ran.get_future().get();

    // Both lanes busy, then a posted job queued behind them: no offer.
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    std::atomic<int> started{0};
    for (int i = 0; i < 3; ++i)
        pool.post([&, gate](unsigned) {
            started.fetch_add(1);
            gate.wait();
        });
    while (started.load() < 2)
        std::this_thread::yield();
    EXPECT_EQ(pool.queued(), 1u);
    EXPECT_FALSE(pool.postIfIdle([](unsigned) { FAIL(); }));
    EXPECT_EQ(pool.queued(), 1u) << "a refused offer is not queued";
    release.set_value();
}

/**
 * A pool runs at most lanes() threads of pool work, a parallelFor
 * caller included: the caller of a 1-lane pool leaves no lane to
 * offer, and with 2 lanes exactly one offer fits beside it.
 */
TEST(ThreadPool, OffersCountTheParallelForCaller)
{
    for (unsigned lanes : {1u, 2u}) {
        SCOPED_TRACE(lanes);
        ThreadPool pool(lanes);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        std::promise<void> release;
        std::shared_future<void> gate = release.get_future().share();
        std::atomic<int> offers_run{0};
        bool first = false, second = false;
        pool.parallelFor(1, [&](size_t, unsigned) {
            // The first offer holds its lane until the second is tried.
            first = pool.postIfIdle([&, gate](unsigned) {
                gate.wait();
                offers_run++;
            });
            second = pool.postIfIdle([&](unsigned) { offers_run++; });
        });
        release.set_value();
        EXPECT_EQ(first, lanes == 2);
        EXPECT_FALSE(second) << "the one idle lane is reserved already";
        while (offers_run.load() < (first ? 1 : 0) + (second ? 1 : 0))
            std::this_thread::yield();
    }
}

/**
 * A signal that races a drain is never lost: once both are done, the
 * next signal makes the pipe readable. Each round the signal is
 * delayed by a different amount, so across the rounds it lands before,
 * inside and after the drainer's drain. A "signal pending" flag that
 * skipped the write lost about 1% of these rounds on 4 cores: a signal
 * landing between the drain's flag reset and its reads left the flag
 * set over an empty pipe.
 */
TEST(WakePipe, SignalRacingADrainIsNeverLost)
{
    constexpr int kRounds = 20000;
    WakePipe pipe;
    std::atomic<int> round{0};   //!< the round the signaller is in
    std::atomic<int> drained{0}; //!< the last round the drainer drained
    std::thread drainer([&] {
        for (int r = 1; r <= kRounds; ++r) {
            while (round.load() < r)
                std::this_thread::yield();
            pipe.drain();
            drained.store(r);
        }
    });
    int lost = 0;
    for (int r = 1; r <= kRounds; ++r) {
        round.store(r);
        for (volatile int i = 0; i < (r * 7919) % 4000; ++i) {
        }
        pipe.signal();
        while (drained.load() < r)
            std::this_thread::yield();
        pipe.signal();
        struct pollfd p = {pipe.fd(), POLLIN, 0};
        if (::poll(&p, 1, 0) != 1)
            ++lost;
        pipe.drain();
    }
    drainer.join();
    EXPECT_EQ(lost, 0);
}

/**
 * STRIX_THREADS parsing fixture: snapshots and restores the variable
 * around each case so the suite leaves the environment untouched.
 */
class StrixThreadsEnv : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (const char *old = std::getenv("STRIX_THREADS")) {
            saved_ = old;
            had_value_ = true;
        }
        unsetenv("STRIX_THREADS");
        fallback_ = ThreadPool::defaultThreadCount();
    }

    void TearDown() override
    {
        if (had_value_)
            setenv("STRIX_THREADS", saved_.c_str(), 1);
        else
            unsetenv("STRIX_THREADS");
    }

    std::string saved_;
    bool had_value_ = false;
    unsigned fallback_ = 0; //!< hardware default with the var unset
};

TEST_F(StrixThreadsEnv, PositiveOverrideIsHonored)
{
    setenv("STRIX_THREADS", "7", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 7u);
}

TEST_F(StrixThreadsEnv, NegativeValueFallsBackToDefault)
{
    // strtoul happily parses "-1" as ULONG_MAX; before the sign check
    // that was rejected only by luck of the [1, 4096] range test.
    setenv("STRIX_THREADS", "-1", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
}

TEST_F(StrixThreadsEnv, WrappingNegativeValueFallsBackToDefault)
{
    // The regression this satellite fixes: -(2^64 - 4096) wraps under
    // strtoul's modular parse to exactly 4096 -- inside the accepted
    // range -- so the old code silently spun up 4096 workers.
    setenv("STRIX_THREADS", "-18446744073709547520", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
}

TEST_F(StrixThreadsEnv, WhitespacePrefixedNegativeIsRejected)
{
    setenv("STRIX_THREADS", "  -3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
}

TEST_F(StrixThreadsEnv, GarbageAndOutOfRangeFallBackToDefault)
{
    setenv("STRIX_THREADS", "not-a-number", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
    setenv("STRIX_THREADS", "0", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
    setenv("STRIX_THREADS", "5000", 1); // above the 4096 cap
    EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback_);
}

/**
 * Many threads race to build the same (previously untouched) plan
 * sizes. Before the caches were synchronized this corrupted the
 * std::map; now every thread must get the same published instance.
 * Uses sizes no other suite requests so the first touch really is
 * concurrent.
 */
TEST(FftPlanCache, ConcurrentFirstTouchPublishesOneInstance)
{
    constexpr size_t kPlanSize = size_t{1} << 14;
    constexpr size_t kRingDim = size_t{1} << 13;
    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<const FftPlan *> plans(kThreads, nullptr);
    std::vector<const NegacyclicFft *> engines(kThreads, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            } // start barrier: maximize first-touch overlap
            plans[t] = &FftPlan::get(kPlanSize);
            engines[t] = &NegacyclicFft::get(kRingDim);
        });
    }
    for (auto &t : threads)
        t.join();
    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(plans[t], plans[0]);
        EXPECT_EQ(engines[t], engines[0]);
    }
    EXPECT_EQ(plans[0]->size(), kPlanSize);
    EXPECT_EQ(engines[0]->ringDim(), kRingDim);
}

TEST(FftPlanCache, PrewarmPublishesPlan)
{
    NegacyclicFft::prewarm(size_t{1} << 12);
    EXPECT_EQ(NegacyclicFft::get(size_t{1} << 12).ringDim(),
              size_t{1} << 12);
    FftPlan::prewarm(size_t{1} << 15);
    EXPECT_EQ(FftPlan::get(size_t{1} << 15).size(), size_t{1} << 15);
}

class BatchPbs : public ::testing::Test
{
  protected:
    BatchPbs() : keys_(fastParams(), kSeedParallel) {}

    static constexpr uint64_t kSpace = 8;

    std::vector<LweCiphertext> encryptRange(size_t count)
    {
        std::vector<LweCiphertext> cts;
        for (size_t i = 0; i < count; ++i)
            cts.push_back(
                keys_.client.encryptInt(int64_t(i % kSpace), kSpace));
        return cts;
    }

    TestKeys keys_;
    const ClientKeyset &client() { return keys_.client; }
    ServerContext &server() { return keys_.server; }
};

TEST_F(BatchPbs, BatchMatchesSequentialBitExact)
{
    auto cts = encryptRange(12);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace,
        [](int64_t v) { return (v + 3) % int64_t(kSpace); });

    std::vector<LweCiphertext> seq;
    for (const auto &ct : cts)
        seq.push_back(server().bootstrap(ct, tv));

    ServerContext four(client().evalKeys(), 4);
    std::vector<LweCiphertext> batch = four.bootstrapBatch(cts, tv);

    ASSERT_EQ(batch.size(), seq.size());
    for (size_t i = 0; i < batch.size(); ++i) {
        expectSameCiphertext(batch[i], seq[i], i);
        EXPECT_EQ(client().decryptInt(batch[i], kSpace),
                  int64_t((i % kSpace + 3) % kSpace));
    }
}

TEST_F(BatchPbs, ApplyLutBatchMatchesApplyLut)
{
    auto cts = encryptRange(6);
    auto square = [](int64_t v) { return (v * v) % int64_t(kSpace); };

    ServerContext three(client().evalKeys(), 3);
    std::vector<LweCiphertext> batch =
        three.applyLutBatch(cts, kSpace, square);

    ASSERT_EQ(batch.size(), cts.size());
    for (size_t i = 0; i < cts.size(); ++i)
        expectSameCiphertext(
            batch[i], server().applyLut(cts[i], kSpace, square), i);
}

TEST_F(BatchPbs, DeterministicAcrossThreadCounts)
{
    auto cts = encryptRange(9);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace, [](int64_t v) { return v; });

    std::vector<LweCiphertext> one =
        ServerContext(client().evalKeys(), 1).bootstrapBatch(cts, tv);
    std::vector<LweCiphertext> four =
        ServerContext(client().evalKeys(), 4).bootstrapBatch(cts, tv);

    ASSERT_EQ(one.size(), four.size());
    for (size_t i = 0; i < one.size(); ++i)
        expectSameCiphertext(four[i], one[i], i);
}

/**
 * Key-stationary epochs at their boundaries. bootstrapBatch splits a
 * batch into sub-batches of B = ceil(width / min(width, lanes)), so
 * these widths give B = 1, full and short last sub-batches, and widths
 * past the lane count at every thread count. Each ciphertext has its
 * own LUT, so a sub-batch that paired an accumulator with the wrong
 * ciphertext or LUT shows up, as does any change of order inside an
 * epoch.
 */
TEST_F(BatchPbs, EpochWidthsMatchPerCiphertext)
{
    const size_t kWidths[] = {1, 2, 3, 4, 5, 7, 8, 16, 17};
    const size_t kMaxWidth = 17;
    auto cts = encryptRange(kMaxWidth);
    std::vector<TorusPolynomial> luts;
    for (size_t i = 0; i < kMaxWidth; ++i)
        luts.push_back(makeIntTestVector(
            server().params().N, kSpace, [i](int64_t v) {
                return (v * int64_t(i % 3 + 1) + int64_t(i)) %
                       int64_t(kSpace);
            }));
    std::vector<const TorusPolynomial *> tvs;
    std::vector<LweCiphertext> want;
    for (size_t i = 0; i < kMaxWidth; ++i) {
        tvs.push_back(&luts[i]);
        want.push_back(server().bootstrap(cts[i], luts[i]));
    }
    for (unsigned threads : {1u, 2u, 3u, 4u}) {
        ServerContext ctx(client().evalKeys(), threads);
        for (size_t width : kWidths) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " width=" + std::to_string(width));
            std::vector<LweCiphertext> got =
                ctx.bootstrapBatch(cts.data(), tvs.data(), width);
            ASSERT_EQ(got.size(), width);
            for (size_t i = 0; i < width; ++i)
                expectSameCiphertext(got[i], want[i], i);
        }
    }
    for (size_t i = 0; i < kMaxWidth; ++i)
        EXPECT_EQ(client().decryptInt(want[i], kSpace),
                  int64_t((i % kSpace) * (i % 3 + 1) + i) %
                      int64_t(kSpace))
            << "ciphertext " << i;
}

namespace {

/**
 * A partner source for the lane-pair seam: partner k joins at the
 * first owner step boundary at or after joins[k] and gives its lane
 * back at its first boundary at or after leaves[k]. offer() asks on
 * the owner's thread before the partner's thread starts, so the owner
 * admits the partner at that very boundary.
 */
class ScriptedLanes : public PartnerLanes
{
  public:
    ScriptedLanes(std::vector<uint64_t> joins, std::vector<uint64_t> leaves)
        : joins_(std::move(joins)), leaves_(std::move(leaves))
    {
    }

    ~ScriptedLanes() override { joinThreads(); }

    bool offer(uint64_t step, const PartnerJob &job) override
    {
        if (next_ >= joins_.size() || step < joins_[next_])
            return false;
        leave_at_.store(leaves_[next_++]);
        if (!job.ask())
            return false;
        threads_.emplace_back([job] { job.run(); });
        return true;
    }

    bool recall(uint64_t step) override
    {
        partner_boundaries_.fetch_add(1);
        return step >= leave_at_.load();
    }

    /** Join every partner thread (each returns as its epoch ends). */
    void joinThreads()
    {
        for (std::thread &t : threads_)
            t.join();
        threads_.clear();
    }

    size_t partners() const { return next_; }
    uint64_t partnerBoundaries() const { return partner_boundaries_.load(); }

  private:
    const std::vector<uint64_t> joins_, leaves_;
    size_t next_ = 0; //!< the owner thread's alone
    std::atomic<uint64_t> leave_at_{0};
    std::atomic<uint64_t> partner_boundaries_{0};
    std::vector<std::thread> threads_;
};

} // namespace

/**
 * The lane-pair seam: partners attach and detach at chosen steps of
 * epochs of widths 1, 2, 3, 5 and 17 -- from the first CMux, across
 * the middle, at the last CMux, the extraction, the keyswitch, and
 * several times in one epoch -- and every output is == the solo one.
 * Epoch steps are 1 + i * width + b for CMux (i, b), then the
 * extraction at 1 + n * width and the keyswitch one after it. Run on
 * the forced-scalar table too (the CI filter matches BatchPbs).
 */
TEST_F(BatchPbs, PartnerJoinsAndLeavesAtChosenStepsMatchesSolo)
{
    constexpr uint64_t kNever = UINT64_MAX;
    const size_t kMaxWidth = 17;
    auto cts = encryptRange(kMaxWidth);
    std::vector<TorusPolynomial> luts;
    std::vector<const TorusPolynomial *> tvs;
    for (size_t i = 0; i < kMaxWidth; ++i)
        luts.push_back(makeIntTestVector(
            server().params().N, kSpace, [i](int64_t v) {
                return (v + int64_t(i)) % int64_t(kSpace);
            }));
    for (const TorusPolynomial &tv : luts)
        tvs.push_back(&tv);
    const EvalKeys &keys = *client().evalKeys();
    const uint64_t n = server().params().n;

    for (size_t width : {1, 2, 3, 5, 17}) {
        std::vector<LweCiphertext> solo(width);
        PbsScratch solo_scratch;
        bootstrapKeySwitch(keys, cts.data(), tvs.data(), width, solo.data(),
                           solo_scratch);
        const uint64_t extract = 1 + n * width;
        const std::vector<std::pair<std::vector<uint64_t>,
                                    std::vector<uint64_t>>>
            scripts = {
                {{1}, {kNever}},                       // the whole epoch
                {{1}, {2}},                            // one step
                {{extract / 3, extract * 2 / 3},       // twice, leaving
                 {extract / 2, extract}},              //  at extraction
                {{extract - width}, {kNever}},         // last CMux row
                {{extract}, {kNever}},                 // extraction on
                {{extract + 1}, {kNever}},             // keyswitch only
                {{1, extract / 2, extract + 1},        // three partners
                 {extract / 4, extract, kNever}},
            };
        for (size_t k = 0; k < scripts.size(); ++k) {
            SCOPED_TRACE("width=" + std::to_string(width) +
                         " script=" + std::to_string(k));
            ScriptedLanes lanes(scripts[k].first, scripts[k].second);
            std::vector<LweCiphertext> got(width);
            PbsScratch scratch;
            bootstrapKeySwitch(keys, cts.data(), tvs.data(), width,
                               got.data(), scratch, &lanes);
            lanes.joinThreads();
            EXPECT_EQ(lanes.partners(), scripts[k].first.size());
            EXPECT_GT(lanes.partnerBoundaries(), 0u);
            for (size_t i = 0; i < width; ++i)
                EXPECT_TRUE(got[i].raw() == solo[i].raw())
                    << "ciphertext " << i;
        }
    }
    for (size_t i = 0; i < kMaxWidth; ++i)
        EXPECT_EQ(client().decryptInt(server().bootstrap(cts[i], luts[i]),
                                      kSpace),
                  int64_t((i % kSpace + i) % kSpace));
}

/**
 * The stress test the ISSUE asks for: N threads x M bootstraps against
 * one shared context (hand-rolled std::thread, not the pool), checked
 * bit-exactly against the sequential answers. This is the workload
 * that used to race on the FFT plan caches.
 */
TEST_F(BatchPbs, SharedContextConcurrentBootstrapsMatchSequential)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 3;
    auto cts = encryptRange(kThreads * kPerThread);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace,
        [](int64_t v) { return (2 * v) % int64_t(kSpace); });

    std::vector<LweCiphertext> seq;
    for (const auto &ct : cts)
        seq.push_back(server().bootstrap(ct, tv));

    std::vector<LweCiphertext> conc(cts.size());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                size_t idx = size_t(t) * kPerThread + i;
                conc[idx] = server().bootstrap(cts[idx], tv);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    for (size_t i = 0; i < cts.size(); ++i)
        expectSameCiphertext(conc[i], seq[i], i);
}

/** Concurrent bootstrapBatch calls on one context share its lanes. */
TEST_F(BatchPbs, ConcurrentBatchCallsAreSafe)
{
    auto cts = encryptRange(4);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace, [](int64_t v) { return v; });
    ServerContext two(client().evalKeys(), 2);

    std::vector<LweCiphertext> a, b;
    std::thread other([&] { a = two.bootstrapBatch(cts, tv); });
    b = two.bootstrapBatch(cts, tv);
    other.join();

    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        expectSameCiphertext(a[i], b[i], i);
}

/**
 * The zero-duplication sharing contract: any number of ServerContexts
 * built on one EvalKeys bundle reference the same key material
 * (pointer-identical bsk/ksk) and evaluate bit-identically, including
 * concurrently.
 */
TEST_F(BatchPbs, ManyServerContextsShareOneEvalKeysBundle)
{
    auto cts = encryptRange(6);
    TorusPolynomial tv = makeIntTestVector(
        server().params().N, kSpace, [](int64_t v) { return v; });
    std::vector<LweCiphertext> expected =
        server().bootstrapBatch(cts, tv);

    constexpr int kContexts = 3;
    std::vector<std::unique_ptr<ServerContext>> servers;
    for (int s = 0; s < kContexts; ++s)
        servers.push_back(std::make_unique<ServerContext>(
            client().evalKeys(), unsigned(s) + 1));

    std::vector<std::vector<LweCiphertext>> results(kContexts);
    std::vector<std::thread> threads;
    for (int s = 0; s < kContexts; ++s) {
        EXPECT_EQ(&servers[s]->bsk(), &server().bsk());
        EXPECT_EQ(&servers[s]->ksk(), &server().ksk());
        threads.emplace_back(
            [&, s] { results[s] = servers[s]->bootstrapBatch(cts, tv); });
    }
    for (auto &t : threads)
        t.join();

    for (int s = 0; s < kContexts; ++s) {
        ASSERT_EQ(results[s].size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i)
            expectSameCiphertext(results[s][i], expected[i], i);
    }
}

/**
 * The satellite-1 contract: encryptBit/encryptInt are now safe to
 * call concurrently on one shared keyset (internal RNG mutex); every
 * resulting ciphertext must decrypt to its message.
 */
TEST_F(BatchPbs, ConcurrentEncryptionsAreSafeAndDecrypt)
{
    constexpr int kThreads = 4;
    constexpr int kPerThread = 32;
    std::vector<LweCiphertext> cts(kThreads * kPerThread);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                size_t idx = size_t(t) * kPerThread + i;
                cts[idx] = client().encryptInt(
                    int64_t(idx % kSpace), kSpace);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (size_t i = 0; i < cts.size(); ++i)
        EXPECT_EQ(client().decryptInt(cts[i], kSpace),
                  int64_t(i % kSpace));
}
