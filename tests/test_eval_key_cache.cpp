/**
 * @file
 * EvalKeyCache: the serving daemon's tenant key store -- adoption and
 * idempotent re-registration, lookup, the stats counters, LRU eviction
 * under the budget fixed at construction, pinning of referenced
 * bundles, and a concurrent churn case that runs under the STRIX_TSAN
 * CI leg (label `unit`).
 */

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/test_util.h"
#include "tfhe/client_keyset.h"
#include "tfhe/eval_key_cache.h"
#include "tfhe/serialize.h"
#include "tfhe/server_context.h"

namespace strix {
namespace {

using namespace strix::test;

/**
 * A bundle with no owner but the adopting cache and whoever holds the
 * returned pointer -- the wire shape: serialize a freshly generated
 * bundle and re-expand it into a fresh allocation. Keygen is
 * deterministic in (params, seed), so the bundle matches any other
 * keyset made from @p seed.
 */
std::shared_ptr<const EvalKeys>
externalBundle(uint64_t seed)
{
    const ClientKeyset keyset(fastParams(), seed);
    std::ostringstream os;
    serialize(os, *keyset.evalKeys(), EvalKeysFormat::Seeded);
    std::istringstream is(os.str());
    return deserializeEvalKeys(is);
}

// Tests drop the returned shared_ptrs (immediately, or by scope) where
// eviction is expected: an entry is pinned -- never evictable -- while
// any reference outside the cache is alive.

TEST(EvalKeyCache, AdoptsBundleAndHitsOnRepeat)
{
    EvalKeyCache cache;
    CacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.inserts, 0u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.resident_bytes, 0u);
    EXPECT_EQ(s.entries, 0u);
    EXPECT_EQ(s.budget_bytes, 0u);

    auto bundle = externalBundle(71);
    const uint64_t b = bundle->residentBytes();
    EXPECT_GT(b, 0u);

    auto adopted = cache.getOrInsert(1, bundle);
    EXPECT_EQ(adopted.get(), bundle.get());
    s = cache.stats();
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, b);

    // Idempotent re-registration: a second upload for the same tenant
    // returns the *resident* bundle and drops the new copy.
    auto other = externalBundle(71);
    auto again = cache.getOrInsert(1, other);
    EXPECT_EQ(again.get(), bundle.get());
    EXPECT_NE(again.get(), other.get());
    s = cache.stats();
    EXPECT_EQ(s.inserts, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, b) << "no double accounting";
}

TEST(EvalKeyCache, StatsCountersTrack)
{
    EvalKeyCache cache(1u << 30);
    EXPECT_EQ(cache.stats().budget_bytes, 1u << 30);

    auto one = externalBundle(76);
    auto two = externalBundle(77);
    const uint64_t b = one->residentBytes();
    (void)cache.getOrInsert(1, one);
    (void)cache.getOrInsert(2, two);
    CacheStats s = cache.stats();
    EXPECT_EQ(s.inserts, 2u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.resident_bytes, b + two->residentBytes());

    // Hits count from both entry points; a lookup miss counts nowhere.
    (void)cache.lookup(1);
    (void)cache.lookup(2);
    (void)cache.getOrInsert(2, externalBundle(77));
    EXPECT_EQ(cache.lookup(3), nullptr);
    s = cache.stats();
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.inserts, 2u);
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 2u);
}

TEST(EvalKeyCache, LookupMissesThenHitsThenServes)
{
    EvalKeyCache cache;
    EXPECT_EQ(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.stats().hits, 0u) << "a miss is not a hit";

    auto bundle = externalBundle(72);
    (void)cache.getOrInsert(1, bundle);
    auto found = cache.lookup(1);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found.get(), bundle.get());
    EXPECT_EQ(cache.stats().hits, 1u);

    // The adopted bundle must actually evaluate under the secret key
    // of a separately generated keyset with the same seed.
    const ClientKeyset keyset(fastParams(), 72);
    ServerContext server(found);
    auto ct = keyset.encryptInt(3, 8);
    auto out = server.applyLut(ct, 8,
                               [](int64_t v) { return (v * 2) % 8; });
    EXPECT_EQ(keyset.decryptInt(out, 8), 6);
}

TEST(EvalKeyCache, BudgetEvictsLeastRecentlyUsed)
{
    auto first = externalBundle(1);
    const uint64_t b = first->residentBytes();
    EvalKeyCache cache(2 * b); // room for two of the three bundles
    (void)cache.getOrInsert(1, std::move(first));
    (void)cache.getOrInsert(2, externalBundle(2));
    (void)cache.lookup(1); // touch: 2 is now LRU
    (void)cache.getOrInsert(3, externalBundle(3));

    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.resident_bytes, 2 * b);
    EXPECT_EQ(s.budget_bytes, 2 * b);
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);
    EXPECT_EQ(cache.lookup(2), nullptr) << "the LRU tenant must go";
}

TEST(EvalKeyCache, BudgetPressureEvictsIdleTenant)
{
    auto a = externalBundle(74);
    const uint64_t b = a->residentBytes();
    EvalKeyCache cache(b + b / 2); // room for one bundle, not two
    (void)cache.getOrInsert(1, std::move(a)); // tenant 1 is now idle

    // Registering tenant 2 under pressure evicts idle tenant 1 at
    // once, and never the bundle it is inserting.
    (void)cache.getOrInsert(2, externalBundle(75));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(s.resident_bytes, b);
    EXPECT_EQ(cache.lookup(1), nullptr) << "tenant 1 must re-register";
    EXPECT_NE(cache.lookup(2), nullptr);
}

TEST(EvalKeyCache, InsertionUnderBudgetEvictsEagerly)
{
    auto first = externalBundle(78);
    const uint64_t b = first->residentBytes();
    EvalKeyCache cache(b); // exactly one bundle fits
    (void)cache.getOrInsert(1, std::move(first));

    // Every insert over budget evicts at once: tenants 1 and 2
    // alternate, each insert evicting the other, and the entry just
    // inserted for the caller always survives.
    for (uint64_t round = 1; round <= 3; ++round) {
        const uint64_t in = 1 + round % 2;
        const uint64_t out = 1 + (round + 1) % 2;
        (void)cache.getOrInsert(in, externalBundle(77 + in));
        CacheStats s = cache.stats();
        EXPECT_EQ(s.evictions, round);
        EXPECT_EQ(s.entries, 1u);
        EXPECT_LE(s.resident_bytes, b);
        EXPECT_EQ(cache.lookup(out), nullptr);
        EXPECT_NE(cache.lookup(in), nullptr);
    }
}

TEST(EvalKeyCache, PinnedBundlesAreNeverEvicted)
{
    auto pinned = externalBundle(1);
    const uint64_t b = pinned->residentBytes();
    EvalKeyCache cache(b); // exactly one bundle fits
    (void)cache.getOrInsert(1, pinned);

    // Tenant 2 overdraws the budget, but 1 is pinned and 2 is the
    // entry being inserted: nothing is evicted.
    (void)cache.getOrInsert(2, externalBundle(2));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_GT(s.resident_bytes, s.budget_bytes);

    // Tenant 3: the idle 2 goes, the pinned 1 stays, and the cache
    // stays over budget rather than invalidate a live tenant.
    (void)cache.getOrInsert(3, externalBundle(3));
    s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_GT(s.resident_bytes, s.budget_bytes);
    EXPECT_EQ(cache.lookup(2), nullptr);
    EXPECT_EQ(cache.lookup(1).get(), pinned.get());

    // Unpinned, tenant 1 is evictable by the next insert.
    pinned.reset();
    (void)cache.getOrInsert(4, externalBundle(4));
    s = cache.stats();
    EXPECT_EQ(s.evictions, 3u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_EQ(cache.lookup(1), nullptr);
}

TEST(EvalKeyCache, ZeroBudgetIsUnbounded)
{
    EvalKeyCache cache(0);
    for (uint64_t tenant = 1; tenant <= 5; ++tenant)
        (void)cache.getOrInsert(tenant, externalBundle(tenant));
    CacheStats s = cache.stats();
    EXPECT_EQ(s.evictions, 0u);
    EXPECT_EQ(s.entries, 5u);
    EXPECT_EQ(s.inserts, 5u);
}

/**
 * Eviction racing inserts and lookups: threads churn more tenants
 * than the 1-bundle budget holds (nearly every insert evicts) while
 * tenant 0 stays pinned from the main thread and another thread reads
 * stats(). Every snapshot must balance -- each insert is resident or
 * evicted -- which only holds if stats() reads under the same lock
 * the mutations take. Runs under the STRIX_TSAN CI leg; tiny
 * parameters keep the copies cheap.
 */
TEST(EvalKeyCache, ConcurrentChurnUnderBudgetPressure)
{
    const ClientKeyset tiny(testParams(16, 64, 1, 2, 8, 0.0), 0);
    // Every tenant gets its own allocation of the same keys: all the
    // cache sees of a bundle is its pointer and its resident bytes.
    auto fresh = [&tiny] {
        return std::make_shared<const EvalKeys>(*tiny.evalKeys());
    };
    constexpr int kThreads = 4;
    constexpr int kIters = 16;
    constexpr uint64_t kTenants = 3;

    auto pinned = fresh();
    const uint64_t b = pinned->residentBytes();
    EvalKeyCache cache(b);
    ASSERT_EQ(cache.getOrInsert(0, pinned).get(), pinned.get());

    std::atomic<bool> done{false};
    std::thread reader([&] {
        while (!done.load()) {
            const CacheStats s = cache.stats();
            EXPECT_EQ(s.inserts, s.evictions + s.entries);
            EXPECT_EQ(s.resident_bytes, s.entries * b);
        }
    });
    std::atomic<int> ready{0};
    std::atomic<uint64_t> found{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            for (int i = 0; i < kIters; ++i) {
                const uint64_t tenant = 1 + (uint64_t(t) + i) % kTenants;
                auto keys = cache.getOrInsert(tenant, fresh());
                ASSERT_NE(keys, nullptr);
                EXPECT_EQ(keys->params().N, 64u);
                auto other = cache.lookup(1 + tenant % kTenants);
                if (other) {
                    EXPECT_EQ(other->params().N, 64u);
                    found.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : threads)
        t.join();
    done.store(true);
    reader.join();

    // Every getOrInsert inserted or hit, and every lookup that found
    // a bundle hit (the +1 is tenant 0's insert).
    CacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.inserts,
              uint64_t(kThreads) * kIters + found.load() + 1);

    // With no thread holding a bundle, one more tenant evicts every
    // idle one; the pinned bundle survived every eviction scan.
    (void)cache.getOrInsert(kTenants + 1, fresh());
    s = cache.stats();
    EXPECT_GT(s.evictions, 0u);
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.inserts, s.evictions + s.entries);
    EXPECT_EQ(cache.lookup(0).get(), pinned.get());
}

} // namespace
} // namespace strix
