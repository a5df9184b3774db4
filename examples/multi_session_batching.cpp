/**
 * @file
 * Cross-session dynamic batching: many concurrent serving sessions,
 * one BatchExecutor.
 *
 * The scenario behind Strix's two-level batching (Sec. III): a server
 * hosts many low-rate sessions, and no single session ever has enough
 * ciphertexts in hand to fill the PBS pipeline by itself. Per-call
 * batching (`bootstrapBatch`) cannot help -- each call sees one
 * session's one or two requests. The BatchExecutor closes the gap:
 * sessions submit individual requests (`BatchExecutor::submit`), and
 * requests that share a key bundle -- each tenant's keyset is built
 * once in main, so identity is the EvalKeys pointer -- coalesce into
 * one batch on the executor's shared lanes. A second tenant runs
 * alongside to show the isolation property: its requests land in
 * their own shard and are never mixed into the first tenant's
 * batches.
 *
 * Every result is self-checked by decryption; the demo exits nonzero
 * on any mismatch.
 */

#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "tfhe/batch_executor.h"
#include "tfhe/client_keyset.h"

using namespace strix;

namespace {

constexpr uint64_t kSpace = 8;
constexpr int kSessions = 4;
constexpr int kRequestsPerSession = 8;
constexpr uint64_t kTenantSeedA = 7001;
constexpr uint64_t kTenantSeedB = 7002;

/**
 * One serving session of the tenant owning @p keyset: submit a stream
 * of LUT requests to the shared executor, and self-check every
 * decrypted answer. Returns the number of mismatches.
 */
int
runSession(int session, const ClientKeyset &keyset, BatchExecutor &exec)
{

    auto triple = [](int64_t v) { return (3 * v) % int64_t(kSpace); };
    std::vector<std::future<LweCiphertext>> futs;
    for (int i = 0; i < kRequestsPerSession; ++i) {
        LweCiphertext ct =
            keyset.encryptInt(int64_t(i) % int64_t(kSpace), kSpace);
        futs.push_back(exec.submit(
            keyset.evalKeys(), ct,
            makeIntTestVector(keyset.params().N, kSpace, triple)));
    }

    int mismatches = 0;
    for (int i = 0; i < kRequestsPerSession; ++i) {
        int64_t got = keyset.decryptInt(futs[size_t(i)].get(), kSpace);
        int64_t want = triple(int64_t(i) % int64_t(kSpace));
        if (got != want) {
            std::fprintf(stderr,
                         "session %d request %d: got %lld want %lld\n",
                         session, i, (long long)got, (long long)want);
            ++mismatches;
        }
    }
    return mismatches;
}

} // namespace

int
main()
{
    std::printf("=== Cross-session dynamic batching demo ===\n\n");
    std::printf("%d sessions x %d PBS requests, 2 tenants, one "
                "BatchExecutor\n\n",
                kSessions, kRequestsPerSession);

    BatchExecutor::Options opts;
    opts.target_batch = 8;     // sweep width the paper's TvLP plays
    opts.flush_delay_us = 500; // latency bound for a trickling session
    BatchExecutor exec(opts);
    const ClientKeyset tenant_a(testParams(48, 512), kTenantSeedA);
    const ClientKeyset tenant_b(testParams(48, 512), kTenantSeedB);

    std::vector<std::thread> sessions;
    std::vector<int> mismatches(kSessions, 0);
    for (int s = 0; s < kSessions; ++s)
        sessions.emplace_back([&, s] {
            mismatches[size_t(s)] =
                runSession(s, s % 2 == 0 ? tenant_a : tenant_b, exec);
        });
    for (auto &t : sessions)
        t.join();
    exec.drain();

    int bad = 0;
    for (int m : mismatches)
        bad += m;

    BatchExecutor::Stats st = exec.stats();
    std::printf("requests submitted:   %llu\n",
                (unsigned long long)st.submitted);
    std::printf("sweeps issued:        %llu  (size %llu / deadline "
                "%llu / drain %llu)\n",
                (unsigned long long)st.sweeps,
                (unsigned long long)st.size_flushes,
                (unsigned long long)st.deadline_flushes,
                (unsigned long long)st.drain_flushes);
    std::printf("sweep occupancy:      %.2f  (mean width / target "
                "width %zu)\n",
                st.occupancy(opts.target_batch), opts.target_batch);
    std::printf("self-check:           %s\n",
                bad == 0 ? "all decryptions correct"
                         : "MISMATCHES FOUND");

    std::printf("\nReading: no single session ever fills a sweep by "
                "itself; the executor's coalescing is what keeps the "
                "batch path busy -- the software analogue of keeping "
                "the HSC pipeline full across the device-level batch "
                "(Sec. IV-C).\n");
    return bad == 0 ? 0 : 1;
}
