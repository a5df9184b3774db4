/**
 * @file
 * Measured CPU baseline: runs our actual software TFHE (not the
 * analytic model) single-threaded and through the batched,
 * thread-parallel PBS API, reporting real PBS latency and throughput
 * on this machine. Complements Table V's Concrete rows: the absolute
 * numbers depend on how optimized the FFT is, but the scaling
 * behaviour (throughput = threads/latency, no packing) is the
 * phenomenon the paper's Sec. III builds on.
 *
 * Flags:
 *   --smoke        single rep, small batches, thread sweep capped at
 *                  2 workers (used by the ctest smoke run).
 *   --json <file>  additionally write the measurements as JSON; CI's
 *                  bench job uploads this next to micro_software's
 *                  capture in the `bench-results` artifact.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_flags.h"
#include "common/table.h"
#include "poly/simd.h"
#include "tfhe/client_keyset.h"
#include "tfhe/server_context.h"

using namespace strix;

namespace {

/** One row of the measured batch-PBS scaling sweep. */
struct PbsSweepRow
{
    unsigned threads;
    size_t batch;
    double pbs_per_s;
    double scaling;
};

/**
 * Print the threads/batch/PBS-per-second/scaling table for
 * @p client's EvalKeys bundle: one bootstrapBatch call per pool size,
 * each on a fresh ServerContext of that many threads, with per_worker
 * ciphertexts per worker (so every row is fully supplied), identity
 * LUT so every output self-checks, thread counts deduplicated
 * (max(4, hw) repeats 4 on a 4-core machine).
 * @param rows receives one PbsSweepRow per printed row.
 * @return false if any decrypted batch output mismatches (the caller
 *         should exit nonzero).
 */
bool
runBatchPbsSweep(const ClientKeyset &client, bool smoke,
                 std::vector<PbsSweepRow> &rows)
{
    const uint64_t space = 4;
    TorusPolynomial tv =
        makeIntTestVector(client.evalKeys()->params().N, space,
                          [](int64_t x) { return x; });

    unsigned hw = std::thread::hardware_concurrency();
    std::vector<unsigned> counts{1u, 2u, 4u, std::max(4u, hw)};
    if (smoke)
        counts = {1u, 2u};
    counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

    // Encrypt once for the widest row (client-side work; the sweep
    // below is pure server evaluation).
    const size_t per_worker = smoke ? 2 : 4;
    std::vector<LweCiphertext> inputs;
    for (size_t i = 0; i < per_worker * counts.back(); ++i)
        inputs.push_back(client.encryptInt(int64_t(i % space), space));

    using Clock = std::chrono::steady_clock;
    TextTable t;
    t.header({"threads", "batch", "PBS/s", "scaling"});
    double tp1 = 0.0;
    bool ok = true;
    for (unsigned n : counts) {
        ServerContext server(client.evalKeys(), n);
        const size_t batch = per_worker * n;
        auto t0 = Clock::now();
        std::vector<LweCiphertext> outs =
            server.bootstrapBatch(inputs.data(), batch, tv);
        double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        for (size_t i = 0; i < outs.size(); ++i)
            ok &= client.decryptInt(outs[i], space) == int64_t(i % space);
        double tp = double(outs.size()) / secs;
        if (n == 1)
            tp1 = tp;
        rows.push_back({n, batch, tp, tp / tp1});
        t.row({std::to_string(n), std::to_string(batch),
               TextTable::num(tp, 1), TextTable::num(tp / tp1, 2) + "x"});
    }
    t.print();
    std::printf("\nbatch outputs %s the identity LUT\n",
                ok ? "match" : "MISMATCH");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!matchJsonFlag(argc, argv, i, json_path)) {
            std::fprintf(stderr,
                         "usage: cpu_measured [--smoke] [--json <file>]\n");
            return 2;
        }
    }

    std::printf("=== Measured software-TFHE PBS on this machine "
                "(parameter set I) ===\n\n");
    std::printf("FFT kernel backend: %s\n\n", activeKernels().name);

    ClientKeyset client(paramsSetI(), 4242);
    ServerContext server(client.evalKeys());
    const uint64_t space = 4;
    TorusPolynomial tv = makeIntTestVector(
        server.params().N, space, [](int64_t x) { return x; });
    LweCiphertext input = client.encryptInt(1, space);

    using Clock = std::chrono::steady_clock;

    // Single-thread latency.
    const int warm = smoke ? 0 : 2, reps = smoke ? 1 : 8;
    for (int i = 0; i < warm; ++i)
        server.bootstrap(input, tv);
    auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i)
        server.bootstrap(input, tv);
    double lat_ms =
        std::chrono::duration<double>(Clock::now() - t0).count() /
        reps * 1e3;
    std::printf("single-thread PBS+KS latency: %.2f ms "
                "(Concrete on Xeon: 14 ms)\n\n",
                lat_ms);

    // Thread scaling through ServerContext::bootstrapBatch, one
    // context per thread count. Each worker still bootstraps one
    // message at a time -- throughput scales with workers, never
    // within a bootstrap, the 'no ciphertext packing' property that
    // motivates Strix's batching architecture.
    std::vector<PbsSweepRow> rows;
    bool ok = runBatchPbsSweep(client, smoke, rows);

    if (!json_path.empty()) {
        std::FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
            return 1;
        }
        std::fprintf(f,
                     "{\n"
                     "  \"binary\": \"cpu_measured\",\n"
                     "  \"params\": \"I\",\n"
                     "  \"fft_kernel\": \"%s\",\n"
                     "  \"smoke\": %s,\n"
                     "  \"single_thread_pbs_ms\": %.4f,\n"
                     "  \"sweep\": [",
                     activeKernels().name, smoke ? "true" : "false",
                     lat_ms);
        for (size_t i = 0; i < rows.size(); ++i)
            std::fprintf(f,
                         "%s\n    {\"threads\": %u, \"batch\": %zu, "
                         "\"pbs_per_s\": %.2f, \"scaling\": %.3f}",
                         i ? "," : "", rows[i].threads, rows[i].batch,
                         rows[i].pbs_per_s, rows[i].scaling);
        std::fprintf(f, "\n  ],\n  \"outputs_ok\": %s\n}\n",
                     ok ? "true" : "false");
        std::fclose(f);
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return ok ? 0 : 1;
}
