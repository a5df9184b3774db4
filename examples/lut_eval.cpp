/**
 * @file
 * Homomorphic look-up tables: an encrypted threshold classifier,
 * served across repeated sessions under one keyset.
 *
 * Scenario (the kind of workload the paper's intro motivates): a
 * server scores sensor readings it must never see in the clear. Each
 * reading x in [0,16) is encrypted client-side; the server
 * homomorphically evaluates
 *
 *     risk(x)  = 0 (low) / 1 (medium) / 2 (high)   -- one PBS
 *     clamp(x) = min(x, 9)                          -- one PBS
 *     score    = risk(clamp(x) + bias)              -- chained PBS
 *
 * demonstrating that PBS evaluates arbitrary univariate functions
 * while refreshing noise, so chains of any depth stay decryptable.
 *
 * Setup cost is the point of the session loop: key generation at set
 * I dominates everything else a short session does, so main generates
 * the tenant's keyset once and every session evaluates under it
 * instead of regenerating.
 */

#include <chrono>
#include <cstdio>

#include "tfhe/client_keyset.h"
#include "tfhe/server_context.h"

using namespace strix;

namespace {

int64_t
risk(int64_t x)
{
    if (x < 6)
        return 0;
    if (x < 11)
        return 1;
    return 2;
}

/**
 * One serving session under @p keyset: classify a few readings,
 * self-check. Returns the number of mismatches.
 */
int
runSession(const ClientKeyset &keyset, int session, int64_t x0)
{
    const uint64_t space = 16;
    ServerContext server(keyset.evalKeys());
    std::printf("session %d:\n", session);

    int failures = 0;
    std::printf("%6s %12s %12s %18s\n", "x", "risk(x)", "clamp(x)",
                "risk(clamp(x)+2)");
    for (int64_t x = x0; x < 16; x += 6) {
        auto ct = keyset.encryptInt(x, space);

        auto ct_risk = server.applyLut(ct, space, risk);
        auto ct_clamp = server.applyLut(
            ct, space, [](int64_t v) { return v < 9 ? v : 9; });

        // Chained PBS: add an encrypted bias, then classify again.
        auto bias = keyset.encryptInt(2, space);
        auto shifted = ct_clamp;
        shifted.addAssign(bias);
        // Additions shift the centered encoding by the bias center;
        // recenter with a trivial correction of -1/(4*space)... the
        // LUT API hides this: chain through applyLut directly.
        auto recenter = LweCiphertext::trivial(
            shifted.dim(), 0u - encodeLut(0, space));
        shifted.addAssign(recenter);
        auto ct_chain = server.applyLut(shifted, space, risk);

        int64_t got_risk = keyset.decryptInt(ct_risk, space);
        int64_t got_clamp = keyset.decryptInt(ct_clamp, space);
        int64_t got_chain = keyset.decryptInt(ct_chain, space);
        int64_t want_clamp = x < 9 ? x : 9;
        int64_t want_chain = risk(want_clamp + 2);

        bool ok = got_risk == risk(x) && got_clamp == want_clamp &&
                  got_chain == want_chain;
        failures += !ok;
        std::printf("%6lld %8lld (%lld) %8lld (%lld) %12lld (%lld)  %s\n",
                    static_cast<long long>(x),
                    static_cast<long long>(got_risk),
                    static_cast<long long>(risk(x)),
                    static_cast<long long>(got_clamp),
                    static_cast<long long>(want_clamp),
                    static_cast<long long>(got_chain),
                    static_cast<long long>(want_chain),
                    ok ? "ok" : "MISMATCH");
    }
    return failures;
}

} // namespace

int
main()
{
    std::printf("Encrypted threshold classifier, 3 sessions under one "
                "keyset\n\n");
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const ClientKeyset keyset(paramsSetI(), 1001); // one tenant
    std::printf("keygen: %.1f ms (once, shared by every session)\n\n",
                std::chrono::duration<double>(Clock::now() - t0).count() *
                    1e3);
    int failures = 0;
    for (int session = 0; session < 3; ++session) {
        failures += runSession(keyset, session, session);
        std::printf("\n");
    }
    std::printf("%s\n", failures == 0
                            ? "all encrypted evaluations correct"
                            : "SOME EVALUATIONS FAILED");
    return failures == 0 ? 0 : 1;
}
