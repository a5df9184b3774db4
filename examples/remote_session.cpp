/**
 * @file
 * Remote serving session: N concurrent client threads against a live
 * loopback StrixServer daemon.
 *
 * The full wire-level tenant lifecycle, end to end: each client
 * thread connects over TCP, registers its tenant by uploading the
 * EVK2 (seeded) key bundle -- re-registration is idempotent, so both
 * threads of a tenant can do it blindly -- then drives Bootstrap,
 * ApplyLut, and EvalCircuit requests through the MSG1 protocol. The
 * server batches PBS work *across tenants and connections* through
 * its shared BatchExecutor; replies come back in completion order and
 * are matched by request id.
 *
 * Every reply is self-checked: decrypted with the tenant's secret key
 * (which never crosses the wire -- the daemon is evaluation-only) and
 * compared against a local ServerContext evaluation / cleartext
 * reference. Exits nonzero on any mismatch or transport failure.
 */

#include <cstdio>
#include <sstream>
#include <thread>
#include <vector>

#include "net/client.h"
#include "server/server.h"
#include "server/wire_codec.h"
#include "tfhe/bootstrap.h"
#include "tfhe/client_keyset.h"
#include "tfhe/server_context.h"
#include "workloads/circuit.h"

using namespace strix;

namespace {

constexpr uint64_t kSpace = 8;
constexpr int kThreads = 4; // 2 tenants x 2 connections
constexpr int kRequestsPerThread = 6;
constexpr uint64_t kSeedA = 9101;
constexpr uint64_t kSeedB = 9102;

int64_t
triple(int64_t v)
{
    return (3 * v) % int64_t(kSpace);
}

/** Full adder: sum = a^b^cin, cout = ab | (a^b)cin. */
Circuit
fullAdder()
{
    Circuit c;
    const Wire a = c.input("a");
    const Wire b = c.input("b");
    const Wire cin = c.input("cin");
    const Wire axb = c.gate(GateOp::Xor, a, b);
    const Wire sum = c.gate(GateOp::Xor, axb, cin);
    const Wire ab = c.gate(GateOp::And, a, b);
    const Wire axb_cin = c.gate(GateOp::And, axb, cin);
    const Wire cout = c.gate(GateOp::Or, ab, axb_cin);
    c.output(sum, "sum");
    c.output(cout, "cout");
    return c;
}

std::vector<uint8_t>
evalKeysBytes(const EvalKeys &keys)
{
    return encodeEvalKeysPayload(keys, EvalKeysFormat::Seeded);
}

/**
 * One client thread of @p tenant, whose keys are @p keyset: register,
 * then drive the three request types. Returns the number of failures
 * (0 = clean).
 */
int
runClient(int id, uint16_t port, uint64_t tenant,
          const ClientKeyset &keyset)
{
    const TfheParams &p = keyset.evalKeys()->params();
    ServerContext local(keyset.evalKeys());

    StrixClient client;
    if (!client.connectLoopback(port)) {
        std::fprintf(stderr, "client %d: connect failed\n", id);
        return 1;
    }
    // Blind re-registration: the server's getOrInsert is idempotent,
    // so each of a tenant's connections can upload without
    // coordination (only the first allocates key memory).
    StrixClient::Reply reg =
        client.call(MsgType::RegisterTenant, tenant,
                    evalKeysBytes(*keyset.evalKeys()));
    if (!reg.ok) {
        std::fprintf(stderr, "client %d: register failed: %s\n", id,
                     reg.error_text.c_str());
        return 1;
    }

    const Circuit adder = fullAdder();
    int failures = 0;
    for (int i = 0; i < kRequestsPerThread; ++i) {
        const int64_t m = (id + i) % int64_t(kSpace);
        switch (i % 3) {
        case 0: { // raw Bootstrap against an explicit test vector
            LweCiphertext ct = keyset.encryptInt(m, kSpace);
            TorusPolynomial tv = makeIntTestVector(p.N, kSpace, triple);
            StrixClient::Reply r =
                client.call(MsgType::Bootstrap, tenant,
                            encodeBootstrapPayload(ct, tv));
            if (!r.ok) {
                std::fprintf(stderr, "client %d: bootstrap: %s\n", id,
                             r.error_text.c_str());
                ++failures;
                break;
            }
            std::vector<LweCiphertext> out =
                decodeCiphertexts(r.payload);
            const int64_t got =
                keyset.decryptInt(out.at(0), kSpace);
            const int64_t want =
                keyset.decryptInt(local.bootstrap(ct, tv), kSpace);
            if (got != want || got != triple(m)) {
                std::fprintf(stderr,
                             "client %d: bootstrap mismatch "
                             "(%lld vs local %lld)\n",
                             id, (long long)got, (long long)want);
                ++failures;
            }
            break;
        }
        case 1: { // ApplyLut with a tabulated function
            LweCiphertext ct = keyset.encryptInt(m, kSpace);
            std::vector<int64_t> table;
            for (uint64_t v = 0; v < kSpace; ++v)
                table.push_back(triple(int64_t(v)));
            StrixClient::Reply r = client.call(
                MsgType::ApplyLut, tenant,
                encodeApplyLutPayload(ct, kSpace, table));
            if (!r.ok) {
                std::fprintf(stderr, "client %d: applyLut: %s\n", id,
                             r.error_text.c_str());
                ++failures;
                break;
            }
            std::vector<LweCiphertext> out =
                decodeCiphertexts(r.payload);
            const int64_t got =
                keyset.decryptInt(out.at(0), kSpace);
            const int64_t want = keyset.decryptInt(
                local.applyLut(ct, kSpace, triple), kSpace);
            if (got != want || got != triple(m)) {
                std::fprintf(stderr,
                             "client %d: applyLut mismatch "
                             "(%lld vs local %lld)\n",
                             id, (long long)got, (long long)want);
                ++failures;
            }
            break;
        }
        default: { // EvalCircuit: full adder on encrypted bits
            const bool a = (m & 1) != 0, b = (m & 2) != 0,
                       cin = (m & 4) != 0;
            std::vector<LweCiphertext> inputs;
            inputs.push_back(keyset.encryptBit(a));
            inputs.push_back(keyset.encryptBit(b));
            inputs.push_back(keyset.encryptBit(cin));
            StrixClient::Reply r = client.call(
                MsgType::EvalCircuit, tenant,
                encodeCircuitPayload(adder, inputs));
            if (!r.ok) {
                std::fprintf(stderr, "client %d: evalCircuit: %s\n",
                             id, r.error_text.c_str());
                ++failures;
                break;
            }
            std::vector<LweCiphertext> out =
                decodeCiphertexts(r.payload);
            const std::vector<bool> want =
                adder.evalPlain({a, b, cin});
            if (out.size() != want.size()) {
                std::fprintf(stderr,
                             "client %d: circuit arity mismatch\n",
                             id);
                ++failures;
                break;
            }
            for (size_t o = 0; o < out.size(); ++o) {
                if (keyset.decryptBit(out[o]) != want[o]) {
                    std::fprintf(stderr,
                                 "client %d: circuit output %zu "
                                 "mismatch\n",
                                 id, o);
                    ++failures;
                }
            }
            break;
        }
        }
    }
    return failures;
}

} // namespace

int
main()
{
    std::printf("=== Remote serving session demo ===\n\n");
    std::printf("%d client threads, 2 tenants, one loopback daemon\n\n",
                kThreads);

    StrixServer::Options opts;
    opts.exec.target_batch = 8;
    opts.exec.flush_delay_us = 500;
    StrixServer server(opts);
    if (!server.start()) {
        std::fprintf(stderr, "server bind failed\n");
        return 1;
    }

    // The client side's keys, one keyset per tenant.
    const ClientKeyset keyset_a(testParams(48, 512), kSeedA);
    const ClientKeyset keyset_b(testParams(48, 512), kSeedB);
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            const bool a = t % 2 == 0;
            failures[size_t(t)] = runClient(t, server.port(), a ? 1 : 2,
                                            a ? keyset_a : keyset_b);
        });
    for (auto &t : threads)
        t.join();

    const StrixServer::Stats st = server.stats();
    const BatchExecutor::Stats ex = server.executorStats();
    const CacheStats cs = server.cacheStats();
    server.stop();

    std::printf("requests served:    %llu (%llu ok, %llu errors)\n",
                (unsigned long long)st.requests,
                (unsigned long long)st.ok_replies,
                (unsigned long long)st.error_replies);
    std::printf("PBS sweeps:         %llu over %llu requests "
                "(occupancy %.2f)\n",
                (unsigned long long)ex.sweeps,
                (unsigned long long)ex.swept_lwes,
                ex.occupancy(opts.exec.target_batch));
    std::printf("tenant bundles:     %llu resident (%llu bytes)\n",
                (unsigned long long)cs.entries,
                (unsigned long long)cs.resident_bytes);

    int bad = 0;
    for (int f : failures)
        bad += f;
    if (bad != 0) {
        std::fprintf(stderr, "\nFAILED: %d mismatches\n", bad);
        return 1;
    }
    std::printf("\nall replies decode-identical to local evaluation\n");
    return 0;
}
