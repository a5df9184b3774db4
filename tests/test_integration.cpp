/**
 * @file
 * Cross-layer integration tests: client/server serialization flows,
 * circuit-to-accelerator pipelines, and consistency between the
 * functional library and the timing models.
 */

#include <gtest/gtest.h>

#include "support/pbs_oracles.h"
#include "support/test_util.h"
#include <sstream>

#include "baselines/cpu_model.h"
#include "baselines/gpu_model.h"
#include "strix/accelerator.h"
#include "strix/scheduler.h"
#include "tfhe/serialize.h"
#include "workloads/circuit.h"
#include "workloads/decision_tree.h"
#include "workloads/deepnn.h"

namespace strix {
namespace {

test::TestKeys &
exactKeys()
{
    static test::TestKeys keys(test::fastParams(),
                               test::kSeedIntegration);
    return keys;
}

TEST(Integration, ClientServerRoundTrip)
{
    // Client encrypts, serializes; the server deserializes, computes
    // a homomorphic LUT, serializes the result; client decrypts. The
    // server block sees only ServerContext -- no secret key in scope.
    const ClientKeyset &client = exactKeys().client;
    const ServerContext &server = exactKeys().server;
    const uint64_t space = 8;

    std::stringstream wire;
    {
        auto ct = client.encryptInt(5, space);
        serialize(wire, ct);
    }
    std::stringstream back;
    {
        // Server side: only the ciphertext and public keys.
        LweCiphertext ct = deserializeLweCiphertext(wire);
        auto out = server.applyLut(
            ct, space, [](int64_t x) { return (7 - x) % 8; });
        serialize(back, out);
    }
    LweCiphertext result = deserializeLweCiphertext(back);
    EXPECT_EQ(client.decryptInt(result, space), 2);
}

TEST(Integration, EvalKeysShipAcrossTheWire)
{
    // The full key-export flow: the client serializes its EvalKeys
    // bundle, a fresh remote ServerContext stands on the deserialized
    // copy and answers a LUT query the client can decrypt.
    const ClientKeyset &client = exactKeys().client;
    std::stringstream wire;
    serialize(wire, *client.evalKeys(), EvalKeysFormat::Seeded);

    ServerContext remote(deserializeEvalKeys(wire));
    const uint64_t space = 8;
    auto ct = client.encryptInt(3, space);
    auto out = remote.applyLut(
        ct, space, [](int64_t x) { return (x * 2) % 8; });
    EXPECT_EQ(client.decryptInt(out, space), 6);
}

TEST(Integration, CircuitGraphConsistentWithFunctionalCost)
{
    // The workload graph's PBS count must equal what the encrypted
    // evaluation actually executes (gate accounting).
    Circuit c = buildMultiplier(3);
    WorkloadGraph g = c.toWorkloadGraph();
    EXPECT_EQ(g.totalPbs(), c.pbsCount());

    // And all platforms order the same way on it.
    CpuModel cpu;
    GpuModel gpu(72, 1.0);
    StrixAccelerator strix;
    double cpu_s = cpu.runGraphSeconds(paramsSetI(), g);
    double gpu_s = gpu.runGraphSeconds(paramsSetI(), g);
    double strix_s = strix.runGraph(paramsSetI(), g).seconds;
    EXPECT_LT(strix_s, gpu_s);
    EXPECT_LT(strix_s, cpu_s);
}

TEST(Integration, TreeGraphMatchesEncryptedPbsCount)
{
    // Count the PBS the encrypted tree evaluation performs via the
    // gate-stats-free route: compare against the graph's accounting.
    DecisionTree t = randomTree(3, 4, 16, 5);
    const uint32_t digits = 2;
    WorkloadGraph g = t.toWorkloadGraph(digits);
    // 7 comparisons x 2 digits + (4+2+1) muxes x 2 PBS.
    EXPECT_EQ(g.totalPbs(), 7u * digits + 7u * 2);
}

TEST(Integration, DeepNnEndToEndAllPlatformsOrdered)
{
    WorkloadGraph g = buildDeepNn(20);
    for (uint32_t big_n : {1024u, 2048u, 4096u}) {
        const TfheParams &p = deepNnParams(big_n);
        CpuModel cpu;
        GpuModel gpu;
        StrixAccelerator strix;
        double c = cpu.runGraphSeconds(p, g);
        double gm = gpu.runGraphSeconds(p, g);
        double s = strix.runGraph(p, g).seconds;
        EXPECT_LT(s, gm);
        EXPECT_LT(gm, c);
        // Fig. 7's reported bands.
        EXPECT_GT(c / s, 25.0) << big_n;
        EXPECT_LT(c / s, 60.0) << big_n;
    }
}

TEST(Integration, UnrolledContextFullLutChain)
{
    // Unrolled bootstrapping inside a longer computation: LUT chain
    // with additions between, all on the unrolled key.
    TfheParams params = test::midParams();
    Rng rng(111);
    LweKey lwe_key(params.n, rng);
    GlweKey glwe_key(params.k, params.N, rng);
    auto ubsk = test::UnrolledBootstrappingKey::generate(
        lwe_key, glwe_key, params, rng);
    auto ksk = KeySwitchKey::generateSeeded(glwe_key.extractedLweKey(),
                                            lwe_key, params, rng.next64(),
                                            rng);

    const uint64_t space = 8;
    auto ct = lweEncrypt(lwe_key, encodeLut(2, space), 0.0, rng);
    // f(x) = x+1, applied three times: 2 -> 5.
    for (int i = 0; i < 3; ++i) {
        TorusPolynomial tv = makeIntTestVector(
            params.N, space, [](int64_t x) { return (x + 1) % 8; });
        auto big = test::programmableBootstrapUnrolled(ct, tv, ubsk);
        ct = keySwitch(big, ksk);
    }
    EXPECT_EQ(decodeLut(lwePhase(lwe_key, ct), space), 5);
}

TEST(Integration, SimulatorAgreesWithSchedulerOnDeepNn)
{
    // runGraph must equal the sum of per-layer scheduled makespans.
    StrixAccelerator strix;
    EpochScheduler sched(StrixConfig::paperDefault());
    WorkloadGraph g = buildDeepNn(20);
    const TfheParams &p = deepNnParams(1024);

    double layered = 0.0;
    for (const auto &layer : g.layers()) {
        auto epochs = sched.schedule(p, layer.pbs_count);
        layered += double(EpochScheduler::makespan(epochs)) / 1.2e9;
        layered += double(layer.linear_macs) / 8.0 / 1.2e9;
    }
    EXPECT_NEAR(strix.runGraph(p, g).seconds, layered, 1e-9);
}

} // namespace
} // namespace strix
