/**
 * @file
 * Quickstart: the 5-minute tour of the library.
 *
 *  1. Client-side key generation (paper parameter set I, 110-bit):
 *     a ClientKeyset owns the secrets, its EvalKeys bundle is the
 *     public material a server evaluates with.
 *  2. Ship the EvalKeys over a (simulated) wire and stand up a
 *     ServerContext on the deserialized bundle -- the server never
 *     sees a secret key, and the type system keeps it that way.
 *  3. Encrypt bits client-side, evaluate bootstrapped gates on the
 *     server, decrypt client-side.
 *  4. Programmable bootstrapping of an integer function (PBS).
 *  5. Ask the Strix simulator what the same workload costs on the
 *     accelerator.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <sstream>

#include "strix/accelerator.h"
#include "tfhe/client_keyset.h"
#include "tfhe/gates.h"
#include "tfhe/serialize.h"

using namespace strix;

int
main()
{
    std::printf("-- 1. client-side key generation (parameter set %s, "
                "lambda = %d bits)\n",
                paramsSetI().name.c_str(), paramsSetI().lambda);
    ClientKeyset client(paramsSetI(), /*seed=*/42);

    std::printf("-- 2. ship the evaluation keys to the server\n");
    // The seeded EVK2 frame ships only the mask seeds plus body
    // components; the server re-expands every mask (deterministically
    // -- the rebuilt keys are bit-identical) into the resident key.
    std::stringstream wire;
    serialize(wire, *client.evalKeys(), EvalKeysFormat::Seeded);
    const double wire_mib = double(wire.tellp()) / (1024.0 * 1024.0);
    const double resident_mib =
        double(client.evalKeys()->residentBytes()) / (1024.0 * 1024.0);
    std::printf("   EvalKeys frame (EVK2, seeded): %.1f MiB (BSK + KSK, "
                "no secret key inside)\n",
                wire_mib);
    std::printf("   resident on the server       : %.1f MiB (frame is "
                "%.0f%% of it)\n",
                resident_mib, 100.0 * wire_mib / resident_mib);
    if (wire_mib > 0.55 * resident_mib) {
        std::printf("   ERROR: seeded frame exceeds 55%% of the "
                    "resident key\n");
        return 1;
    }
    // The server stands on the deserialized public bundle alone,
    // re-expanded from the compressed frame.
    ServerContext server(deserializeEvalKeys(wire));

    std::printf("-- 3. bootstrapped boolean gates (evaluated server-"
                "side)\n");
    auto a = client.encryptBit(true);
    auto b = client.encryptBit(false);
    std::printf("   NAND(1,0) = %d   (expect 1)\n",
                client.decryptBit(gateNand(server, a, b)));
    std::printf("   AND(1,0)  = %d   (expect 0)\n",
                client.decryptBit(gateAnd(server, a, b)));
    std::printf("   XOR(1,0)  = %d   (expect 1)\n",
                client.decryptBit(gateXor(server, a, b)));
    auto m = gateMux(server, a, b, client.encryptBit(true));
    std::printf("   MUX(1,0,1) = %d  (expect 0: selects b)\n",
                client.decryptBit(m));

    std::printf("-- 4. programmable bootstrapping: f(x) = x^2 mod 8 "
                "on an encrypted x\n");
    const uint64_t space = 8;
    for (int64_t x : {2, 3, 5}) {
        auto ct = client.encryptInt(x, space);
        auto ct2 = server.applyLut(
            ct, space, [](int64_t v) { return (v * v) % 8; });
        std::printf("   x = %lld -> f(x) = %lld (expect %lld)\n",
                    static_cast<long long>(x),
                    static_cast<long long>(client.decryptInt(ct2, space)),
                    static_cast<long long>((x * x) % 8));
    }

    std::printf("-- 5. the same ops on the Strix accelerator model\n");
    StrixAccelerator strix;
    PbsPerf perf = strix.evaluatePbs(paramsSetI());
    std::printf("   PBS latency   : %.3f ms\n", perf.latency_ms);
    std::printf("   PBS throughput: %.0f PBS/s (device batch %u = "
                "%u cores x %u LWE/core)\n",
                perf.throughput_pbs_s, perf.device_batch,
                strix.config().tvlp, perf.core_batch);
    std::printf("done.\n");
    return 0;
}
