/**
 * @file
 * Encrypted neural-network inference, end to end.
 *
 * Part 1 runs a small real encrypted multilayer perceptron on the
 * software TFHE library: 4 encrypted inputs -> 3 hidden neurons with
 * PBS ReLU -> 2 output scores, verified against the cleartext
 * network.
 *
 * Part 2 loads the paper's Zama Deep-NN benchmark graphs (NN-20/50/
 * 100) and schedules them on the Strix simulator, printing per-layer
 * epoch counts and the CPU/GPU/Strix comparison of Fig. 7.
 */

#include <cstdio>
#include <vector>

#include "baselines/cpu_model.h"
#include "baselines/gpu_model.h"
#include "strix/accelerator.h"
#include "tfhe/client_keyset.h"
#include "tfhe/server_context.h"
#include "workloads/deepnn.h"

using namespace strix;

namespace {

/** Cleartext reference MLP with small signed integer weights. */
struct TinyMlp
{
    // 3 hidden neurons x 4 inputs, then 2 outputs x 3 hidden.
    int w1[3][4] = {{1, -1, 1, 0}, {0, 1, -1, 1}, {1, 1, 0, -1}};
    int w2[2][3] = {{1, -1, 1}, {-1, 1, 1}};

    static int64_t relu(int64_t v) { return v > 0 ? v : 0; }
};

/**
 * Homomorphic linear layer: out_j = sum_i w[j][i] * in_i. Weights are
 * plaintext (model is public, data is encrypted), so this is LWE
 * scalar arithmetic -- no bootstrapping needed.
 */
LweCiphertext
linearCombo(const std::vector<LweCiphertext> &in, const int *w,
            size_t n, uint32_t dim, uint64_t space)
{
    // Sum of centered encodings of x_i with weights w_i encodes
    // sum w_i x_i + (sum w_i - 1)/2 half-steps; recenter accordingly.
    LweCiphertext acc(dim);
    int weight_sum = 0;
    for (size_t i = 0; i < n; ++i) {
        if (w[i] == 0)
            continue;
        LweCiphertext scaled = in[i];
        scaled.scalarMulAssign(w[i]);
        acc.addAssign(scaled);
        weight_sum += w[i];
    }
    // Each centered encoding carries +1/(4p); after weighting, the
    // total offset is weight_sum/(4p); restore exactly one.
    Torus32 correction = encodeMessage(1, 4 * space) *
                         static_cast<uint32_t>(weight_sum - 1);
    LweCiphertext fix = LweCiphertext::trivial(dim, 0u - correction);
    acc.addAssign(fix);
    return acc;
}

} // namespace

int
main()
{
    // ---------------------------------------------------------------
    // Part 1: a real encrypted MLP on the software library.
    // ---------------------------------------------------------------
    std::printf("== Part 1: encrypted 4-3-2 MLP on software TFHE ==\n");
    // Signed values in [-8, 8) via two's wrap. Set I's modulus-switch
    // rounding noise (~0.003 of the torus at n=500, N=1024) needs the
    // 1/(4*space) bucket margin to stay several sigma wide: space=16
    // gives ~5 sigma, space=32 would fail ~1% of bootstraps.
    const uint64_t space = 16;
    ClientKeyset client(paramsSetI(), 555);
    ServerContext server(client.evalKeys());
    TinyMlp mlp;

    const int64_t inputs[4] = {3, 1, 2, 4};

    // Cleartext reference.
    int64_t hidden_ref[3], out_ref[2];
    for (int j = 0; j < 3; ++j) {
        int64_t acc = 0;
        for (int i = 0; i < 4; ++i)
            acc += mlp.w1[j][i] * inputs[i];
        hidden_ref[j] = TinyMlp::relu(acc);
    }
    for (int j = 0; j < 2; ++j) {
        int64_t acc = 0;
        for (int i = 0; i < 3; ++i)
            acc += mlp.w2[j][i] * hidden_ref[i];
        out_ref[j] = acc;
    }

    // Encrypted evaluation.
    std::vector<LweCiphertext> enc_in;
    for (int64_t v : inputs)
        enc_in.push_back(client.encryptInt(v, space));

    // All three hidden neurons share the ReLU LUT, so the layer is one
    // bootstrapBatch call: the linear parts are computed first, then
    // every PBS in the layer runs as a single batch on the context's
    // lanes -- the software shape of Strix's ciphertext batching.
    std::vector<LweCiphertext> hidden_lin;
    for (int j = 0; j < 3; ++j)
        hidden_lin.push_back(
            linearCombo(enc_in, mlp.w1[j], 4, server.params().n, space));
    // PBS ReLU over centered small signed values: inputs in
    // [0, space) with the upper half representing negatives.
    std::vector<LweCiphertext> enc_hidden =
        server.applyLutBatch(hidden_lin, space, [&](int64_t v) {
            int64_t centered =
                v < int64_t(space) / 2 ? v : v - int64_t(space);
            return TinyMlp::relu(centered);
        });

    bool ok = true;
    std::printf("  hidden (after PBS ReLU): ");
    for (int j = 0; j < 3; ++j) {
        int64_t got = client.decryptInt(enc_hidden[j], space);
        std::printf("%lld(%lld) ", static_cast<long long>(got),
                    static_cast<long long>(hidden_ref[j]));
        ok &= got == hidden_ref[j];
    }
    std::printf("\n  outputs (linear only)  : ");
    for (int j = 0; j < 2; ++j) {
        auto lin = linearCombo(enc_hidden, mlp.w2[j], 3,
                               server.params().n, space);
        int64_t got = client.decryptInt(lin, space);
        int64_t want = (out_ref[j] % int64_t(space) + space) %
                       int64_t(space);
        std::printf("%lld(%lld) ", static_cast<long long>(got),
                    static_cast<long long>(want));
        ok &= got == want;
    }
    std::printf("\n  => %s\n\n",
                ok ? "matches cleartext network"
                   : "MISMATCH vs cleartext network");

    // ---------------------------------------------------------------
    // Part 2: the paper's Deep-NN graphs on the accelerator model.
    // ---------------------------------------------------------------
    std::printf("== Part 2: Zama Deep-NN on the Strix simulator ==\n");
    StrixAccelerator strix;
    CpuModel cpu;
    GpuModel gpu;
    const TfheParams &p = deepNnParams(1024);

    WorkloadGraph g = buildDeepNn(20);
    std::printf("NN-20 (N=1024): %llu PBS total\n",
                static_cast<unsigned long long>(g.totalPbs()));
    std::printf("  %-16s %8s %8s\n", "layer", "#PBS", "epochs");
    for (const auto &layer : g.layers()) {
        BatchPerf lp = strix.runBatch(p, layer.pbs_count);
        std::printf("  %-16s %8llu %8llu\n", layer.name.c_str(),
                    static_cast<unsigned long long>(layer.pbs_count),
                    static_cast<unsigned long long>(lp.epochs));
    }

    for (uint32_t depth : {20u, 50u, 100u}) {
        WorkloadGraph nn = buildDeepNn(depth);
        double s = strix.runGraph(p, nn).seconds * 1e3;
        double c = cpu.runGraphSeconds(p, nn) * 1e3;
        double gm = gpu.runGraphSeconds(p, nn) * 1e3;
        std::printf("NN-%-3u  CPU %8.0f ms   GPU %8.0f ms   Strix "
                    "%6.0f ms   (%.0fx / %.0fx)\n",
                    depth, c, gm, s, c / s, gm / s);
    }
    return ok ? 0 : 1;
}
