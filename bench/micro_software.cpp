/**
 * @file
 * Google-benchmark microbenchmarks of the software TFHE substrate:
 * transforms, multipliers, decomposition, external product, PBS,
 * keyswitch, and gates. These are the measured counterparts of the
 * CPU baseline's cost model.
 *
 * `--json <file>` (or `--json=<file>`) writes the results as Google
 * Benchmark's JSON to <file>; CI's bench job uploads that file in the
 * `bench-results` artifact. The BM_FftForward/<kernel>,
 * BM_NegacyclicForwardBatchKernel/<kernel>,
 * BM_NegacyclicInverseKernel/<kernel> and BM_BinaryKeyProduct/<kernel>
 * rows run the scalar and AVX2
 * kernel tables explicitly, so one run records the dispatch speedup;
 * every other row uses whatever activeKernels()
 * selected (see the `fft_kernel` context key, and STRIX_FORCE_SCALAR
 * to pin it).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "bench_flags.h"
#include "poly/negacyclic_fft.h"
#include "poly/simd.h"
#include "tfhe/client_keyset.h"
#include "tfhe/gates.h"
#include "tfhe/serialize.h"
#include "workloads/circuit.h"
#include "workloads/circuit_analysis.h"

using namespace strix;

namespace {

/** Shared set-I split keyset (keygen is expensive; build once). */
struct KeysI
{
    KeysI() : client(paramsSetI(), 77), server(client.evalKeys()) {}
    ClientKeyset client;
    ServerContext server;
};

KeysI &
keysI()
{
    static KeysI keys;
    return keys;
}

void
BM_ComplexFft(benchmark::State &state)
{
    const size_t m = state.range(0);
    const FftPlan &plan = FftPlan::get(m);
    std::vector<Cplx> data(m, Cplx(0.5, -0.25));
    for (auto _ : state) {
        plan.forward(data.data());
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(state.iterations() * m);
}
BENCHMARK(BM_ComplexFft)->Arg(512)->Arg(1024)->Arg(8192);

void
BM_NegacyclicForward(benchmark::State &state)
{
    const size_t n = state.range(0);
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(1);
    TorusPolynomial p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = rng.uniformTorus32();
    FreqPolynomial f;
    for (auto _ : state) {
        eng.forward(f, p);
        benchmark::DoNotOptimize(f.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NegacyclicForward)->Arg(1024)->Arg(2048)->Arg(16384);

void
BM_PolyMulNaive(benchmark::State &state)
{
    const size_t n = state.range(0);
    Rng rng(2);
    IntPolynomial a(n);
    TorusPolynomial b(n), r(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = int32_t(rng.uniformBelow(1024)) - 512;
        b[i] = rng.uniformTorus32();
    }
    for (auto _ : state) {
        negacyclicMulNaive(r, a, b);
        benchmark::DoNotOptimize(r.data());
    }
}
BENCHMARK(BM_PolyMulNaive)->Arg(256)->Arg(1024);

void
BM_PolyMulKaratsuba(benchmark::State &state)
{
    const size_t n = state.range(0);
    Rng rng(3);
    IntPolynomial a(n);
    TorusPolynomial b(n), r(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = int32_t(rng.uniformBelow(1024)) - 512;
        b[i] = rng.uniformTorus32();
    }
    for (auto _ : state) {
        negacyclicMulKaratsuba(r, a, b);
        benchmark::DoNotOptimize(r.data());
    }
}
BENCHMARK(BM_PolyMulKaratsuba)->Arg(256)->Arg(1024);

void
BM_PolyMulFft(benchmark::State &state)
{
    const size_t n = state.range(0);
    Rng rng(4);
    IntPolynomial a(n);
    TorusPolynomial b(n), r(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = int32_t(rng.uniformBelow(1024)) - 512;
        b[i] = rng.uniformTorus32();
    }
    for (auto _ : state) {
        negacyclicMulFft(r, a, b);
        benchmark::DoNotOptimize(r.data());
    }
}
BENCHMARK(BM_PolyMulFft)->Arg(256)->Arg(1024)->Arg(16384);

void
BM_GadgetDecomposePoly(benchmark::State &state)
{
    const size_t n = state.range(0);
    GadgetParams g{10, 2};
    Rng rng(5);
    TorusPolynomial p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = rng.uniformTorus32();
    std::vector<IntPolynomial> out;
    for (auto _ : state) {
        gadgetDecomposePoly(out, p, g);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GadgetDecomposePoly)->Arg(1024)->Arg(16384);

/**
 * One streaming FFT external product (decompose, one forwardBatch
 * sweep over every digit, one fused mulAccumulateColumns, an in-place
 * inverseBitReversed per column) with a persistent scratch, as each
 * blind-rotation iteration runs it.
 */
void
BM_ExternalProductFft(benchmark::State &state)
{
    Rng rng(6);
    const uint32_t n = 1024, k = 1;
    GlweKey key(k, n, rng);
    GadgetParams g{10, 2};
    GgswFft ggsw(ggswEncrypt(key, 1, g, 0.0, rng));
    TorusPolynomial mu(n);
    GlweCiphertext ct = glweEncrypt(key, mu, 0.0, rng);
    GlweCiphertext out;
    PbsScratch scratch;
    for (auto _ : state) {
        ggsw.externalProduct(out, ct, scratch);
        benchmark::DoNotOptimize(&out);
    }
    state.SetLabel("streaming FFT external product");
}
BENCHMARK(BM_ExternalProductFft);

void
BM_ProgrammableBootstrap(benchmark::State &state)
{
    auto &keys = keysI();
    auto ct = keys.client.encryptInt(2, 4);
    TorusPolynomial tv = makeIntTestVector(keys.server.params().N, 4,
                                           [](int64_t x) { return x; });
    for (auto _ : state) {
        auto out = programmableBootstrap(ct, tv, keys.server.bsk());
        benchmark::DoNotOptimize(&out);
    }
    state.SetLabel("parameter set I");
}
BENCHMARK(BM_ProgrammableBootstrap)->Unit(benchmark::kMillisecond)
    ->MinTime(2.0);

void
BM_KeySwitch(benchmark::State &state)
{
    auto &keys = keysI();
    auto ct = keys.client.encryptInt(2, 4);
    TorusPolynomial tv = makeIntTestVector(keys.server.params().N, 4,
                                           [](int64_t x) { return x; });
    auto big = programmableBootstrap(ct, tv, keys.server.bsk());
    for (auto _ : state) {
        auto out = keySwitch(big, keys.server.ksk());
        benchmark::DoNotOptimize(&out);
    }
}
BENCHMARK(BM_KeySwitch)->Unit(benchmark::kMillisecond);

void
BM_GateNand(benchmark::State &state)
{
    auto &keys = keysI();
    auto a = keys.client.encryptBit(true);
    auto b = keys.client.encryptBit(false);
    for (auto _ : state) {
        auto out = gateNand(keys.server, a, b);
        benchmark::DoNotOptimize(&out);
    }
    state.SetLabel("bootstrapped NAND, set I");
}
BENCHMARK(BM_GateNand)->Unit(benchmark::kMillisecond)->MinTime(2.0);

/**
 * Forward FFT through an explicit kernel table: the A/B pair CI
 * records so the dispatch speedup is measured, not asserted (expected
 * well above 2x on AVX2 hosts -- the baseline capture shows 5-9x --
 * but the bench job never gates a merge; shared runners are noisy).
 */
void
BM_FftForwardKernel(benchmark::State &state, const PolyKernels *kernels,
                    size_t m)
{
    const FftPlan &plan = FftPlan::get(m);
    std::vector<Cplx> data(m, Cplx(0.5, -0.25));
    for (auto _ : state) {
        plan.forward(data.data(), *kernels);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(m));
}

/**
 * Batched forward FFT through an explicit kernel table. Reported
 * per-transform (items = batch members), so the row is directly
 * comparable against BM_FftForward at the same m: the gap is the
 * twiddle-amortization win of the stage-major batch sweep.
 */
void
BM_FftForwardBatchKernel(benchmark::State &state,
                         const PolyKernels *kernels, size_t m,
                         size_t batch)
{
    const FftPlan &plan = FftPlan::get(m);
    std::vector<Cplx> data(m * batch, Cplx(0.5, -0.25));
    for (auto _ : state) {
        plan.forwardBatch(data.data(), batch, *kernels);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(m) *
                            int64_t(batch));
}

/**
 * The negacyclic forward entry (fold+twist and every stage) through an
 * explicit kernel table, over a batch of 4 digit rows: the external
 * product's forward transform at ring dimension @p n. Reported per
 * transform, so scalar and AVX2 rows compare directly.
 */
void
BM_NegacyclicForwardBatchKernel(benchmark::State &state,
                                const PolyKernels *kernels, size_t n)
{
    constexpr size_t kBatch = 4;
    const NegacyclicFft &eng = NegacyclicFft::get(n);
    std::vector<int32_t> coeffs(n * kBatch);
    for (size_t i = 0; i < coeffs.size(); ++i)
        coeffs[i] = static_cast<int32_t>(i % 1024) - 512;
    std::vector<Cplx> out(n / 2 * kBatch);
    for (auto _ : state) {
        eng.forwardBatch(out.data(), coeffs.data(), kBatch, *kernels);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * int64_t(kBatch));
}

/**
 * The negacyclic inverse entry (every stage, then untwist+round)
 * through an explicit kernel table, on one bit-reversed spectrum of
 * ring dimension @p n: one output column of the external product.
 */
void
BM_NegacyclicInverseKernel(benchmark::State &state,
                           const PolyKernels *kernels, size_t n)
{
    const NegacyclicFft &eng = NegacyclicFft::get(n);
    std::vector<Cplx> spectrum(n / 2);
    for (size_t i = 0; i < spectrum.size(); ++i)
        spectrum[i] = Cplx(double(i % 97) * 1e9, -double(i % 89) * 1e9);
    std::vector<Cplx> work(spectrum.size());
    TorusPolynomial out(n);
    for (auto _ : state) {
        // The entry transforms in place, so each call starts from a
        // fresh copy of the spectrum; the copy is timed with it.
        std::copy(spectrum.begin(), spectrum.end(), work.begin());
        eng.inverseBitReversed(out, work.data(), *kernels);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * The small-but-real PBS shape the unit tests bootstrap with
 * (n=48, N=512, k=1, l=3), for rows whose cost at the paper sets
 * would run for minutes.
 */
const TfheParams &
smallBenchParams()
{
    static const TfheParams p = testParams(48, 512, 1, 3, 8, 0.0);
    return p;
}

/**
 * Full keygen from scratch, a fresh seed each iteration so nothing
 * ages into warmth: the setup cost a session pays unless its owner
 * builds the keyset once and shares it.
 */
void
BM_KeygenCold(benchmark::State &state)
{
    uint64_t seed = 0x5eed;
    for (auto _ : state) {
        ClientKeyset keyset(smallBenchParams(), seed++);
        benchmark::DoNotOptimize(&keyset);
    }
    state.SetLabel("full keygen, n=48 N=512");
}
BENCHMARK(BM_KeygenCold)->Unit(benchmark::kMillisecond);

/**
 * Keygen at paper set I, a fresh seed each iteration: 2000 GLWE rows
 * of binary-key products and forward transforms for the BSK, 8192 LWE
 * rows for the KSK, split over a pool of STRIX_THREADS lanes.
 */
void
BM_KeygenSetI(benchmark::State &state)
{
    uint64_t seed = 0x5eed;
    for (auto _ : state) {
        ClientKeyset keyset(paramsSetI(), seed++);
        benchmark::DoNotOptimize(&keyset);
    }
    state.SetLabel("full keygen, parameter set I");
}
BENCHMARK(BM_KeygenSetI)->Unit(benchmark::kMillisecond);

/**
 * Naive-vs-planned circuit evaluation A/B on the 8-bit ripple-carry
 * adder: the naive row bootstraps all 37 gates sequentially; the
 * planned row runs the CircuitAnalyzer plan (majority fusion + XOR
 * elision + per-level bootstrapBatch sweeps). Both rows carry their
 * PBS count as a counter so the CI summary can print the elision
 * ratio next to the wall-time speedup. Same small-but-real PBS shape
 * as BM_KeygenCold; the plan itself is parameter-checked at set I in
 * test_circuit_analysis.
 */
struct CircuitBench
{
    CircuitBench()
        : client(smallBenchParams(), 0xC13C),
          server(client.evalKeys()), circuit(buildAdder(8)),
          plan(analyzeCircuit(circuit, smallBenchParams()))
    {
        for (uint32_t i = 0; i < circuit.numInputs(); ++i)
            inputs.push_back(client.encryptBit((i & 1) != 0));
    }
    ClientKeyset client;
    ServerContext server;
    Circuit circuit;
    CircuitPlan plan;
    std::vector<LweCiphertext> inputs;
};

CircuitBench &
circuitBench()
{
    static CircuitBench bench;
    return bench;
}

void
BM_CircuitNaive(benchmark::State &state)
{
    auto &b = circuitBench();
    for (auto _ : state) {
        auto out = b.circuit.evalEncrypted(b.server, b.inputs);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["pbs"] = double(b.circuit.pbsCount());
    state.SetLabel("adder8, every gate bootstrapped");
}
BENCHMARK(BM_CircuitNaive)->Unit(benchmark::kMillisecond);

void
BM_CircuitPlanned(benchmark::State &state)
{
    auto &b = circuitBench();
    for (auto _ : state) {
        auto out = b.circuit.evalEncrypted(b.server, b.inputs, b.plan);
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["pbs"] = double(b.plan.pbsCount());
    state.counters["pbs_elided"] = double(b.plan.elidedPbs());
    state.SetLabel(b.plan.summary());
}
BENCHMARK(BM_CircuitPlanned)->Unit(benchmark::kMillisecond);

/** Counting sink: serialization cost without buffer-growth noise. */
class CountingBuf : public std::streambuf
{
  public:
    uint64_t count() const { return count_; }

  protected:
    int overflow(int ch) override
    {
        ++count_;
        return ch;
    }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        count_ += uint64_t(n);
        return n;
    }

  private:
    uint64_t count_ = 0;
};

/**
 * EvalKeys frame writer (seeded EVK2): the recorded byte counter is
 * the wire-size claim (~1/(k+1) of the BSK + 1/(n+1) of the KSK;
 * ~1/3 of the resident key at set I), the time the serialization
 * cost at paper set I.
 */
void
BM_EvalKeysSerialize(benchmark::State &state, EvalKeysFormat format)
{
    auto &keys = keysI();
    uint64_t bytes = 0;
    for (auto _ : state) {
        CountingBuf sink;
        std::ostream os(&sink);
        serialize(os, *keys.client.evalKeys(), format);
        bytes = sink.count();
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["frame_bytes"] =
        benchmark::Counter(double(bytes));
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(bytes));
    state.SetLabel("parameter set I");
}
BENCHMARK_CAPTURE(BM_EvalKeysSerialize, v2, EvalKeysFormat::Seeded)
    ->Unit(benchmark::kMillisecond);

/**
 * Server-side cost of standing up keys from a seeded frame: parse +
 * mask re-expansion (PRNG) + per-row forward FFTs. The price paid
 * once per key delivery for shipping a third of the bytes.
 */
void
BM_SeededExpand(benchmark::State &state)
{
    auto &keys = keysI();
    std::stringstream wire;
    serialize(wire, *keys.client.evalKeys(), EvalKeysFormat::Seeded);
    const std::string frame = wire.str();
    for (auto _ : state) {
        std::istringstream is(frame);
        auto bundle = deserializeEvalKeys(is);
        benchmark::DoNotOptimize(bundle.get());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(frame.size()));
    state.SetLabel("EVK2 -> EvalKeys, set I");
}
BENCHMARK(BM_SeededExpand)->Unit(benchmark::kMillisecond);

/**
 * One exact key product of GLWE encryption at ring dimension @p n: a
 * binary key times a uniform mask, through one table's
 * binaryKeyProduct. Compare with BM_PolyMulKaratsuba, the general
 * exact product it replaced there.
 */
void
BM_BinaryKeyProductKernel(benchmark::State &state, const PolyKernels *kernels,
                          size_t n)
{
    Rng rng(5);
    IntPolynomial key(n);
    TorusPolynomial mask(n), out(n);
    for (size_t i = 0; i < n; ++i) {
        key[i] = rng.uniformBit();
        mask[i] = rng.uniformTorus32();
    }
    std::vector<uint32_t> work(3 * n);
    for (auto _ : state) {
        kernels->binaryKeyProduct(out.data(), key.data(), mask.data(),
                                  work.data(), n);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
}

void
registerKernelBenchmarks()
{
    struct Entry {
        const char *name;
        const PolyKernels *kernels;
    };
    std::vector<Entry> tables{{"scalar", &scalarKernels()}};
    if (const PolyKernels *avx2 = avx2Kernels())
        tables.push_back({"avx2", avx2});
    for (const Entry &e : tables)
        for (size_t m : {size_t{512}, size_t{1024}, size_t{8192}}) {
            std::string name =
                std::string("BM_FftForward/") + e.name + "/" +
                std::to_string(m);
            benchmark::RegisterBenchmark(
                name.c_str(),
                [kernels = e.kernels, m](benchmark::State &st) {
                    BM_FftForwardKernel(st, kernels, m);
                });
            // Batch 4 = the (k+1)*l digit count of sets I/II; batch 8
            // covers the larger gadget shapes.
            for (size_t batch : {size_t{4}, size_t{8}}) {
                std::string bname =
                    std::string("BM_FftForwardBatch/") + e.name + "/" +
                    std::to_string(m) + "/" + std::to_string(batch);
                benchmark::RegisterBenchmark(
                    bname.c_str(),
                    [kernels = e.kernels, m,
                     batch](benchmark::State &st) {
                        BM_FftForwardBatchKernel(st, kernels, m, batch);
                    });
            }
        }
    for (const Entry &e : tables)
        benchmark::RegisterBenchmark(
            (std::string("BM_BinaryKeyProduct/") + e.name + "/1024").c_str(),
            [kernels = e.kernels](benchmark::State &st) {
                BM_BinaryKeyProductKernel(st, kernels, 1024);
            });
    for (const Entry &e : tables)
        for (size_t n : {size_t{1024}, size_t{2048}, size_t{16384}}) {
            const std::string tail =
                std::string("/") + e.name + "/" + std::to_string(n);
            benchmark::RegisterBenchmark(
                ("BM_NegacyclicForwardBatchKernel" + tail).c_str(),
                [kernels = e.kernels, n](benchmark::State &st) {
                    BM_NegacyclicForwardBatchKernel(st, kernels, n);
                });
            benchmark::RegisterBenchmark(
                ("BM_NegacyclicInverseKernel" + tail).c_str(),
                [kernels = e.kernels, n](benchmark::State &st) {
                    BM_NegacyclicInverseKernel(st, kernels, n);
                });
        }
}

} // namespace

int
main(int argc, char **argv)
{
    // Translate our stable `--json <file>` flag into Google
    // Benchmark's out/out_format pair; everything else passes through
    // (e.g. --benchmark_filter).
    std::vector<std::string> args;
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        if (!matchJsonFlag(argc, argv, i, json_path))
            args.emplace_back(argv[i]);
    }
    if (!json_path.empty()) {
        args.push_back("--benchmark_out=" + json_path);
        args.push_back("--benchmark_out_format=json");
    }
    std::vector<char *> cargv{argv[0]};
    for (std::string &s : args)
        cargv.push_back(s.data());
    int cargc = static_cast<int>(cargv.size());

    registerKernelBenchmarks();
    benchmark::Initialize(&cargc, cargv.data());
    if (benchmark::ReportUnrecognizedArguments(cargc, cargv.data()))
        return 1;
    // Recorded into the JSON context so the artifact says which
    // backend the non-A/B rows ran on.
    benchmark::AddCustomContext("fft_kernel", activeKernels().name);
    benchmark::AddCustomContext("avx2_available",
                                avx2Kernels() ? "yes" : "no");
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
