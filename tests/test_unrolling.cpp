/**
 * @file
 * Bootstrapping-key unrolling tests: the test-side unrolled PBS
 * (support/pbs_oracles.h) against the regular PBS, its key-size
 * accounting, and the simulator-side trade-off it is the oracle for.
 */

#include <gtest/gtest.h>

#include "strix/accelerator.h"
#include "support/pbs_oracles.h"

namespace strix {
namespace {

using test::programmableBootstrapUnrolled;
using test::UnrolledBootstrappingKey;

/** Small exact setup with both key forms. */
struct UnrollFixture
{
    TfheParams params = testParams(17, 256, 1, 3, 8, 0.0); // odd n!
    Rng rng{909};
    LweKey lwe_key{params.n, rng};
    GlweKey glwe_key{params.k, params.N, rng};
    BootstrappingKey bsk = BootstrappingKey::generateSeeded(
        lwe_key, glwe_key, params, rng.next64(), rng);
    UnrolledBootstrappingKey ubsk =
        UnrolledBootstrappingKey::generate(lwe_key, glwe_key, params,
                                           rng);
};

TEST(Unrolling, PairCountCeilsOddDimensions)
{
    UnrollFixture f;
    EXPECT_EQ(f.ubsk.pairs(), 9u); // ceil(17/2)
}

TEST(Unrolling, KeyIsOneAndAHalfTimesLarger)
{
    UnrollFixture f;
    // 3 GGSW per 2 key bits vs 2 GGSW: 1.5x (plus odd-n padding).
    double ratio =
        double(f.ubsk.bytes()) / double(f.params.bskBytes());
    EXPECT_NEAR(ratio, 1.5, 0.15);
}

TEST(Unrolling, MatchesRegularBlindRotation)
{
    UnrollFixture f;
    const uint64_t space = 8;
    TorusPolynomial tv = makeIntTestVector(
        f.params.N, space, [](int64_t x) { return (x * 3 + 1) % 8; });

    for (int64_t m = 0; m < 8; ++m) {
        auto ct = lweEncrypt(f.lwe_key, encodeLut(m, space), 0.0, f.rng);
        auto regular = programmableBootstrap(ct, tv, f.bsk);
        auto unrolled = programmableBootstrapUnrolled(ct, tv, f.ubsk);
        LweKey extracted = f.glwe_key.extractedLweKey();
        EXPECT_EQ(decodeLut(lwePhase(extracted, regular), space),
                  decodeLut(lwePhase(extracted, unrolled), space))
            << "m=" << m;
        EXPECT_EQ(decodeLut(lwePhase(extracted, unrolled), space),
                  (m * 3 + 1) % 8)
            << "m=" << m;
    }
}

TEST(Unrolling, EvenDimensionAlsoWorks)
{
    TfheParams params = testParams(16, 256, 1, 3, 8, 0.0);
    Rng rng(910);
    LweKey lwe_key(params.n, rng);
    GlweKey glwe_key(params.k, params.N, rng);
    auto ubsk = UnrolledBootstrappingKey::generate(lwe_key, glwe_key,
                                                   params, rng);
    EXPECT_EQ(ubsk.pairs(), 8u);
    const uint64_t space = 4;
    TorusPolynomial tv = makeIntTestVector(
        params.N, space, [](int64_t x) { return x; });
    auto ct = lweEncrypt(lwe_key, encodeLut(2, space), 0.0, rng);
    auto out = programmableBootstrapUnrolled(ct, tv, ubsk);
    EXPECT_EQ(decodeLut(lwePhase(glwe_key.extractedLweKey(), out),
                        space),
              2);
}

TEST(Unrolling, ExplicitScratchMatchesThrowawayAcrossReuse)
{
    // The scratch-threaded unrolled PBS (hot loop allocation-free)
    // must be bit-identical to the throwaway-scratch overload, and a
    // scratch reused across calls -- including after serving the
    // regular PBS path -- must not leak state between them.
    UnrollFixture f;
    const uint64_t space = 8;
    TorusPolynomial tv = makeIntTestVector(
        f.params.N, space, [](int64_t x) { return (x * 5 + 2) % 8; });

    PbsScratch scratch;
    for (int64_t m : {0, 3, 7, 1}) {
        auto ct = lweEncrypt(f.lwe_key, encodeLut(m, space), 0.0, f.rng);
        auto with_scratch =
            programmableBootstrapUnrolled(ct, tv, f.ubsk, scratch);
        auto throwaway = programmableBootstrapUnrolled(ct, tv, f.ubsk);
        EXPECT_TRUE(with_scratch.raw() == throwaway.raw()) << "m=" << m;
        // Interleave a regular PBS through the same scratch.
        auto regular = programmableBootstrap(ct, tv, f.bsk, scratch);
        EXPECT_EQ(decodeLut(lwePhase(f.glwe_key.extractedLweKey(),
                                     regular),
                            space),
                  (m * 5 + 2) % 8)
            << "m=" << m;
    }
}

TEST(Unrolling, SimulatorHalvesIterationsTriplesWork)
{
    StrixConfig plain = StrixConfig::paperDefault();
    StrixConfig unroll = StrixConfig::paperDefault();
    unroll.key_unrolling = true;

    UnitTiming tp(plain, paramsSetI());
    UnitTiming tu(unroll, paramsSetI());
    EXPECT_EQ(tu.iterations(), 250u);
    EXPECT_EQ(tp.iterations(), 500u);
    EXPECT_EQ(tu.fftCycles(), 3 * tp.fftCycles());
    EXPECT_EQ(tu.productsPerIteration(), 3u);
}

TEST(Unrolling, ThroughputTradeoffAtFixedHardware)
{
    // At fixed hardware the unrolled schedule does 1.5x the FFT work
    // per bootstrap: throughput drops by 1.5x. (The latency win needs
    // 3x the FFT instances -- see the ablation bench.)
    StrixConfig unroll = StrixConfig::paperDefault();
    unroll.key_unrolling = true;
    PbsPerf base = StrixAccelerator().evaluatePbs(paramsSetI());
    PbsPerf u = StrixAccelerator(unroll).evaluatePbs(paramsSetI());
    EXPECT_NEAR(base.throughput_pbs_s / u.throughput_pbs_s, 1.5, 0.05);
}

TEST(Unrolling, LatencyWinsOnlyWithScaledDatapathAndBandwidth)
{
    // Unrolling triples both the per-iteration compute and the bsk
    // stream. With 3x-replicated datapaths but the baseline HBM the
    // key stream gates the iteration and the latency win evaporates;
    // adding bandwidth finally realizes it. This is why the paper
    // prefers batching over unrolling.
    PbsPerf base = StrixAccelerator().evaluatePbs(paramsSetI());

    StrixConfig wide = StrixConfig::paperDefault();
    wide.key_unrolling = true;
    wide.plp = 6;
    wide.colp = 6;
    PbsPerf starved = StrixAccelerator(wide).evaluatePbs(paramsSetI());
    EXPECT_GE(starved.latency_ms, base.latency_ms * 0.95);

    wide.hbm_gbps = 1200.0;
    PbsPerf fed = StrixAccelerator(wide).evaluatePbs(paramsSetI());
    EXPECT_LT(fed.latency_ms, base.latency_ms);
}

} // namespace
} // namespace strix
