/**
 * @file
 * Programmable bootstrapping tests: modulus switching, blind rotation
 * as exact negacyclic rotation (zero noise), LUT evaluation, and a
 * full-parameter noisy bootstrap.
 */

#include <gtest/gtest.h>

#include "tfhe/bootstrap.h"
#include "tfhe/server_context.h"
#include "support/test_util.h"

namespace strix {
namespace {

TEST(ModSwitch, RoundsToGrid)
{
    const uint32_t n = 1024; // 2N = 2048 grid
    EXPECT_EQ(modulusSwitch(0, n), 0u);
    // 2^32 / 2048 = 2^21 per step; half a step rounds up.
    EXPECT_EQ(modulusSwitch(1u << 21, n), 1u);
    EXPECT_EQ(modulusSwitch((1u << 20) - 1, n), 0u);
    EXPECT_EQ(modulusSwitch(1u << 20, n), 1u);
    // Wrap: values near 2^32 round to 0 (mod 2N).
    EXPECT_EQ(modulusSwitch(0xFFFFFFFFu, n), 0u);
    EXPECT_EQ(modulusSwitch(0x80000000u, n), 1024u);
}

TEST(ModSwitch, PreservesEncodingProportion)
{
    // mu = m/16 should land at m * 2N/16.
    const uint32_t n = 512;
    for (int64_t m = 0; m < 16; ++m) {
        EXPECT_EQ(modulusSwitch(encodeMessage(m, 16), n),
                  static_cast<uint32_t>(m) * (2 * n / 16));
    }
}

TEST(ModSwitch, PrecomputedHelperMatchesOneShot)
{
    // The hoisted ModSwitch (one instance per blind rotation) and the
    // one-shot helper must agree everywhere.
    Rng rng(404);
    for (uint32_t n : {4u, 64u, 1024u, 16384u, 1u << 30}) {
        const ModSwitch ms(n);
        for (int i = 0; i < 200; ++i) {
            Torus32 a = rng.uniformTorus32();
            EXPECT_EQ(ms(a), modulusSwitch(a, n)) << "n=" << n;
        }
        // Boundary values.
        EXPECT_EQ(ms(0), modulusSwitch(0, n));
        EXPECT_EQ(ms(0xFFFFFFFFu), modulusSwitch(0xFFFFFFFFu, n));
    }
}

TEST(ModSwitch, HalfTorusRingDimIsIdentity)
{
    // big_n = 2^31 makes 2N = 2^32: the target grid is the torus
    // itself, so the switch is the identity (no rounding bias). The
    // old implementation shifted by -1 here (undefined behavior).
    const uint32_t n = 1u << 31;
    EXPECT_EQ(modulusSwitch(0, n), 0u);
    EXPECT_EQ(modulusSwitch(1, n), 1u);
    EXPECT_EQ(modulusSwitch(123456789u, n), 123456789u);
    EXPECT_EQ(modulusSwitch(0x80000000u, n), 0x80000000u);
    EXPECT_EQ(modulusSwitch(0xFFFFFFFFu, n), 0xFFFFFFFFu);
}

TEST(ModSwitch, RoundsHalfUpAtEveryGridBoundary)
{
    // For 2N = 32, step = 2^27: a = step*g + step/2 rounds up to g+1,
    // one less rounds down to g; the top cell wraps to 0.
    const uint32_t n = 16;
    const uint32_t step = 1u << 27;
    for (uint32_t g = 0; g < 32; ++g) {
        EXPECT_EQ(modulusSwitch(step * g + step / 2, n), (g + 1) % 32);
        EXPECT_EQ(modulusSwitch(step * g + step / 2 - 1, n), g);
    }
}

TEST(ModSwitchDeathTest, PanicsOnNonPowerOfTwoRingDim)
{
    // The old log2 loop never terminated on these; now they are a
    // loud invariant violation before any looping.
    EXPECT_DEATH(modulusSwitch(0, 1000), "power of two");
    EXPECT_DEATH(modulusSwitch(0, 0), "power of two");
    EXPECT_DEATH(ModSwitch ms(3), "power of two");
}

TEST(ServerContextDeathTest, RejectsNullBundle)
{
    EXPECT_DEATH(ServerContext(nullptr),
                 "ServerContext: null EvalKeys bundle");
}

/**
 * Zero-noise fixture with tiny parameters: blind rotation must behave
 * as the exact negacyclic rotation by the phase.
 */
class BootstrapExact : public ::testing::Test
{
  protected:
    static constexpr uint32_t kN = 256; // ring dim
    static constexpr uint32_t kLweDim = 16;

    BootstrapExact()
        : params_(testParams(kLweDim, kN, 1, 3, 8, 0.0)),
          keys_(params_, test::kSeedBootstrap)
    {
    }

    TfheParams params_;
    test::TestKeys keys_;
    const ClientKeyset &client() { return keys_.client; }
    const ServerContext &server() { return keys_.server; }
};

TEST_F(BootstrapExact, LutIdentityFunction)
{
    const uint64_t p = 8;
    for (int64_t m = 0; m < static_cast<int64_t>(p); ++m) {
        auto ct = client().encryptInt(m, p);
        auto out = server().applyLut(ct, p, [](int64_t x) { return x; });
        EXPECT_EQ(client().decryptInt(out, p), m) << "m=" << m;
    }
}

TEST_F(BootstrapExact, LutSquareMod8)
{
    const uint64_t p = 8;
    for (int64_t m = 0; m < 8; ++m) {
        auto ct = client().encryptInt(m, p);
        auto out =
            server().applyLut(ct, p, [](int64_t x) { return (x * x) % 8; });
        EXPECT_EQ(client().decryptInt(out, p), (m * m) % 8) << "m=" << m;
    }
}

TEST_F(BootstrapExact, LutRelu)
{
    // ReLU over centered integers: values >= p/2 represent negatives.
    const uint64_t p = 16;
    auto relu = [](int64_t x) { return x < 8 ? x : 0; };
    for (int64_t m = 0; m < 16; ++m) {
        auto ct = client().encryptInt(m, p);
        auto out = server().applyLut(ct, p, relu);
        EXPECT_EQ(client().decryptInt(out, p), relu(m)) << "m=" << m;
    }
}

TEST_F(BootstrapExact, BootstrapRefreshesToIndependentNoise)
{
    // Even with zero fresh noise, the PBS output must decrypt to the
    // same message after an additive chain that would otherwise grow.
    const uint64_t p = 8;
    auto c1 = client().encryptInt(2, p);
    auto out = server().applyLut(c1, p, [](int64_t x) { return x; });
    // Output dimension must be back to n after keyswitch.
    EXPECT_EQ(out.dim(), params_.n);
}

TEST_F(BootstrapExact, PbsOutputDimensionIsExtracted)
{
    const uint64_t p = 8;
    auto ct = client().encryptInt(3, p);
    TorusPolynomial tv =
        makeIntTestVector(params_.N, p, [](int64_t x) { return x; });
    auto big = programmableBootstrap(ct, tv, server().bsk());
    EXPECT_EQ(big.dim(), params_.k * params_.N);
    LweKey extracted = client().glweKey().extractedLweKey();
    EXPECT_EQ(decodeLut(lwePhase(extracted, big), p), 3);
}

TEST_F(BootstrapExact, TestVectorWindowLayout)
{
    const uint64_t p = 8;
    TorusPolynomial tv =
        makeIntTestVector(kN, p, [](int64_t x) { return x; });
    // Coefficient j encodes floor(j*p/N).
    EXPECT_EQ(tv[0], encodeLut(0, p));
    EXPECT_EQ(tv[kN / 8], encodeLut(1, p));
    EXPECT_EQ(tv[kN - 1], encodeLut(7, p));
}

TEST(BootstrapNoise, FullParameterSetI)
{
    // End-to-end PBS at the paper's parameter set I with real noise.
    // Slow (key generation dominates); kept to a handful of messages.
    test::TestKeys keys(paramsSetI(), 7);
    const uint64_t p = 4;
    for (int64_t m = 0; m < 4; ++m) {
        auto ct = keys.client.encryptInt(m, p);
        auto out = keys.server.applyLut(
            ct, p, [](int64_t x) { return (x + 1) % 4; });
        EXPECT_EQ(keys.client.decryptInt(out, p), (m + 1) % 4)
            << "m=" << m;
    }
}

} // namespace
} // namespace strix
