/**
 * @file
 * Keyswitching tests: dimension conversion, message preservation, and
 * composition with sample extraction.
 */

#include <gtest/gtest.h>

#include "tfhe/glwe.h"
#include "tfhe/keyswitch.h"
#include "tfhe/params.h"

namespace strix {
namespace {

TEST(KeySwitch, PreservesMessageZeroNoise)
{
    Rng rng(1);
    TfheParams p = testParams(32, 128, 1, 3, 8, 0.0);
    LweKey from(256, rng);
    LweKey to(p.n, rng);
    p.l_ksk = 16;
    p.ks_base_bits = 2;
    KeySwitchKey ksk =
        KeySwitchKey::generateSeeded(from, to, p, rng.next64(), rng);

    const uint64_t space = 16;
    for (int64_t m = 0; m < 16; ++m) {
        auto ct = lweEncrypt(from, encodeMessage(m, space), 0.0, rng);
        auto out = keySwitch(ct, ksk);
        ASSERT_EQ(out.dim(), p.n);
        EXPECT_EQ(lweDecrypt(to, out, space), m) << "m=" << m;
    }
}

TEST(KeySwitch, DecompositionDepthControlsError)
{
    // Shallower keyswitch decomposition leaves a larger rounding
    // error; both must still decode at p=4, and the deep one must be
    // strictly more accurate on average.
    Rng rng(2);
    LweKey from(512, rng);
    LweKey to(64, rng);

    auto run = [&](uint32_t levels) {
        TfheParams p = testParams(64, 128);
        p.l_ksk = levels;
        p.ks_base_bits = 2;
        KeySwitchKey ksk =
            KeySwitchKey::generateSeeded(from, to, p, rng.next64(), rng);
        int64_t worst = 0;
        for (int trial = 0; trial < 20; ++trial) {
            Torus32 mu = encodeMessage(
                static_cast<int64_t>(rng.uniformBelow(4)), 4);
            auto ct = lweEncrypt(from, mu, 0.0, rng);
            auto out = keySwitch(ct, ksk);
            worst = std::max(
                worst, std::abs(static_cast<int64_t>(
                           torusDistance(lwePhase(to, out), mu))));
        }
        return worst;
    };

    int64_t err_shallow = run(4);
    int64_t err_deep = run(14);
    EXPECT_LT(err_deep, err_shallow);
    EXPECT_LT(err_shallow, int64_t{1} << 29); // still decodable at p=4
}

TEST(KeySwitch, ComposesWithSampleExtract)
{
    // GLWE encrypt -> sample extract -> keyswitch back to small key.
    Rng rng(3);
    TfheParams p = testParams(48, 64, 2, 3, 8, 0.0);
    p.l_ksk = 16;
    p.ks_base_bits = 2;
    GlweKey glwe_key(p.k, p.N, rng);
    LweKey small(p.n, rng);
    LweKey extracted = glwe_key.extractedLweKey();
    KeySwitchKey ksk =
        KeySwitchKey::generateSeeded(extracted, small, p, rng.next64(), rng);

    TorusPolynomial mu(p.N);
    const uint64_t space = 8;
    for (size_t i = 0; i < p.N; ++i)
        mu[i] = encodeMessage(static_cast<int64_t>(i % space), space);
    auto glwe_ct = glweEncrypt(glwe_key, mu, 0.0, rng);

    for (size_t idx : {size_t{0}, size_t{5}, size_t{63}}) {
        auto big = sampleExtract(glwe_ct, idx);
        auto out = keySwitch(big, ksk);
        EXPECT_EQ(lweDecrypt(small, out, space),
                  static_cast<int64_t>(idx % space))
            << "idx=" << idx;
    }
}

TEST(KeySwitch, HomomorphicAdditionSurvivesSwitch)
{
    Rng rng(4);
    TfheParams p = testParams(64, 128);
    p.l_ksk = 16;
    p.ks_base_bits = 2;
    LweKey from(256, rng);
    LweKey to(64, rng);
    KeySwitchKey ksk =
        KeySwitchKey::generateSeeded(from, to, p, rng.next64(), rng);

    auto c1 = lweEncrypt(from, encodeMessage(3, 16), 0.0, rng);
    auto c2 = lweEncrypt(from, encodeMessage(6, 16), 0.0, rng);
    c1.addAssign(c2);
    auto out = keySwitch(c1, ksk);
    EXPECT_EQ(lweDecrypt(to, out, 16), 9);
}

TEST(KeySwitch, RowLayout)
{
    Rng rng(5);
    TfheParams p = testParams(16, 64);
    p.l_ksk = 3;
    LweKey from(8, rng);
    LweKey to(16, rng);
    KeySwitchKey ksk =
        KeySwitchKey::generateSeeded(from, to, p, rng.next64(), rng);
    EXPECT_EQ(ksk.inDim(), 8u);
    EXPECT_EQ(ksk.outDim(), 16u);
    EXPECT_EQ(ksk.row(0, 0).dim(), 16u);
}

} // namespace
} // namespace strix
