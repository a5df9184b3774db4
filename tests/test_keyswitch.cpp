/**
 * @file
 * Keyswitching tests: dimension conversion, message preservation,
 * composition with sample extraction, and exactness of the row kernel
 * (PolyKernels::subScaledRow) the keyswitch runs on every table.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "poly/simd.h"
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

/** out[i] - digit * row[i] mod 2^32, one scalar at a time. */
std::vector<uint32_t>
naiveSubScaled(std::vector<uint32_t> out, const std::vector<uint32_t> &row,
               int32_t digit)
{
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<uint32_t>(
            out[i] - static_cast<uint32_t>(digit) * row[i]);
    return out;
}

TEST(KeySwitchRowKernel, EveryTableExactAcrossVectorTails)
{
    // Lengths 1-17 cover every tail of an 8-lane loop; 501 is set I's
    // n+1. Digits hit both balanced-gadget extremes -B/2 and B/2-1
    // for the set I (B = 4) and set II (B = 16) keyswitch bases, and
    // all-ones rows make every product wrap.
    std::vector<size_t> lengths;
    for (size_t len = 1; len <= 17; ++len)
        lengths.push_back(len);
    lengths.push_back(501);
    std::vector<std::pair<std::string, const PolyKernels *>> tables{
        {"scalar", &scalarKernels()}, {"active", &activeKernels()}};
    if (const PolyKernels *avx2 = avx2Kernels())
        tables.emplace_back("avx2", avx2);
    Rng rng(11);
    for (size_t len : lengths) {
        for (bool ones : {false, true}) {
            std::vector<uint32_t> row(len), start(len);
            for (size_t i = 0; i < len; ++i) {
                row[i] = ones ? 0xFFFFFFFFu : rng.uniformTorus32();
                start[i] = rng.uniformTorus32();
            }
            for (int32_t digit : {-2, 1, -8, 7, -1, 0}) {
                const std::vector<uint32_t> want =
                    naiveSubScaled(start, row, digit);
                for (const auto &[tag, kernels] : tables) {
                    std::vector<uint32_t> got = start;
                    kernels->subScaledRow(got.data(), row.data(),
                                          static_cast<uint32_t>(digit),
                                          len);
                    EXPECT_EQ(got, want) << tag << " len=" << len
                                         << " digit=" << digit
                                         << " ones=" << ones;
                }
            }
        }
    }
}

TEST(KeySwitch, MatchesNaivePerRowLoopAtSetIShape)
{
    // Set I: k*N = 1024 inputs, n = 500 outputs, 8 levels of base 4.
    const TfheParams &p = paramsSetI();
    Rng rng(12);
    LweKey from(p.k * p.N, rng);
    LweKey to(p.n, rng);
    KeySwitchKey ksk =
        KeySwitchKey::generateSeeded(from, to, p, rng.next64(), rng);

    LweCiphertext ct(p.k * p.N);
    for (uint32_t i = 0; i <= ct.dim(); ++i)
        ct.raw()[i] = rng.uniformTorus32();

    // Algorithm 2 written out: copy the body, then subtract
    // digit * row element by element for every digit of every mask
    // scalar (zero digits included).
    const GadgetParams &g = ksk.gadget();
    std::vector<uint32_t> want(p.n + 1, 0);
    want[p.n] = ct.b();
    std::vector<int32_t> digits(g.levels);
    for (uint32_t i = 0; i < ksk.inDim(); ++i) {
        gadgetDecompose(digits.data(), ct.a(i), g);
        for (uint32_t j = 0; j < g.levels; ++j)
            want = naiveSubScaled(want, ksk.row(i, j).raw(), digits[j]);
    }
    EXPECT_EQ(keySwitch(ct, ksk).raw(), want);
}

TEST(KeySwitch, RowOuterBatchMatchesPerCiphertext)
{
    // Set I's shape, batches of 1 to 5. The batch form applies each
    // KSK row to every ciphertext before reading the next row;
    // ciphertext 1 has an all-zero mask, so its digits are all zero
    // and it skips every row the others apply.
    const TfheParams &p = paramsSetI();
    Rng rng(21);
    LweKey from(p.k * p.N, rng);
    LweKey to(p.n, rng);
    KeySwitchKey ksk =
        KeySwitchKey::generateSeeded(from, to, p, rng.next64(), rng);
    std::vector<LweCiphertext> cts;
    for (size_t b = 0; b < 5; ++b) {
        LweCiphertext ct(p.k * p.N);
        for (uint32_t i = 0; i <= ct.dim(); ++i)
            ct.raw()[i] =
                b == 1 && i < ct.dim() ? 0u : rng.uniformTorus32();
        cts.push_back(std::move(ct));
    }
    for (size_t count = 1; count <= cts.size(); ++count) {
        std::vector<LweCiphertext> out(count);
        keySwitch(out.data(), cts.data(), count, ksk);
        for (size_t b = 0; b < count; ++b)
            EXPECT_EQ(out[b].raw(), keySwitch(cts[b], ksk).raw())
                << "count=" << count << " b=" << b;
    }
    // The zero-mask ciphertext switches to the trivial one.
    EXPECT_EQ(keySwitch(cts[1], ksk).raw(),
              LweCiphertext::trivial(p.n, cts[1].b()).raw());
}

TEST(KeySwitch, BlockPartialsMatchRowOuter)
{
    // A lane pair's keyswitch: one lane switches the first half of the
    // input coefficients onto the trivial body, the other the rest onto
    // zero, and the two partials summed (mod 2^32) equal keySwitch at
    // batches of 1 to 5, at every split point tried.
    const TfheParams &p = paramsSetI();
    Rng rng(22);
    LweKey from(p.k * p.N, rng);
    LweKey to(p.n, rng);
    KeySwitchKey ksk =
        KeySwitchKey::generateSeeded(from, to, p, rng.next64(), rng);
    std::vector<LweCiphertext> cts;
    for (size_t b = 0; b < 5; ++b) {
        LweCiphertext ct(p.k * p.N);
        for (Torus32 &v : ct.raw())
            v = rng.uniformTorus32();
        cts.push_back(std::move(ct));
    }
    const uint32_t in = ksk.inDim();
    for (size_t count = 1; count <= cts.size(); ++count) {
        std::vector<LweCiphertext> want(count);
        keySwitch(want.data(), cts.data(), count, ksk);
        for (uint32_t split : {0u, 1u, in / 2, in - 1, in}) {
            std::vector<LweCiphertext> first(count), second(count);
            for (size_t b = 0; b < count; ++b) {
                first[b] = LweCiphertext::trivial(p.n, cts[b].b());
                second[b] = LweCiphertext(p.n);
            }
            keySwitchBlock(first.data(), cts.data(), count, ksk, 0, split);
            keySwitchBlock(second.data(), cts.data(), count, ksk, split, in);
            for (size_t b = 0; b < count; ++b) {
                first[b].addAssign(second[b]);
                EXPECT_EQ(first[b].raw(), want[b].raw())
                    << "count=" << count << " split=" << split << " b=" << b;
            }
        }
    }
}

} // namespace
} // namespace strix
