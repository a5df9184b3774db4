/**
 * @file
 * Split key expansion: BootstrappingKey and KeySwitchKey give the same
 * bits whether their seeded expansions run serially or on a pool of
 * 1-4 lanes, for keygen (generateSeeded) and for the EVK2 decode
 * (fromSeededBodies) alike, and keygen leaves the noise stream where a
 * serial run leaves it. The set-I EVK2 frame of one keyset is pinned
 * by size and digest, so any change to keygen, the key products, the
 * expansion split or the payload codec that moves a byte fails here.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "poly/simd.h"
#include "server/wire_codec.h"
#include "support/test_util.h"
#include "tfhe/client_keyset.h"

namespace strix {
namespace {

/**
 * Small keys whose splits have ragged ends: 37 bits is two full BSK
 * blocks of 16 and a partial one, and 128 * 3 = 384 KSK rows are one
 * full row block of 256 and a partial one.
 */
TfheParams
splitParams()
{
    TfheParams p = testParams(37, 128, 1, 2, 8, 1e-6);
    p.l_ksk = 3;
    p.ks_base_bits = 4;
    return p;
}

struct KeyMaterial
{
    explicit KeyMaterial(const TfheParams &p)
        : rng(7), lwe(p.n, rng), glwe(p.k, p.N, rng)
    {
    }

    Rng rng;
    LweKey lwe;
    GlweKey glwe;
};

constexpr uint64_t kNoiseSeed = 99;
constexpr EvalKeySeeds kSeeds{11, 12};

/** Keygen's two expansions on @p pool (serial when null). */
EvalKeys
generate(const TfheParams &p, const KeyMaterial &km, Rng &noise,
         ThreadPool *pool)
{
    BootstrappingKey bsk = BootstrappingKey::generateSeeded(
        km.lwe, km.glwe, p, kSeeds.bsk_mask, noise, pool);
    KeySwitchKey ksk = KeySwitchKey::generateSeeded(
        km.glwe.extractedLweKey(), km.lwe, p, kSeeds.ksk_mask, noise, pool);
    return EvalKeys(p, std::move(bsk), std::move(ksk), kSeeds);
}

TEST(SplitKeyExpansion, GeneratedKeysEqualSerialAtOneToFourLanes)
{
    const TfheParams p = splitParams();
    const KeyMaterial km(p);
    Rng serial_noise(kNoiseSeed);
    const EvalKeys serial = generate(p, km, serial_noise, nullptr);
    const uint64_t next_raw = serial_noise.next64();
    const Torus32 next_noise = serial_noise.gaussianTorus32(1e-3);
    for (unsigned lanes = 1; lanes <= 4; ++lanes) {
        ThreadPool pool(lanes);
        Rng noise(kNoiseSeed);
        const EvalKeys split = generate(p, km, noise, &pool);
        EXPECT_EQ(test::evalKeysDifference(serial, split), "")
            << lanes << " lanes";
        // The split draws the same noise values, no more and no fewer.
        EXPECT_EQ(noise.next64(), next_raw) << lanes << " lanes";
        EXPECT_EQ(noise.gaussianTorus32(1e-3), next_noise)
            << lanes << " lanes";
    }
}

TEST(SplitKeyExpansion, ExpandedKeysEqualGeneratedAtOneToFourLanes)
{
    const TfheParams p = splitParams();
    const KeyMaterial km(p);
    Rng noise(kNoiseSeed);
    const EvalKeys generated = generate(p, km, noise, nullptr);

    // What the EVK2 frame ships: the BSK's body column and the KSK's
    // body scalars.
    std::vector<FreqPolynomial> bsk_bodies;
    const size_t rows_per_bit = size_t(p.k + 1) * p.l_bsk;
    for (uint32_t i = 0; i < p.n; ++i)
        for (size_t r = 0; r < rows_per_bit; ++r)
            bsk_bodies.push_back(generated.bsk().bit(i).row(r, p.k));
    std::vector<Torus32> ksk_bodies;
    const KeySwitchKey &ksk = generated.ksk();
    for (uint32_t i = 0; i < ksk.inDim(); ++i)
        for (uint32_t j = 0; j < ksk.gadget().levels; ++j)
            ksk_bodies.push_back(ksk.row(i, j).b());

    for (unsigned lanes = 0; lanes <= 4; ++lanes) {
        // lanes == 0: no pool, the serial loop.
        std::unique_ptr<ThreadPool> pool;
        if (lanes > 0)
            pool = std::make_unique<ThreadPool>(lanes);
        const EvalKeys expanded(
            p,
            BootstrappingKey::fromSeededBodies(p, kSeeds.bsk_mask,
                                               bsk_bodies, pool.get()),
            KeySwitchKey::fromSeededBodies(ksk.inDim(), ksk.outDim(),
                                           ksk.gadget(), kSeeds.ksk_mask,
                                           ksk_bodies, pool.get()),
            kSeeds);
        EXPECT_EQ(test::evalKeysDifference(generated, expanded), "")
            << lanes << " lanes";
    }
}

/** FNV-1a, 64-bit. */
uint64_t
fnv1a64(const std::vector<uint8_t> &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(KeysetDigest, SetIEvk2FrameIsPinned)
{
    // ClientKeyset expands on a pool of STRIX_THREADS lanes and the
    // decode below on another, so every CI leg that sets it checks the
    // split at its lane count against the same bytes.
    const ClientKeyset keys(paramsSetI(), 42);
    const std::vector<uint8_t> frame =
        encodeEvalKeysPayload(*keys.evalKeys(), EvalKeysFormat::Seeded);
    EXPECT_EQ(frame.size(), 16416957u);
    // The BSK bodies travel in the frequency domain, so the bytes
    // follow the active table's FFT rounding: one digest per table.
    // The AVX2 frame's sha256 is c5437dbf...1ccf.
    const std::string table = activeKernels().name;
    const uint64_t expect = table == "avx2" ? 0x78437aa7cae47128ULL
                                            : 0x068e8f15ea3097adULL;
    EXPECT_EQ(fnv1a64(frame), expect) << table << " table";
    EXPECT_EQ(encodeEvalKeysPayload(*decodeEvalKeysPayload(frame),
                                    EvalKeysFormat::Seeded),
              frame);
}

} // namespace
} // namespace strix
