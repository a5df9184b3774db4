/**
 * @file
 * Serialization round-trip and malformed-input tests, including the
 * randomized structure-level fuzz sweeps: random-shape round-trips,
 * exhaustive truncation (every strict prefix must throw), header
 * bit-flips (must throw), random payload byte-flips (must either
 * throw std::runtime_error or parse -- never crash or hang), and
 * spliced or gadget-patched EVK2 frames (must throw).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

#include "tfhe/serialize.h"
#include "support/test_util.h"

namespace strix {
namespace {

TEST(Frame, SectionBytesArePinnedAndItsLengthIsChecked)
{
    const unsigned char body[5] = {1, 2, 3, 4, 5};
    std::ostringstream os;
    {
        FrameWriter fw(os, 0x54534554u, 2);
        fw.beginSection(7, sizeof body + 4);
        fw.bytes(body, sizeof body);
        fw.u32(9);
        fw.endSection();
    }
    // Header "TEST" v2, then [id 7][length 9][payload].
    const unsigned char expect[] = {
        'T', 'E', 'S', 'T', 2, 0, 0, 0, 7, 0, 0, 0, 9, 0, 0, 0, 0,
        0,   0,   0,   1,   2, 3, 4, 5, 9, 0, 0, 0};
    EXPECT_EQ(os.str(),
              std::string(reinterpret_cast<const char *>(expect),
                          sizeof expect));

    FrameWriter over(os, 0x54534554u, 2);
    over.beginSection(7, 4);
    EXPECT_THROW(over.bytes(body, sizeof body), std::logic_error);
    FrameWriter shorter(os, 0x54534554u, 2);
    shorter.beginSection(7, 8);
    shorter.u32(1);
    EXPECT_THROW(shorter.endSection(), std::logic_error);
}

TEST(Serialize, ParamsRoundTrip)
{
    std::stringstream ss;
    serialize(ss, paramsSetII());
    TfheParams p = deserializeParams(ss);
    EXPECT_EQ(p.name, "II");
    EXPECT_EQ(p.n, paramsSetII().n);
    EXPECT_EQ(p.N, paramsSetII().N);
    EXPECT_EQ(p.l_bsk, paramsSetII().l_bsk);
    EXPECT_DOUBLE_EQ(p.lwe_noise, paramsSetII().lwe_noise);
    EXPECT_EQ(p.lambda, 128);
}

TEST(Serialize, CiphertextRoundTripDecrypts)
{
    Rng rng(2);
    LweKey key(128, rng);
    auto ct = lweEncrypt(key, encodeMessage(5, 16), 0.0, rng);
    std::stringstream ss;
    serialize(ss, ct);
    LweCiphertext back = deserializeLweCiphertext(ss);
    EXPECT_EQ(lweDecrypt(key, back, 16), 5);
}

TEST(Serialize, TorusPolynomialRoundTrip)
{
    Rng rng(4);
    TorusPolynomial p = test::randomTorusPoly(256, rng);
    std::stringstream ss;
    serialize(ss, p);
    EXPECT_EQ(deserializeTorusPolynomial(ss), p);
}

TEST(Serialize, KeySwitchKeyRoundTripFunctional)
{
    // The ksk re-expanded from an EVK2 frame must actually keyswitch
    // correctly, here at a deeper keyswitch gadget than the default.
    TfheParams p = testParams(32, 64);
    p.l_ksk = 12;
    p.ks_base_bits = 2;
    ClientKeyset client(p, 5);

    std::stringstream ss;
    serialize(ss, *client.evalKeys(), EvalKeysFormat::Seeded);
    std::shared_ptr<const EvalKeys> back = deserializeEvalKeys(ss);

    Rng rng(5);
    auto ct = lweEncrypt(client.extractedKey(), encodeMessage(3, 8), 0.0,
                         rng);
    EXPECT_EQ(lweDecrypt(client.lweKey(), keySwitch(ct, back->ksk()), 8),
              3);
}

TEST(Serialize, MultipleFramesInOneStream)
{
    Rng rng(6);
    LweKey key(64, rng);
    auto c1 = lweEncrypt(key, encodeMessage(1, 8), 0.0, rng);
    auto c2 = lweEncrypt(key, encodeMessage(2, 8), 0.0, rng);
    std::stringstream ss;
    serialize(ss, paramsSetI());
    serialize(ss, c1);
    serialize(ss, c2);
    TfheParams p = deserializeParams(ss);
    EXPECT_EQ(p.name, "I");
    EXPECT_EQ(lweDecrypt(key, deserializeLweCiphertext(ss), 8), 1);
    EXPECT_EQ(lweDecrypt(key, deserializeLweCiphertext(ss), 8), 2);
}

TEST(Serialize, WrongTagThrows)
{
    Rng rng(7);
    std::stringstream ss;
    serialize(ss, test::randomTorusPoly(16, rng));
    EXPECT_THROW(deserializeLweCiphertext(ss), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows)
{
    Rng rng(8);
    LweKey key(64, rng);
    auto ct = lweEncrypt(key, 0, 0.0, rng);
    std::stringstream full;
    serialize(full, ct);
    std::string bytes = full.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(deserializeLweCiphertext(truncated),
                 std::runtime_error);
}

TEST(Serialize, GarbageThrows)
{
    std::stringstream ss("this is not a TFHE frame at all....");
    EXPECT_THROW(deserializeParams(ss), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Randomized structure-level fuzz sweeps.

/** Serialize one frame and return its raw bytes. */
template <typename T>
std::string
frameBytes(const T &value)
{
    std::stringstream ss;
    serialize(ss, value);
    return ss.str();
}

TEST(SerializeFuzz, RandomParamsRoundTripSweep)
{
    Rng rng(101);
    for (int iter = 0; iter < 50; ++iter) {
        TfheParams p;
        // Arbitrary field soup, including empty and longish names and
        // non-finite-free but extreme doubles.
        size_t name_len = rng.uniformBelow(64);
        for (size_t i = 0; i < name_len; ++i)
            p.name.push_back(
                static_cast<char>('a' + rng.uniformBelow(26)));
        p.n = static_cast<uint32_t>(rng.uniformTorus32());
        p.N = static_cast<uint32_t>(rng.uniformTorus32());
        p.k = static_cast<uint32_t>(rng.uniformBelow(17));
        p.l_bsk = static_cast<uint32_t>(rng.uniformBelow(65));
        p.bg_bits = static_cast<uint32_t>(rng.uniformBelow(33));
        p.l_ksk = static_cast<uint32_t>(rng.uniformBelow(65));
        p.ks_base_bits = static_cast<uint32_t>(rng.uniformBelow(33));
        p.lwe_noise = rng.uniformDouble() * 1e-3;
        p.glwe_noise = rng.uniformDouble() * 1e-12;
        p.lambda = static_cast<int>(rng.uniformBelow(257));

        std::stringstream ss;
        serialize(ss, p);
        TfheParams back = deserializeParams(ss);
        EXPECT_EQ(back.name, p.name);
        EXPECT_EQ(back.n, p.n);
        EXPECT_EQ(back.N, p.N);
        EXPECT_EQ(back.k, p.k);
        EXPECT_EQ(back.l_bsk, p.l_bsk);
        EXPECT_EQ(back.bg_bits, p.bg_bits);
        EXPECT_EQ(back.l_ksk, p.l_ksk);
        EXPECT_EQ(back.ks_base_bits, p.ks_base_bits);
        EXPECT_DOUBLE_EQ(back.lwe_noise, p.lwe_noise);
        EXPECT_DOUBLE_EQ(back.glwe_noise, p.glwe_noise);
        EXPECT_EQ(back.lambda, p.lambda);
    }
}

TEST(SerializeFuzz, RandomShapeMultiFrameRoundTripSweep)
{
    // Streams of randomly shaped frames must round-trip structure by
    // structure.
    Rng rng(202);
    for (int iter = 0; iter < 25; ++iter) {
        std::stringstream ss;

        size_t lwe_dim = 1 + rng.uniformBelow(300);
        LweKey lkey(static_cast<uint32_t>(lwe_dim), rng);
        LweCiphertext raw_ct(static_cast<uint32_t>(lwe_dim));
        for (uint32_t &w : raw_ct.raw())
            w = rng.uniformTorus32();
        serialize(ss, raw_ct);

        size_t poly_n = size_t{1} << (1 + rng.uniformBelow(9));
        TorusPolynomial poly =
            test::randomTorusPoly(poly_n, rng);
        serialize(ss, poly);

        TfheParams params = testParams(
            1 + uint32_t(rng.uniformBelow(1024)),
            1u << (2 + rng.uniformBelow(9)),
            1 + uint32_t(rng.uniformBelow(3)));
        serialize(ss, params);

        auto ct = lweEncrypt(lkey, encodeMessage(1, 8), 0.0, rng);
        serialize(ss, ct);

        EXPECT_EQ(deserializeLweCiphertext(ss).raw(), raw_ct.raw());

        EXPECT_EQ(deserializeTorusPolynomial(ss), poly);

        TfheParams pback = deserializeParams(ss);
        ASSERT_EQ(pback.n, params.n);
        ASSERT_EQ(pback.N, params.N);
        ASSERT_EQ(pback.k, params.k);

        EXPECT_EQ(lweDecrypt(lkey, deserializeLweCiphertext(ss), 8), 1);
    }
}

TEST(SerializeFuzz, EveryStrictPrefixThrows)
{
    // A frame cut anywhere before its last byte must be rejected --
    // no partial parse may leak out as a valid structure.
    Rng rng(303);
    LweKey key(48, rng);
    TfheParams params = paramsSetII();
    TorusPolynomial poly = test::randomTorusPoly(64, rng);
    auto ct = lweEncrypt(key, encodeMessage(3, 8), 0.0, rng);

    const std::string frames[] = {
        frameBytes(params),
        frameBytes(poly),
        frameBytes(ct),
    };
    int idx = 0;
    for (const std::string &bytes : frames) {
        SCOPED_TRACE("frame " + std::to_string(idx++));
        for (size_t cut = 0; cut < bytes.size(); ++cut) {
            std::stringstream ss(bytes.substr(0, cut));
            switch (idx - 1) {
              case 0:
                EXPECT_THROW(deserializeParams(ss), std::runtime_error)
                    << "cut=" << cut;
                break;
              case 1:
                EXPECT_THROW(deserializeTorusPolynomial(ss),
                             std::runtime_error)
                    << "cut=" << cut;
                break;
              default:
                EXPECT_THROW(deserializeLweCiphertext(ss),
                             std::runtime_error)
                    << "cut=" << cut;
            }
        }
    }
}

TEST(SerializeFuzz, EveryHeaderBitFlipThrows)
{
    // The 8-byte header is tag + version; any single-bit corruption
    // of it must be rejected outright.
    Rng rng(404);
    TorusPolynomial poly = test::randomTorusPoly(32, rng);
    const std::string bytes = frameBytes(poly);
    ASSERT_GE(bytes.size(), 8u);
    for (size_t bit = 0; bit < 64; ++bit) {
        std::string corrupted = bytes;
        corrupted[bit / 8] =
            static_cast<char>(corrupted[bit / 8] ^ (1 << (bit % 8)));
        std::stringstream ss(corrupted);
        EXPECT_THROW(deserializeTorusPolynomial(ss), std::runtime_error)
            << "bit " << bit;
    }
}

TEST(SerializeFuzz, RandomByteFlipsNeverCrash)
{
    // Payload corruption may parse to a different (garbage) structure
    // or throw std::runtime_error; anything else -- a crash, a hang,
    // an unbounded allocation (bounded by the length-field caps in
    // serialize.cpp), another exception type -- is a bug. Key frames
    // get the same treatment in SerializeEvk2.RandomByteFlipsNeverCrash.
    Rng rng(505);
    LweKey key(48, rng);
    const std::string base =
        frameBytes(paramsSetII()) +
        frameBytes(lweEncrypt(key, encodeMessage(3, 8), 0.0, rng)) +
        frameBytes(test::randomTorusPoly(64, rng));

    for (int iter = 0; iter < 300; ++iter) {
        std::string corrupted = base;
        // Flip 1-4 random bytes anywhere in the frame.
        size_t flips = 1 + rng.uniformBelow(4);
        for (size_t f = 0; f < flips; ++f) {
            size_t pos = rng.uniformBelow(corrupted.size());
            corrupted[pos] = static_cast<char>(
                corrupted[pos] ^
                static_cast<char>(1 + rng.uniformBelow(255)));
        }
        std::stringstream ss(corrupted);
        try {
            deserializeParams(ss);
            LweCiphertext ct = deserializeLweCiphertext(ss);
            TorusPolynomial poly = deserializeTorusPolynomial(ss);
            // Parsed (e.g. only payload words flipped): the
            // plausibility guards must still have held.
            EXPECT_LE(ct.raw().size(), size_t{1} << 25);
            EXPECT_LE(poly.size(), size_t{1} << 24);
        } catch (const std::runtime_error &) {
            // Rejected: fine.
        }
    }
}

TEST(SerializeFuzz, ImplausibleVectorLengthRejectedWithoutAllocating)
{
    // A hostile length field (2^32 entries = 16 GiB) must be rejected
    // by the plausibility cap, not by attempting the allocation.
    std::stringstream ss;
    serialize(ss, LweCiphertext(4));
    std::string bytes = ss.str();
    // Frame layout: tag(4) version(4) then u64 vector length.
    uint64_t huge = uint64_t{1} << 32;
    std::memcpy(&bytes[8], &huge, sizeof(huge));
    std::stringstream corrupted(bytes);
    EXPECT_THROW(deserializeLweCiphertext(corrupted), std::runtime_error);

    // A length just inside the cap on a short frame must throw
    // "truncated" after consuming the bytes that exist -- the reader
    // grows with the stream, it never eagerly allocates the claimed
    // 128 MiB (readU32Vector's incremental loop).
    uint64_t capped = (uint64_t{1} << 25) - 1;
    std::memcpy(&bytes[8], &capped, sizeof(capped));
    std::stringstream truncated(bytes);
    EXPECT_THROW(deserializeLweCiphertext(truncated), std::runtime_error);
}

// ---------------------------------------------------------------------------
// EvalKeys bundles travel as seeded EVK2 frames: they must round-trip
// to bit-identical keys, re-serialize byte-exactly, stay well under
// the resident size, and get the same hostile-input hardening as
// ciphertexts -- truncation, header bit-flips, payload byte-flips,
// spliced shapes and gadgets outside the decomposer's domain.

/** Tiny bundle the fuzz sweeps can afford to re-serialize often. */
const EvalKeys &
tinyEvalKeys()
{
    static test::TestKeys keys(testParams(16, 64, 1, 2, 8, 0.0),
                               test::kSeedSerialize);
    return *keys.client.evalKeys();
}

/** The EVK2 frame bytes of @p keys. */
std::string
seededBytes(const EvalKeys &keys)
{
    std::stringstream ss;
    serialize(ss, keys, EvalKeysFormat::Seeded);
    return ss.str();
}

/** Tiny bundle with one decomposition level in both gadgets. */
const EvalKeys &
oneLevelEvalKeys()
{
    static const ClientKeyset client(
        [] {
            TfheParams p = testParams(16, 64, 1, 1, 8, 0.0);
            p.l_ksk = 1;
            return p;
        }(),
        test::kSeedSerialize);
    return *client.evalKeys();
}

/**
 * Success iff decoding @p bytes throws std::runtime_error whose
 * message contains @p reason -- pins *why* a frame is refused.
 */
::testing::AssertionResult
rejectedWith(const std::string &bytes, const std::string &reason)
{
    std::stringstream ss(bytes);
    try {
        deserializeEvalKeys(ss);
    } catch (const std::runtime_error &e) {
        if (std::string(e.what()).find(reason) != std::string::npos)
            return ::testing::AssertionSuccess();
        return ::testing::AssertionFailure()
               << "rejected for another reason: " << e.what();
    }
    return ::testing::AssertionFailure() << "frame decoded";
}

TEST(SerializeEvalKeys, MismatchedKskIsRejected)
{
    // Splice the KSK2 of a *different* keyset shape into an otherwise
    // valid bundle: the params cross-check must refuse to assemble a
    // bundle that would silently evaluate garbage.
    test::TestKeys keys(testParams(16, 64, 1, 2, 8, 0.0), 11);
    test::TestKeys other(testParams(24, 128, 1, 2, 8, 0.0), 12);
    std::string bytes = seededBytes(*keys.client.evalKeys());
    const std::string donor = seededBytes(*other.client.evalKeys());
    const test::Evk2Layout l = test::evk2Layout(*keys.client.evalKeys());
    const test::Evk2Layout lo =
        test::evk2Layout(*other.client.evalKeys());
    ASSERT_EQ(l.ksk_off + l.ksk_len, bytes.size());
    ASSERT_EQ(lo.ksk_off + lo.ksk_len, donor.size());

    bytes.replace(l.ksk_off, l.ksk_len,
                  donor.substr(lo.ksk_off, lo.ksk_len));
    EXPECT_TRUE(rejectedWith(bytes, "ksk/params mismatch"));
}

TEST(SerializeEvalKeys, MismatchedBskIsRejected)
{
    // Same for the BSK2: a bootstrapping key of another ring and LWE
    // dimension must not pass the params cross-check.
    test::TestKeys keys(testParams(16, 64, 1, 2, 8, 0.0), 11);
    test::TestKeys other(testParams(24, 128, 1, 2, 8, 0.0), 12);
    std::string bytes = seededBytes(*keys.client.evalKeys());
    const std::string donor = seededBytes(*other.client.evalKeys());
    const test::Evk2Layout l = test::evk2Layout(*keys.client.evalKeys());
    const test::Evk2Layout lo =
        test::evk2Layout(*other.client.evalKeys());

    bytes.replace(l.bsk_off, l.bsk_len,
                  donor.substr(lo.bsk_off, lo.bsk_len));
    EXPECT_TRUE(rejectedWith(bytes, "bsk/params mismatch"));
}

TEST(SerializeEvk2, FunctionalRoundTrip)
{
    // A server standing on a bundle re-expanded from seeds must
    // produce ciphertexts bit-identical to the original keyset's.
    test::TestKeys keys(testParams(32, 256, 1, 3, 8, 0.0),
                        test::kSeedSerialize);
    std::stringstream wire;
    serialize(wire, *keys.client.evalKeys(), EvalKeysFormat::Seeded);

    std::shared_ptr<const EvalKeys> shipped = deserializeEvalKeys(wire);
    ASSERT_NE(shipped, nullptr);
    ServerContext remote(shipped);

    const uint64_t space = 8;
    auto square = [](int64_t v) { return (v * v) % 8; };
    for (int64_t m = 0; m < 4; ++m) {
        auto ct = keys.client.encryptInt(m, space);
        LweCiphertext here = keys.server.applyLut(ct, space, square);
        LweCiphertext there = remote.applyLut(ct, space, square);
        EXPECT_EQ(here.raw(), there.raw()) << "m=" << m;
        EXPECT_EQ(keys.client.decryptInt(there, space), (m * m) % 8);
    }
}

TEST(SerializeEvk2, RebuiltBundleIsBitIdenticalToOriginal)
{
    // Every frequency-domain BSK row, every KSK row and the params of
    // the rebuilt bundle must equal the original's bit for bit.
    const EvalKeys &orig = tinyEvalKeys();
    std::stringstream wire(seededBytes(orig));
    std::shared_ptr<const EvalKeys> rebuilt = deserializeEvalKeys(wire);
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(test::evalKeysDifference(*rebuilt, orig), "");
}

TEST(SerializeEvk2, ReserializeIsByteExact)
{
    // v2 -> bundle -> v2 must reproduce the frame byte-for-byte (the
    // rebuilt bundle keeps its mask seeds).
    const std::string bytes = seededBytes(tinyEvalKeys());
    std::stringstream ss(bytes);
    std::shared_ptr<const EvalKeys> back = deserializeEvalKeys(ss);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(seededBytes(*back), bytes);
}

TEST(SerializeEvk2, RandomShapeRoundTripSweep)
{
    // Byte-exact re-serialization and bit-identical keys across
    // random small key shapes.
    Rng rng(909);
    for (int iter = 0; iter < 4; ++iter) {
        uint32_t n = 4 + uint32_t(rng.uniformBelow(12));
        uint32_t big_n = 16u << rng.uniformBelow(3);
        uint32_t k = 1 + uint32_t(rng.uniformBelow(2));
        uint32_t l = 1 + uint32_t(rng.uniformBelow(3));
        ClientKeyset client(testParams(n, big_n, k, l, 8, 0.0),
                            2000 + uint64_t(iter));

        const std::string bytes = seededBytes(*client.evalKeys());
        std::stringstream ss(bytes);
        std::shared_ptr<const EvalKeys> back = deserializeEvalKeys(ss);
        ASSERT_NE(back, nullptr);
        EXPECT_EQ(seededBytes(*back), bytes)
            << "n=" << n << " N=" << big_n << " k=" << k << " l=" << l;
        EXPECT_EQ(test::evalKeysDifference(*back, *client.evalKeys()), "")
            << "n=" << n << " N=" << big_n << " k=" << k << " l=" << l;
    }
}

TEST(SerializeEvk2, CompressesWellUnderTheExpandedFrame)
{
    // The acceptance bar is <= 55% of the expanded key the server
    // holds after re-expansion; the seeded frame drops all mask
    // material (~1/(k+1) of the BSK, ~1/(n+1) of the KSK), which lands
    // well under that even at tiny shapes.
    const EvalKeys &keys = tinyEvalKeys();
    const uint64_t resident = keys.residentBytes();
    const size_t v2 = seededBytes(keys).size();
    EXPECT_LE(double(v2), 0.55 * double(resident))
        << "resident=" << resident << " v2=" << v2;
}

TEST(SerializeEvk2, StrictPrefixSampleThrows)
{
    // The frame is tens of KiB, so cutting at *every* byte is
    // quadratic; sample instead: dense over the header and shape
    // sections, strided + random over the bodies, and the final bytes.
    const std::string bytes = seededBytes(tinyEvalKeys());
    ASSERT_GT(bytes.size(), 512u);

    std::vector<size_t> cuts;
    for (size_t c = 0; c < 256; ++c)
        cuts.push_back(c);
    for (size_t c = 256; c < bytes.size(); c += 499)
        cuts.push_back(c);
    Rng rng(1010);
    for (int i = 0; i < 64; ++i)
        cuts.push_back(rng.uniformBelow(bytes.size()));
    for (size_t back = 1; back <= 16; ++back)
        cuts.push_back(bytes.size() - back);

    for (size_t cut : cuts) {
        std::stringstream ss(bytes.substr(0, cut));
        EXPECT_THROW(deserializeEvalKeys(ss), std::runtime_error)
            << "cut=" << cut;
    }
}

TEST(SerializeEvk2, EveryHeaderBitFlipThrows)
{
    // Outer EVK2 header plus the nested params header: any single-bit
    // corruption must be rejected outright.
    const std::string bytes = seededBytes(tinyEvalKeys());
    ASSERT_GE(bytes.size(), 16u);
    for (size_t bit = 0; bit < 128; ++bit) {
        std::string corrupted = bytes;
        corrupted[bit / 8] =
            static_cast<char>(corrupted[bit / 8] ^ (1 << (bit % 8)));
        std::stringstream ss(corrupted);
        EXPECT_THROW(deserializeEvalKeys(ss), std::runtime_error)
            << "bit " << bit;
    }
}
TEST(SerializeEvk2, TamperedSectionLengthThrows)
{
    // The BSK2 SHAPE section sits right after the nested params frame:
    // [id u32][length u64][payload]. Corrupting the declared length --
    // short, long, or hostile-huge -- must be rejected by the section
    // bounds checks, never trusted for allocation.
    const EvalKeys &keys = tinyEvalKeys();
    const std::string bytes = seededBytes(keys);
    const size_t params_len = frameBytes(keys.params()).size();
    // outer header (8) + params frame + BSK2 header (8) + section id.
    const size_t len_off = 8 + params_len + 8 + 4;
    ASSERT_LE(len_off + 8, bytes.size());

    for (uint64_t bad : {uint64_t{0}, uint64_t{27}, uint64_t{29},
                         uint64_t{1} << 40, ~uint64_t{0}}) {
        std::string corrupted = bytes;
        std::memcpy(&corrupted[len_off], &bad, sizeof(bad));
        std::stringstream ss(corrupted);
        EXPECT_THROW(deserializeEvalKeys(ss), std::runtime_error)
            << "len=" << bad;
    }
}

TEST(SerializeEvk2, BskGadgetOutsideDecomposerIsRejected)
{
    // A self-consistent frame whose BSK gadget the decomposer cannot
    // run must be refused at decode: accepted, it would shift out of
    // range on every bootstrap.
    using test::Evk2Gadget;
    using test::evk2WithGadgetBaseBits;
    // The patch itself is sound: an in-domain gadget still decodes.
    std::stringstream ok(
        evk2WithGadgetBaseBits(tinyEvalKeys(), Evk2Gadget::Bsk, 10));
    EXPECT_NO_THROW(deserializeEvalKeys(ok));
    // 17 bits x 2 levels = 34 digit bits on a 32-bit torus.
    EXPECT_TRUE(rejectedWith(
        evk2WithGadgetBaseBits(tinyEvalKeys(), Evk2Gadget::Bsk, 17),
        "implausible bsk gadget"));
    // 32 bits x 1 level fits the torus, but a base of 2^32 does not
    // fit GadgetParams::base().
    EXPECT_TRUE(rejectedWith(
        evk2WithGadgetBaseBits(oneLevelEvalKeys(), Evk2Gadget::Bsk, 32),
        "implausible bsk gadget"));
}

TEST(SerializeEvk2, KskGadgetOutsideDecomposerIsRejected)
{
    // Same for the keyswitch gadget, where an accepted 5 x 8 gadget
    // would abort the process on the first keyswitch.
    using test::Evk2Gadget;
    using test::evk2WithGadgetBaseBits;
    std::stringstream ok(
        evk2WithGadgetBaseBits(tinyEvalKeys(), Evk2Gadget::Ksk, 3));
    EXPECT_NO_THROW(deserializeEvalKeys(ok));
    // 5 bits x 8 levels = 40 digit bits.
    EXPECT_TRUE(rejectedWith(
        evk2WithGadgetBaseBits(tinyEvalKeys(), Evk2Gadget::Ksk, 5),
        "implausible ksk gadget"));
    EXPECT_TRUE(rejectedWith(
        evk2WithGadgetBaseBits(oneLevelEvalKeys(), Evk2Gadget::Ksk, 32),
        "implausible ksk gadget"));
}

TEST(SerializeEvk2, RandomByteFlipsNeverCrash)
{
    // Body corruption may parse (freq-domain doubles / raw Torus32
    // bodies: flips change values, not structure) or throw
    // std::runtime_error; anything else is a bug.
    const std::string base = seededBytes(tinyEvalKeys());
    Rng rng(1111);
    for (int iter = 0; iter < 60; ++iter) {
        std::string corrupted = base;
        size_t flips = 1 + rng.uniformBelow(4);
        for (size_t f = 0; f < flips; ++f) {
            size_t pos = rng.uniformBelow(corrupted.size());
            corrupted[pos] = static_cast<char>(
                corrupted[pos] ^
                static_cast<char>(1 + rng.uniformBelow(255)));
        }
        std::stringstream ss(corrupted);
        try {
            std::shared_ptr<const EvalKeys> back =
                deserializeEvalKeys(ss);
            ASSERT_NE(back, nullptr);
            EXPECT_EQ(back->bsk().n(), back->params().n);
        } catch (const std::runtime_error &) {
            // Rejected: fine.
        }
    }
}

} // namespace
} // namespace strix
