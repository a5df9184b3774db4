/**
 * @file
 * Shared helpers for the Strix test suite.
 *
 * Centralizes the random-polynomial generators and the toy TFHE
 * parameter fixtures that used to be copy-pasted across test files.
 * Everything here is deterministic: fixtures document their seed so a
 * failure reproduces bit-for-bit with `ctest -R <test>`.
 */

#ifndef STRIX_TESTS_SUPPORT_TEST_UTIL_H
#define STRIX_TESTS_SUPPORT_TEST_UTIL_H

#include <cstdint>
#include <string>

#include "common/random.h"
#include "poly/polynomial.h"
#include "tfhe/client_keyset.h"
#include "tfhe/params.h"
#include "tfhe/server_context.h"

namespace strix {
namespace test {

/** Uniform torus polynomial of degree < n. */
TorusPolynomial randomTorusPoly(size_t n, Rng &rng);

/** Integer polynomial with coefficients uniform in [-bound, bound]. */
IntPolynomial randomSmallIntPoly(size_t n, int32_t bound, Rng &rng);

/**
 * Torus polynomial whose every coefficient encodes a uniform message
 * from a discrete space of @p space values (the "plaintext polynomial"
 * shape GLWE/GGSW tests encrypt).
 */
TorusPolynomial randomMessagePoly(uint32_t n, Rng &rng,
                                  uint64_t space = 16);

/**
 * The standard small-but-real PBS parameter set used by the gate /
 * integer / workload tests: n=48, N=512, k=1, l=3, Bg=2^8, zero
 * noise. Big enough that blind rotation is exercised for real, small
 * enough that a full bootstrap takes milliseconds.
 */
TfheParams fastParams();

/**
 * Mid-size zero-noise set (n=20, N=256): used where a second,
 * differently-shaped ring is wanted (e.g. cross-parameter tests)
 * while staying fast.
 */
TfheParams midParams();

/**
 * The first difference between two evaluation-key bundles, or "" when
 * they are bit-identical: every params field, the mask seeds, every
 * frequency-domain BSK row (GgswFft::row(r, c), compared by bit
 * pattern) and every KSK row. The oracle for bundles rebuilt from an
 * EVK2 frame, independent of any serializer.
 */
std::string evalKeysDifference(const EvalKeys &a, const EvalKeys &b);

/**
 * Byte offsets and lengths of the frames nested in the EVK2 frame of
 * a bundle (serialize.h): outer header, then PAR0, BSK2 and KSK2.
 * Lets tests splice or patch one part of a valid frame.
 */
struct Evk2Layout
{
    size_t params_off, params_len;
    size_t bsk_off, bsk_len;
    size_t ksk_off, ksk_len;
};

/** Layout of the EVK2 frame that @p keys serializes to. */
Evk2Layout evk2Layout(const EvalKeys &keys);

/** The two gadgets an EVK2 frame carries. */
enum class Evk2Gadget
{
    Bsk, //!< params bg_bits and the BSK2 shape's base_bits
    Ksk, //!< params ks_base_bits and the KSK2 shape's base_bits
};

/**
 * The EVK2 frame of @p keys with one gadget's base_bits rewritten to
 * @p base_bits in both places a reader sees it: the params frame and
 * the key's SHAPE section. The frame stays self-consistent, so only a
 * check on the gadget itself can refuse it.
 */
std::string evk2WithGadgetBaseBits(const EvalKeys &keys,
                                   Evk2Gadget gadget,
                                   uint32_t base_bits);

/**
 * Split-API fixture: one deterministic ClientKeyset and a
 * ServerContext sharing its EvalKeys bundle, the pair most suites
 * need. Members are public on purpose -- tests read `client` for
 * encrypt/decrypt and `server` for evaluation, which keeps each call
 * site explicit about the role it exercises.
 */
struct TestKeys
{
    explicit TestKeys(const TfheParams &params, uint64_t seed)
        : client(params, seed), server(client.evalKeys())
    {
    }

    ClientKeyset client;
    ServerContext server;
};

/**
 * Deterministic per-suite context seeds. Each test file that builds a
 * shared TestKeys uses its own seed so suites stay
 * independent; keeping them here documents that they are arbitrary
 * but pinned.
 */
enum Seed : uint64_t {
    kSeedGates = 1234,
    kSeedCircuit = 4321,
    kSeedDecisionTree = 1357,
    kSeedInteger = 2468,
    kSeedIntegration = 60606,
    kSeedBootstrap = 99,
    kSeedParallel = 7777,
    kSeedSerialize = 90210,
    kSeedBatchExecutor = 5150,
};

} // namespace test
} // namespace strix

#endif // STRIX_TESTS_SUPPORT_TEST_UTIL_H
