/**
 * @file
 * Reference implementations the test suite checks the production PBS
 * path against. None of this is library API: production code has one
 * blind rotation (tfhe/bootstrap.h) and one external product
 * (GgswFft::externalProduct).
 *
 *  - externalProductPerPoly: the pre-fusion external product, one
 *    forward FFT per decomposition digit. The batch-fused production
 *    path must match it bit for bit.
 *  - The 2x-unrolled PBS (Bourse et al., the Matcha technique):
 *    a functional oracle for the analytic model's `key_unrolling`
 *    option, checked for equal outputs against the regular PBS.
 */

#ifndef STRIX_TESTS_SUPPORT_PBS_ORACLES_H
#define STRIX_TESTS_SUPPORT_PBS_ORACLES_H

#include <vector>

#include "tfhe/bootstrap.h"

namespace strix {
namespace test {

/**
 * out = ggsw [*] glwe, transforming one digit at a time through
 * NegacyclicFft::forward. Semantics and bits match
 * GgswFft::externalProduct exactly.
 */
void externalProductPerPoly(const GgswFft &ggsw, GlweCiphertext &out,
                            const GlweCiphertext &glwe);

/**
 * Bootstrapping key with 2x unrolling: key bits are taken in pairs
 * (s, t) and each pair stores GGSW(s), GGSW(t), GGSW(s*t), letting
 * one blind-rotation iteration absorb two mask elements:
 *
 *   X^{a*s + b*t} = 1 + s(X^a - 1) + t(X^b - 1)
 *                     + s*t (X^a - 1)(X^b - 1).
 *
 * Halves the iteration count at 1.5x key size and 3 external
 * products per iteration.
 */
class UnrolledBootstrappingKey
{
  public:
    UnrolledBootstrappingKey() = default;

    /** Number of unrolled iterations: ceil(n / 2). */
    uint32_t pairs() const
    {
        return static_cast<uint32_t>(triples_.size());
    }
    const TfheParams &params() const { return params_; }

    /** GGSW triple (s, t, s*t) for pair @p i. */
    const GgswFft &first(size_t i) const { return triples_[i].s; }
    const GgswFft &second(size_t i) const { return triples_[i].t; }
    const GgswFft &product(size_t i) const { return triples_[i].st; }

    static UnrolledBootstrappingKey generate(const LweKey &lwe_key,
                                             const GlweKey &glwe_key,
                                             const TfheParams &params,
                                             Rng &rng);

    /** Key bytes relative to the regular bsk: 1.5x. */
    uint64_t bytes() const;

  private:
    struct Triple
    {
        GgswFft s, t, st;
    };
    std::vector<Triple> triples_;
    TfheParams params_;
};

/**
 * Blind rotation with the 2x-unrolled key: ceil(n/2) iterations. The
 * external products use @p scratch, so one scratch may serve this
 * path and the regular PBS in turn.
 */
void blindRotateUnrolled(GlweCiphertext &acc, const LweCiphertext &ct,
                         const UnrolledBootstrappingKey &ubsk,
                         PbsScratch &scratch);

/** PBS using the unrolled key (functionally identical to PBS). */
LweCiphertext programmableBootstrapUnrolled(
    const LweCiphertext &ct, const TorusPolynomial &test_vector,
    const UnrolledBootstrappingKey &ubsk, PbsScratch &scratch);

/** Convenience overload with a throwaway local scratch. */
LweCiphertext programmableBootstrapUnrolled(
    const LweCiphertext &ct, const TorusPolynomial &test_vector,
    const UnrolledBootstrappingKey &ubsk);

} // namespace test
} // namespace strix

#endif // STRIX_TESTS_SUPPORT_PBS_ORACLES_H
