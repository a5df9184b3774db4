/**
 * @file
 * GLWE (generalized/ring LWE) ciphertexts and keys.
 *
 * A GLWE ciphertext under key z = (z_1..z_k) of binary polynomials:
 *     (A_1(X)..A_k(X), B(X)),  B = sum_i A_i * z_i + M + E.
 * The paper stores test vectors as GLWE ciphertexts of k+1 polynomials
 * of degree N-1 (Sec. II-D).
 */

#ifndef STRIX_TFHE_GLWE_H
#define STRIX_TFHE_GLWE_H

#include <vector>

#include "common/random.h"
#include "poly/negacyclic_fft.h"
#include "poly/polynomial.h"
#include "tfhe/lwe.h"

namespace strix {

/** GLWE secret key: k binary polynomials of degree N-1. */
class GlweKey
{
  public:
    GlweKey() = default;

    /** Sample a uniform binary key. */
    GlweKey(uint32_t k, uint32_t big_n, Rng &rng);

    uint32_t k() const { return static_cast<uint32_t>(polys_.size()); }
    uint32_t ringDim() const
    {
        return polys_.empty() ? 0
                              : static_cast<uint32_t>(polys_[0].size());
    }
    const IntPolynomial &poly(size_t i) const { return polys_[i]; }

    /**
     * Flatten into the extracted LWE key of dimension k*N used after
     * sample extraction: bit (i*N + j) = z_i[j].
     */
    LweKey extractedLweKey() const;

  private:
    std::vector<IntPolynomial> polys_;
};

/** GLWE ciphertext: k mask polynomials plus the body polynomial. */
class GlweCiphertext
{
  public:
    GlweCiphertext() = default;
    GlweCiphertext(uint32_t k, uint32_t big_n);

    /** Number of mask polynomials k. */
    uint32_t k() const { return static_cast<uint32_t>(polys_.size()) - 1; }
    uint32_t ringDim() const
    {
        return static_cast<uint32_t>(polys_[0].size());
    }

    /** Component access; index k is the body. */
    TorusPolynomial &poly(size_t i) { return polys_[i]; }
    const TorusPolynomial &poly(size_t i) const { return polys_[i]; }
    TorusPolynomial &body() { return polys_.back(); }
    const TorusPolynomial &body() const { return polys_.back(); }

    void clear();
    void addAssign(const GlweCiphertext &other);
    void subAssign(const GlweCiphertext &other);

    /** Noiseless ciphertext with body @p mu and zero mask. */
    static GlweCiphertext trivial(uint32_t k, const TorusPolynomial &mu);

  private:
    std::vector<TorusPolynomial> polys_;
};

/** Encrypt a torus polynomial message. */
GlweCiphertext glweEncrypt(const GlweKey &key, const TorusPolynomial &mu,
                           double stddev, Rng &rng);

/** Encrypt zero (used by GGSW rows). */
GlweCiphertext glweEncryptZero(const GlweKey &key, double stddev, Rng &rng);

/**
 * Working storage of the exact key products sum_i A_i * z_i
 * (PolyKernels::binaryKeyProduct): one product polynomial and the
 * kernel's 3N scratch words. Split key expansion gives each worker
 * one, so its rows allocate nothing.
 */
struct GlweKeyScratch
{
    explicit GlweKeyScratch(uint32_t big_n);

    TorusPolynomial prod;
    std::vector<uint32_t> work;
};

/**
 * Fill the k mask polynomials of @p ct from @p mask_rng: k*N
 * uniformTorus32 draws, component-major. The single source of truth
 * for the seeded mask stream layout -- glweEncryptZeroSeeded draws
 * masks through this helper and seeded-key expansion
 * (BootstrappingKey::fromSeededBodies) replays it with an identically
 * forked generator, so both sides see bit-identical masks.
 */
void glweFillMask(GlweCiphertext &ct, Rng &mask_rng);

/**
 * Encrypt zero into @p ct (shaped k, N) with the k mask polynomials
 * drawn from @p mask_rng (glweFillMask order) and the body
 * sum_i A_i * z_i + noise[j], @p noise holding the N noise values in
 * coefficient order. With the mask stream forked from a shippable
 * seed, the masks are pure PRNG output regenerable by any holder of
 * the seed; only the body polynomial must travel (the seeded BSK2
 * frame). The caller draws the noise, so rows of one key can be
 * encrypted on several threads in any order with the same bits, and
 * nothing here allocates.
 */
void glweEncryptZeroSeeded(GlweCiphertext &ct, const GlweKey &key,
                           Rng &mask_rng, const Torus32 *noise,
                           GlweKeyScratch &scratch);

/** Raw phase B - sum A_i z_i (message + noise polynomial). */
TorusPolynomial glwePhase(const GlweKey &key, const GlweCiphertext &ct);

/**
 * Sample extraction (Algorithm 1 line 13): build the LWE ciphertext of
 * coefficient @p index of the GLWE plaintext, under the extracted LWE
 * key of dimension k*N.
 */
LweCiphertext sampleExtract(const GlweCiphertext &ct, size_t index = 0);

} // namespace strix

#endif // STRIX_TFHE_GLWE_H
