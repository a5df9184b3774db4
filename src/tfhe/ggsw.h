/**
 * @file
 * GGSW ciphertexts and the external product.
 *
 * A GGSW ciphertext of integer message m under GLWE key z is the
 * (k+1)*lb x (k+1) matrix of polynomials (Sec. II-D): row (i, j) is a
 * GLWE encryption of zero plus m * q/B^{j+1} placed on component i.
 * The external product GGSW(m) [*] GLWE(M) = GLWE(m*M) decomposes each
 * GLWE component and multiply-accumulates against the matrix rows
 * (Algorithm 1, lines 7-10) -- the core of every blind-rotation
 * iteration.
 */

#ifndef STRIX_TFHE_GGSW_H
#define STRIX_TFHE_GGSW_H

#include <vector>

#include "tfhe/decompose.h"
#include "tfhe/glwe.h"

namespace strix {

/** GGSW ciphertext: (k+1)*levels GLWE rows. */
class GgswCiphertext
{
  public:
    GgswCiphertext() = default;
    GgswCiphertext(uint32_t k, uint32_t big_n, const GadgetParams &g);

    uint32_t k() const { return k_; }
    uint32_t ringDim() const { return big_n_; }
    const GadgetParams &gadget() const { return g_; }
    uint32_t rows() const { return static_cast<uint32_t>(rows_.size()); }

    /** Row r = block * levels + level; block i targets component i. */
    GlweCiphertext &row(size_t r) { return rows_[r]; }
    const GlweCiphertext &row(size_t r) const { return rows_[r]; }

  private:
    uint32_t k_ = 0;
    uint32_t big_n_ = 0;
    GadgetParams g_{0, 0};
    std::vector<GlweCiphertext> rows_;
};

/** Encrypt integer @p m (usually a key bit) as a GGSW ciphertext. */
GgswCiphertext ggswEncrypt(const GlweKey &key, int32_t m,
                           const GadgetParams &g, double stddev, Rng &rng);

/**
 * Row @p r = block * levels + level of a seeded GGSW encryption of
 * @p m, into @p row: a glweEncryptZeroSeeded of the row's mask stream
 * @p mask_rng and its N @p noise values, then the message. Every mask
 * polynomial is pure PRNG output from a per-row fork of one shipped
 * seed (BootstrappingKey::generateSeeded picks the stream ids), so a
 * holder of the seed regenerates all masks and only the k+1 body
 * polynomials per GGSW need shipping (the BSK2 frame). Allocates
 * nothing.
 *
 * The message is placed in *body form*: ggswEncrypt adds m*scale to
 * mask component `block`, which is fine when masks travel with the
 * ciphertext but leaks m outright once the mask is declared to be
 * public PRNG output (shipped-mask minus regenerated-PRNG = m*scale).
 * Here the masks stay untouched and the algebraically equivalent
 * -m*scale*z_block is folded into the body instead (for block == k the
 * message lands on the body either way). Both forms have identical
 * row phase E - m*scale*z_block, hence identical external-product
 * semantics and noise; only the ciphertext representation differs.
 */
void ggswEncryptSeededRow(GlweCiphertext &row, const GlweKey &key,
                          int32_t m, const GadgetParams &g, uint32_t r,
                          Rng &mask_rng, const Torus32 *noise,
                          GlweKeyScratch &scratch);

/**
 * External product: out = ggsw [*] glwe, computed exactly (Karatsuba).
 * Used as the reference against the FFT-domain path.
 */
void externalProduct(GlweCiphertext &out, const GgswCiphertext &ggsw,
                     const GlweCiphertext &glwe);

/**
 * Reusable working buffers for the FFT external-product path.
 *
 * One instance serves one thread: blind rotation reuses the same
 * buffers across all n CMux iterations, so the hot loop performs no
 * heap allocation, and the batched PBS path gives each pool worker
 * its own instance so no hidden shared state remains on the hot path.
 * Buffers are sized lazily on first use and resized only when the
 * parameter shape changes; results are bit-identical with or without
 * an external scratch.
 */
struct PbsScratch
{
    /**
     * One GLWE component's digit matrix: l rows of N coefficients,
     * row `level` holding digit `level`.
     */
    std::vector<int32_t> digit_coeffs;
    /**
     * Two buffers of (k+1)*l spectra of N/2 points; row comp*l + level
     * of buffer `b` starts at (b*(k+1)*l + comp*l + level) * N/2, the
     * bsk row order. A CMux alone uses buffer 0; a lane pair
     * alternates them by step, so one lane may write step s+1's rows
     * while its partner still reads step s's.
     */
    std::vector<Cplx> spectra;
    /** One output column of the MAC, N/2 points in bit-reversed order. */
    std::vector<Cplx> facc;
    /** One column's (k+1)*l GGSW row pointers, in row order. */
    std::vector<const Cplx *> bsk_rows;
    TorusPolynomial diff;   //!< one component of X^a * acc - acc
    TorusPolynomial prod;   //!< one column of the external product
    GlweCiphertext rotated; //!< blindRotate's -b~ rotation
    /**
     * The accumulators of one key-stationary epoch, one per ciphertext
     * of the sub-batch bootstrapKeySwitch runs (B x (k+1)*N words).
     */
    std::vector<GlweCiphertext> accs;
};

/**
 * GGSW with rows pre-transformed to the frequency domain; this is the
 * form in which Strix stores the bootstrapping key in the global
 * scratchpad (bsk polynomials arrive at the VMA unit already in the
 * Fourier domain).
 */
class GgswFft
{
  public:
    GgswFft() = default;

    /** Transform every polynomial of @p ggsw. */
    GgswFft(const GgswCiphertext &ggsw);

    /**
     * Rebuild from raw frequency rows (deserialization): @p rows is
     * the flat (k+1)*levels*(k+1) layout, entry r*(k+1)+c being
     * row(r, c), each of big_n/2 points. Shape-checked; panics on
     * mismatch.
     */
    static GgswFft fromRawRows(uint32_t k, uint32_t big_n,
                               const GadgetParams &g,
                               std::vector<FreqPolynomial> rows);

    uint32_t k() const { return k_; }
    uint32_t ringDim() const { return big_n_; }
    const GadgetParams &gadget() const { return g_; }

    /** Frequency image of row r, column c. */
    const FreqPolynomial &row(size_t r, size_t c) const
    {
        return rows_[r * (k_ + 1) + c];
    }

    /**
     * External product with frequency-domain accumulation:
     * decompose -> FFT -> multiply-accumulate -> IFFT, exactly the
     * PBS-cluster dataflow (Rotator output -> Decomposer -> FFT ->
     * VMA -> IFFT -> Accumulator). All working storage comes from
     * @p scratch (one instance per thread).
     *
     * The iteration streams through each unit once per component and
     * column: each component's l digits go through one
     * NegacyclicFft::forwardBatch sweep (Strix's streaming-FFT batch
     * schedule), then one fused MAC per output column sums every
     * digit row in registers and stores the sum bit-reversed, and the
     * column's inverse runs in place on that sum. Results are
     * bit-identical to the tests' per-polynomial oracle (forward,
     * per-row mulAccumulate, inverse).
     */
    void externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe,
                         PbsScratch &scratch) const;

    /** Convenience overload with a throwaway local scratch. */
    void externalProduct(GlweCiphertext &out,
                         const GlweCiphertext &glwe) const;

    /**
     * Fused CMux used by blind rotation:
     *   acc <- acc + ggsw [*] (X^power * acc - acc),
     * selecting between acc and its rotation with one external
     * product (Algorithm 1, lines 6-11). Runs cmuxForward for every
     * component, then cmuxAccumulate for every column, on spectra
     * buffer 0 of @p scratch. A lane pair runs the same halves split
     * between its two lanes, so both give the same bits.
     */
    void cmuxRotate(GlweCiphertext &acc, uint32_t power,
                    PbsScratch &scratch) const;

    /** Convenience overload with a throwaway local scratch. */
    void cmuxRotate(GlweCiphertext &acc, uint32_t power) const;

    /**
     * First half of a CMux for GLWE component @p comp (Rotator,
     * Decomposer, FFT): the l digit rows of
     * X^power * acc.poly(comp) - acc.poly(comp), forward-transformed
     * into rows comp*l .. comp*l + l - 1 of @p spectra ((k+1)*l rows
     * of N/2 points). Reads only acc.poly(comp). @p scratch must be
     * sized by reserveScratch.
     */
    void cmuxForward(const GlweCiphertext &acc, uint32_t power,
                     uint32_t comp, Cplx *spectra,
                     PbsScratch &scratch) const;

    /**
     * Second half of a CMux for output column @p col (VMA, IFFT,
     * Accumulator): the column's MAC over all (k+1)*l rows of
     * @p spectra, inverse-transformed and added into acc.poly(col).
     * Writes only acc.poly(col). @p scratch must be sized by
     * reserveScratch.
     */
    void cmuxAccumulate(GlweCiphertext &acc, uint32_t col,
                        const Cplx *spectra, PbsScratch &scratch) const;

    /** Size @p scratch for this shape, so the halves allocate nothing. */
    void reserveScratch(PbsScratch &scratch) const;

  private:
    /** Decompose @p poly and forward-transform its l digit rows. */
    void forwardComponent(const TorusPolynomial &poly, uint32_t comp,
                          Cplx *spectra, PbsScratch &scratch) const;

    /** Column @p col of the product of @p spectra, into @p out. */
    void productColumn(TorusPolynomial &out, uint32_t col,
                       const Cplx *spectra, PbsScratch &scratch) const;

    uint32_t k_ = 0;
    uint32_t big_n_ = 0;
    GadgetParams g_{0, 0};
    std::vector<FreqPolynomial> rows_;
};

} // namespace strix

#endif // STRIX_TFHE_GGSW_H
