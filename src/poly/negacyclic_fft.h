/**
 * @file
 * Negacyclic FFT with the paper's folding scheme (Sec. V-A).
 *
 * Polynomial multiplication in Z[X]/(X^N+1) amounts to evaluating both
 * polynomials at the odd 2N-th roots of unity. Because inputs are
 * real, only N/2 evaluation points are independent. The *folding
 * scheme* packs coefficient j and j+N/2 into one complex number,
 * twists by exp(i*pi*j/N), and runs an N/2-point complex FFT -- an
 * N-point negacyclic transform on half-size hardware, exactly the
 * optimization Table VI ablates (2x throughput, 1.7x FFT area).
 *
 * Derivation: with w = exp(i*pi/N), A_k = sum_j a_j w^{(2k+1)j}; for
 * even k = 2t and u_j = a_j + i*a_{j+N/2},
 *     A_{2t} = sum_{j<N/2} (u_j w^j) exp(+2*pi*i*t*j/(N/2)),
 * while odd-indexed values follow by conjugate symmetry, so the even
 * half determines the whole transform of a real polynomial.
 */

#ifndef STRIX_POLY_NEGACYCLIC_FFT_H
#define STRIX_POLY_NEGACYCLIC_FFT_H

#include <vector>

#include "poly/complex_fft.h"
#include "poly/polynomial.h"

namespace strix {

struct PolyKernels;

/** Frequency-domain image of a length-N real polynomial: N/2 points. */
using FreqPolynomial = std::vector<Cplx>;

/**
 * Folded negacyclic transform engine for a fixed ring dimension N.
 */
class NegacyclicFft
{
  public:
    /** @param n ring dimension N (power of two, >= 4). */
    explicit NegacyclicFft(size_t n);

    size_t ringDim() const { return n_; }

    /** Forward transform of an integer polynomial. */
    void forward(FreqPolynomial &out, const IntPolynomial &poly) const;

    /** Forward transform of a torus polynomial (centered lift). */
    void forward(FreqPolynomial &out, const TorusPolynomial &poly) const;

    /**
     * Inverse transform onto the Torus32 grid (round and wrap
     * mod 2^32). Copies @p freq into bit-reversed order, then takes
     * the same in-place path as inverseBitReversed.
     */
    void inverse(TorusPolynomial &out, const FreqPolynomial &freq) const;

    /**
     * Batched forward transform of @p batch contiguous length-N
     * coefficient rows: row b of @p coeffs is the N signed
     * (centered-lift) coefficients of one polynomial, row b of @p out
     * its N/2 frequency points. Bit-identical to calling forward() on
     * each row (forward() is a batch of one); the fold+twist stores
     * straight into bit-reversed slots and every FFT stage sweeps the
     * batch as one planned pass (Strix's streaming-FFT batch
     * schedule). This is the path the external product feeds its
     * (k+1)*l decomposition digits through.
     */
    void forwardBatch(Cplx *out, const int32_t *coeffs, size_t batch) const;

    /**
     * The external product's MAC (the VMA unit): column c of @p acc
     * (N/2 points at acc + c*N/2) receives
     * sum over r of fdigits row r * rows[r*ncols + c], accumulated in
     * registers in row order and stored in bit-reversed order, ready
     * for inverseBitReversed. Bit-identical to zero-filled
     * accumulators fed by mulAccumulate row by row, then permuted.
     *
     * @param fdigits nrows contiguous spectra of N/2 points
     * @param rows    nrows*ncols row pointers of N/2 points each
     */
    void mulAccumulateColumns(Cplx *acc, const Cplx *fdigits,
                              const Cplx *const *rows, size_t nrows,
                              size_t ncols,
                              const PolyKernels &kernels) const;

    /**
     * Inverse transform of a spectrum held in bit-reversed order (as
     * mulAccumulateColumns leaves it), run in place on @p work: the
     * stage-only inverse FFT, then untwist+round with 1/(N/2) folded
     * into the untwist table. @p work (N/2 points) is clobbered.
     * Bit-identical to inverse() on the natural-order spectrum.
     */
    void inverseBitReversed(TorusPolynomial &out, Cplx *work,
                            const PolyKernels &kernels) const;

    /**
     * out_k += a_k * b_k (frequency-domain multiply-accumulate).
     * An empty @p out is auto-sized (zero-initialized); a non-empty
     * accumulator of the wrong size panics instead of being silently
     * reinitialized, so shape bugs in callers surface immediately.
     */
    static void mulAccumulate(FreqPolynomial &out, const FreqPolynomial &a,
                              const FreqPolynomial &b);

    /**
     * Kernel-explicit overloads of the transforms above, used by the
     * scalar-vs-vector cross-check tests and the A/B benchmarks. The
     * default overloads run activeKernels().
     */
    void forward(FreqPolynomial &out, const IntPolynomial &poly,
                 const PolyKernels &kernels) const;
    void forward(FreqPolynomial &out, const TorusPolynomial &poly,
                 const PolyKernels &kernels) const;
    void forwardBatch(Cplx *out, const int32_t *coeffs, size_t batch,
                      const PolyKernels &kernels) const;
    void inverse(TorusPolynomial &out, const FreqPolynomial &freq,
                 const PolyKernels &kernels) const;
    static void mulAccumulate(FreqPolynomial &out, const FreqPolynomial &a,
                              const FreqPolynomial &b,
                              const PolyKernels &kernels);

    /**
     * Obtain a cached engine for ring dimension @p n. Thread-safe:
     * first touch builds under a lock, steady-state lookups are a
     * single lock-free acquire load; references never dangle.
     */
    static const NegacyclicFft &get(size_t n);

    /**
     * Build and publish the engine for ring dimension @p n (and its
     * underlying N/2-point FftPlan) ahead of time, so later get()
     * calls on the PBS hot path never take the construction lock.
     */
    static void prewarm(size_t n);

  private:
    void forwardImpl(FreqPolynomial &out, const int32_t *coeffs,
                     size_t size, const PolyKernels &kernels) const;

    size_t n_;
    const FftPlan &plan_;       //!< N/2-point complex FFT
    std::vector<Cplx> twist_;   //!< exp(i*pi*j/N), j in [0, N/2)
    std::vector<Cplx> untwist_; //!< twist_[j] * (1/(N/2)), exactly
};

/** result = a * b mod (X^N+1) via the folded FFT. */
void negacyclicMulFft(TorusPolynomial &result, const IntPolynomial &a,
                      const TorusPolynomial &b);

} // namespace strix

#endif // STRIX_POLY_NEGACYCLIC_FFT_H
