/**
 * @file
 * Iterative radix-2 complex FFT with a precomputed plan.
 *
 * This mirrors the structure of the hardware pipelined-FFT in the
 * paper (Fig. 5): log2(M) butterfly stages with twiddle ROMs; the
 * software version applies the same dataflow sequentially. Plans are
 * cached per size.
 *
 * The butterfly loops themselves live behind the runtime-dispatched
 * kernel table in poly/simd.h: a plan holds the precomputed tables
 * (bit-reversal permutation, stage-major twiddles), and
 * forward()/inverse() permute their natural-order input, then run the
 * stage-only kernels of whichever backend activeKernels() selected at
 * startup (AVX2+FMA where available, scalar otherwise or under
 * STRIX_FORCE_SCALAR=1). The kernel-explicit overloads let tests and
 * benchmarks run both backends side by side in one process.
 */

#ifndef STRIX_POLY_COMPLEX_FFT_H
#define STRIX_POLY_COMPLEX_FFT_H

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace strix {

using Cplx = std::complex<double>;

struct FftTables;
struct PolyKernels;

/**
 * Largest log2 size the process-wide plan caches accept. 2^32 points
 * is far beyond any realistic ring dimension and matches the 32-bit
 * permutation indices a plan stores; the bound also sizes the fixed
 * slot arrays backing the lock-free caches.
 */
inline constexpr size_t kMaxFftLog2 = 32;

/**
 * FFT plan for a fixed power-of-two size M: bit-reversal permutation
 * and per-stage twiddle factors.
 */
class FftPlan
{
  public:
    /** Build a plan for size @p m (power of two, >= 2). */
    explicit FftPlan(size_t m);

    size_t size() const { return m_; }

    /**
     * In-place forward transform with positive exponent convention:
     * X_k = sum_j x_j * exp(+2*pi*i*j*k / M). Runs the dispatched
     * (activeKernels) backend.
     */
    void forward(Cplx *data) const;

    /**
     * In-place inverse transform (negative exponent), scaled by 1/M:
     * x_j = (1/M) sum_k X_k * exp(-2*pi*i*j*k / M).
     */
    void inverse(Cplx *data) const;

    /**
     * Batched in-place forward transform of @p batch contiguous
     * size-M members (member b at data[b*M, (b+1)*M)). Bit-identical
     * to calling forward() on each member, but the butterfly stages
     * sweep the whole batch stage-major, amortizing twiddle loads --
     * the software form of Strix's streaming FFT batch schedule.
     */
    void forwardBatch(Cplx *data, size_t batch) const;

    /** forward() through an explicit kernel table (A/B testing). */
    void forward(Cplx *data, const PolyKernels &kernels) const;

    /** forwardBatch() through an explicit kernel table (A/B testing). */
    void forwardBatch(Cplx *data, size_t batch,
                      const PolyKernels &kernels) const;

    /** inverse() through an explicit kernel table (A/B testing). */
    void inverse(Cplx *data, const PolyKernels &kernels) const;

    /** Borrowed view of the precomputed tables for kernel calls. */
    FftTables tables() const;

    /**
     * Obtain a cached plan for size @p m. Thread-safe: the first call
     * for a size builds and publishes the plan under a lock; every
     * later call is a single lock-free acquire load. Returned
     * references stay valid for the process lifetime.
     */
    static const FftPlan &get(size_t m);

    /**
     * Build and publish the plan for size @p m ahead of time so that
     * subsequent get() calls -- including concurrent ones on the PBS
     * hot path -- never take the construction lock.
     */
    static void prewarm(size_t m);

  private:
    /** In-place bit-reversal permutation of one size-M member. */
    void bitReversePermute(Cplx *data) const;

    size_t m_;
    std::vector<uint32_t> bit_reverse_;
    /**
     * Stage-major twiddles (m-1 entries): for each stage
     * len = 2, 4, ..., m, the len/2 factors exp(+2*pi*i*j/len)
     * contiguously. See FftTables::stage_twiddles.
     */
    std::vector<Cplx> stage_twiddles_;
};

} // namespace strix

#endif // STRIX_POLY_COMPLEX_FFT_H
