/**
 * @file
 * Runtime-dispatched kernel tables for the hot loops of a software PBS.
 *
 * Almost every cycle of a PBS is spent in these loops: the negacyclic
 * forward transform (fold+twist, then the FFT butterfly stages), its
 * inverse (the stages, then untwist+round), the frequency-domain
 * multiply-accumulate of the external product, and the row
 * subtraction of the keyswitch -- plus the one product keygen and
 * decryption spend their time in, a binary GLWE key times a torus
 * polynomial. This header exposes them as a table of
 * C function pointers so that one CPUID check at startup -- not an
 * #ifdef at build time -- decides whether the AVX2+FMA implementations
 * or the portable scalar reference runs.
 *
 * An external product streams through the table once, with no pass
 * that only permutes, clears, copies or scales: negacyclicForward and
 * mulAccumulateColumns store bit-reversed for the stage-only FFT, and
 * the untwist table carries the inverse's 1/m. The two negacyclic
 * entries each run a whole transform, so a backend may fuse stages
 * that would otherwise each be a pass over memory: the AVX2 table runs
 * the first two forward stages inside the fold+twist, the middle
 * stages two per sweep (radix-2^2), and the last two inverse stages
 * inside the untwist+round. On each table, negacyclicForward equals (==) the
 * fold+twist followed by fftForwardBatch, negacyclicInverse equals
 * fftInverse followed by the untwist, mulAccumulateColumns equals
 * zero-filled accumulators fed by per-row mulAccumulate calls and
 * then bit-reversed, and the stage-only inverse plus the 1/m untwist
 * table equals FftPlan::inverse plus an untwist by the unscaled table;
 * tests/test_fft.cpp pins all four.
 *
 * Dispatch contract:
 *  - scalarKernels() is always available and is the semantic
 *    reference; the vector backends must match it to floating-point
 *    rounding (tests/test_fft.cpp cross-checks every table entry over
 *    every plan size the parameter sets use) and exactly on the
 *    integer entries (subScaledRow, binaryKeyProduct).
 *  - avx2Kernels() returns nullptr unless the binary was built with
 *    STRIX_SIMD=ON *and* the running CPU reports AVX2 and FMA.
 *  - activeKernels() picks the best available table once (latched on
 *    first call); setting the environment variable STRIX_FORCE_SCALAR
 *    to anything but "0"/"" before first use forces the scalar table,
 *    which is how the benchmarks A/B the two paths in one binary.
 *
 * Adding a backend (NEON, AVX-512) means adding one translation unit
 * defining another PolyKernels table plus a probe in simd.cpp --
 * nothing above src/poly changes.
 */

#ifndef STRIX_POLY_SIMD_H
#define STRIX_POLY_SIMD_H

#include <cstddef>
#include <cstdint>

#include "poly/complex_fft.h"

namespace strix {

/**
 * Borrowed view of one FftPlan's precomputed tables, laid out for
 * vector-friendly access.
 */
struct FftTables
{
    size_t m;                    //!< transform size (power of two >= 2)
    const uint32_t *bit_reverse; //!< m permutation indices
    /**
     * Stage-major twiddles: for stage len = 2, 4, ..., m (in that
     * order), the len/2 factors w_len^j = exp(+2*pi*i*j/len) stored
     * contiguously; m-1 entries total. Contiguous per-stage storage is
     * what lets the vector butterflies load twiddles with plain
     * unaligned loads instead of gathers.
     */
    const Cplx *stage_twiddles;
};

/**
 * One backend's implementations of the hot loops. All pointers are
 * non-null in a published table.
 *
 * The three FFT entries are butterfly stages only: their input is in
 * bit-reversed order and their output in natural order. FftPlan's
 * natural-order API applies the permutation (and the inverse's 1/m)
 * around them; the negacyclic entries need neither, because their
 * fold+twist and mulAccumulateColumns store bit-reversed directly.
 */
struct PolyKernels
{
    const char *name; //!< "scalar", "avx2", ... (stable, test-visible)

    /**
     * In-place forward DIT butterfly stages (positive exponent) on a
     * bit-reversed input, leaving the spectrum in natural order.
     */
    void (*fftForward)(const FftTables &t, Cplx *data);

    /**
     * Batched fftForward over @p batch contiguous transforms: member b
     * occupies data[b*m, (b+1)*m), already bit-reversed. Semantically
     * identical to calling fftForward on each member -- the tests
     * assert bit-exact agreement -- but the stage loop is fused: each
     * butterfly stage sweeps the whole batch before the next stage
     * runs. Member starts are multiples of m (itself a multiple of
     * every stage length), so one base sweep over batch*m elements
     * never straddles a member boundary, and the vector backend can
     * hoist a small stage's twiddles into registers once per stage
     * instead of reloading them per transform. This is the software
     * analogue of Strix's streaming FFT: the (k+1)*l decomposition
     * digits of an external product go through the plan as one
     * scheduled batch.
     */
    void (*fftForwardBatch)(const FftTables &t, Cplx *data, size_t batch);

    /**
     * In-place inverse butterfly stages (negative exponent) on a
     * bit-reversed input, leaving natural order, *unscaled*: the
     * output is m times the inverse DFT. NegacyclicFft folds the 1/m
     * into its untwist table; FftPlan::inverse scales explicitly.
     */
    void (*fftInverse)(const FftTables &t, Cplx *data);

    /**
     * Forward negacyclic transform of @p batch contiguous polynomials,
     * leaving natural-order spectra: row b of @p coeffs is the
     * length-2m coefficient array of one polynomial (signed centered
     * lift for torus inputs), with lo = coeffs + b*2m and hi = lo + m.
     * Its point (lo[j] + i*hi[j]) * tw[j] is folded and twisted into
     * out[b*m + t.bit_reverse[j]], and the forward butterfly stages
     * then run on the batch. Equal (==) on each table to that fold+twist
     * followed by fftForwardBatch: every element goes through the same
     * complex multiplies, adds and subtracts in the same order, and
     * only when values reach memory changes.
     */
    void (*negacyclicForward)(const FftTables &t, Cplx *out,
                              const int32_t *coeffs, const Cplx *tw,
                              size_t batch);

    /**
     * Inverse negacyclic transform of one spectrum held in bit-reversed
     * order in @p work (m points, clobbered): the inverse butterfly
     * stages, then untwist+round -- for x the natural-order stage
     * output and u = x[j] * conj(untw[j]), store round(u.re) mod 2^32
     * into lo[j] and round(u.im) mod 2^32 into hi[j]. Equal (==) on
     * each table to fftInverse followed by that untwist.
     *
     * Contract: |u| < 2^51 for every element. That is the validity
     * bound of the vector backends' magic-number rounding (and what
     * keeps llround inside int64). It is a statistical margin, not a
     * guarantee: one decomposed product is bounded by
     * N * Bg/2 * 2^31 (2^50 at set I), and an external-product column
     * sums (k+1)*l of them, so set I's worst case is 4 * 2^50 = 2^52.
     * Real digits and key rows are uniform-looking, so the sums
     * random-walk to around 2^45, far inside the contract. Backends
     * may differ on exact-.5 ties (round-half-even vs half-away), a
     * one-ulp slack the tests allow.
     */
    void (*negacyclicInverse)(const FftTables &t, uint32_t *lo,
                              uint32_t *hi, Cplx *work, const Cplx *untw);

    /** out[i] += a[i] * b[i] for i in [0, m). */
    void (*mulAccumulate)(Cplx *out, const Cplx *a, const Cplx *b,
                          size_t m);

    /**
     * Fused external-product MAC: for every output column c < ncols
     * and point i < m,
     *   acc[c*m + t.bit_reverse[i]] =
     *       sum over r = 0, 1, ..., nrows-1 of a[r*m + i] * b[r*ncols + c][i],
     * accumulated from +0.0 in that row order -- the order, and
     * therefore the bits, of zero-filled accumulators fed by one
     * mulAccumulate call per row. The sum stays in registers across
     * the rows and is stored once, bit-reversed for fftInverse.
     * @p b holds nrows*ncols row pointers.
     */
    void (*mulAccumulateColumns)(const FftTables &t, Cplx *acc,
                                 const Cplx *a, const Cplx *const *b,
                                 size_t nrows, size_t ncols);

    /**
     * Keyswitch row step: out[i] -= digit * row[i] (mod 2^32) for i in
     * [0, len). Integer arithmetic, so every backend is exact.
     */
    void (*subScaledRow)(uint32_t *out, const uint32_t *row,
                         uint32_t digit, size_t len);

    /**
     * Exact negacyclic product of a 0/1 polynomial by a torus
     * polynomial: out = key * mask mod (X^n + 1), every sum mod 2^32,
     * for the key products of GLWE encryption and decryption. Integer
     * arithmetic, so every backend equals (==) negacyclicMulKaratsuba.
     * Each key[j] must be 0 or 1. @p work is 3n words of scratch the
     * caller owns, so the entry allocates nothing; @p out aliases
     * neither @p mask nor @p work.
     */
    void (*binaryKeyProduct)(uint32_t *out, const int32_t *key,
                             const uint32_t *mask, uint32_t *work,
                             size_t n);
};

/** Portable reference table; always built, never null. */
const PolyKernels &scalarKernels();

/**
 * AVX2+FMA table, or nullptr when the build disabled STRIX_SIMD, the
 * compiler cannot target AVX2, or the running CPU lacks AVX2/FMA.
 */
const PolyKernels *avx2Kernels();

/** CPUID probe: does this machine support AVX2 and FMA? */
bool cpuSupportsAvx2Fma();

/** True when STRIX_FORCE_SCALAR is set (non-empty, not "0"). */
bool simdForcedScalar();

/**
 * The table every FftPlan/NegacyclicFft call uses by default.
 * Selected once on first use: scalar if forced or nothing better
 * probes, otherwise the best vector backend. Thread-safe (magic
 * static).
 */
const PolyKernels &activeKernels();

// NOTE for backend authors: keep helpers a backend TU calls file-local
// rather than shared header inlines. A header-inline function
// compiled into the AVX2 TU would be emitted under -mavx2, and the
// linker may keep that VEX-encoded comdat copy for *all* TUs --
// leaking AVX instructions into the scalar path on machines the
// dispatch is meant to protect.

} // namespace strix

#endif // STRIX_POLY_SIMD_H
