/**
 * @file
 * Portable scalar kernel table: the semantic reference every vector
 * backend is cross-checked against. The butterfly math reproduces the
 * original FftPlan::transform loop bit-for-bit (the stage-major
 * twiddle table holds the same double values the old strided table
 * produced, because scaling an angle by a power of two is exact).
 */

#include <algorithm>
#include <cmath>

#include "poly/simd.h"

namespace strix {
namespace {

/**
 * Butterfly stages over @p total contiguous elements: one transform
 * when total == t.m, a stage-major batch sweep when it is a multiple.
 * Every member start is a multiple of t.m, which is a multiple of
 * every stage length, so sweeping base over the whole buffer runs the
 * per-member stage loops in one pass; each element sees exactly the
 * ops a single transform applies, so the result is bit-identical per
 * member. Conj selects forward (v*w) vs inverse (v*conj(w)).
 */
template <bool Conj>
void
butterflyStages(const FftTables &t, Cplx *data, size_t total)
{
    const Cplx *tw = t.stage_twiddles;
    for (size_t len = 2; len <= t.m; len <<= 1) {
        const size_t half = len >> 1;
        for (size_t base = 0; base < total; base += len) {
            for (size_t j = 0; j < half; ++j) {
                Cplx u = data[base + j];
                Cplx v = data[base + j + half] *
                         (Conj ? std::conj(tw[j]) : tw[j]);
                data[base + j] = u + v;
                data[base + j + half] = u - v;
            }
        }
        tw += half;
    }
}

void
fftForwardScalar(const FftTables &t, Cplx *data)
{
    butterflyStages<false>(t, data, t.m);
}

void
fftForwardBatchScalar(const FftTables &t, Cplx *data, size_t batch)
{
    butterflyStages<false>(t, data, t.m * batch);
}

void
fftInverseScalar(const FftTables &t, Cplx *data)
{
    butterflyStages<true>(t, data, t.m);
}

/** Fold+twist, stored bit-reversed (the first half of negacyclicForward). */
void
twistBatch(const FftTables &t, Cplx *out, const int32_t *coeffs,
           const Cplx *tw, size_t batch)
{
    const size_t m = t.m;
    for (size_t b = 0; b < batch; ++b) {
        const int32_t *lo = coeffs + b * 2 * m;
        const int32_t *hi = lo + m;
        Cplx *row = out + b * m;
        for (size_t j = 0; j < m; ++j) {
            Cplx u(static_cast<double>(lo[j]), static_cast<double>(hi[j]));
            row[t.bit_reverse[j]] = u * tw[j];
        }
    }
}

/** Untwist+round (the second half of negacyclicInverse). */
void
untwist(uint32_t *lo, uint32_t *hi, const Cplx *freq, const Cplx *tw,
        size_t m)
{
    for (size_t j = 0; j < m; ++j) {
        Cplx u = freq[j] * std::conj(tw[j]);
        // Round to the integer grid and wrap mod 2^32. The kernel
        // contract (simd.h) bounds |u| < 2^51, so llround never
        // overflows int64 and the vector backends' magic-number
        // rounding agrees with this reference.
        lo[j] = static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.real())));
        hi[j] = static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.imag())));
    }
}

/** The fold+twist loop, then the batched forward stages. */
void
negacyclicForwardScalar(const FftTables &t, Cplx *out,
                        const int32_t *coeffs, const Cplx *tw,
                        size_t batch)
{
    twistBatch(t, out, coeffs, tw, batch);
    butterflyStages<false>(t, out, t.m * batch);
}

/** The inverse stages, then the untwist+round loop. */
void
negacyclicInverseScalar(const FftTables &t, uint32_t *lo, uint32_t *hi,
                        Cplx *work, const Cplx *untw)
{
    butterflyStages<true>(t, work, t.m);
    untwist(lo, hi, work, untw, t.m);
}

void
mulAccumulateScalar(Cplx *out, const Cplx *a, const Cplx *b, size_t m)
{
    for (size_t i = 0; i < m; ++i)
        out[i] += a[i] * b[i];
}

void
mulAccumulateColumnsScalar(const FftTables &t, Cplx *acc, const Cplx *a,
                           const Cplx *const *b, size_t nrows,
                           size_t ncols)
{
    const size_t m = t.m;
    for (size_t c = 0; c < ncols; ++c) {
        Cplx *col = acc + c * m;
        for (size_t i = 0; i < m; ++i) {
            Cplx sum(0.0, 0.0);
            for (size_t r = 0; r < nrows; ++r)
                sum += a[r * m + i] * b[r * ncols + c][i];
            col[t.bit_reverse[i]] = sum;
        }
    }
}

void
subScaledRowScalar(uint32_t *out, const uint32_t *row, uint32_t digit,
                   size_t len)
{
    for (size_t i = 0; i < len; ++i)
        out[i] -= digit * row[i];
}

/** The schoolbook sum: out = sum over key[j] = 1 of X^j * mask. */
void
binaryKeyProductScalar(uint32_t *out, const int32_t *key,
                       const uint32_t *mask, uint32_t *, size_t n)
{
    std::fill(out, out + n, 0u);
    for (size_t j = 0; j < n; ++j) {
        if (key[j] == 0)
            continue;
        // X^j wraps coefficient p - j below zero around to -mask[n+p-j].
        for (size_t p = 0; p < j; ++p)
            out[p] -= mask[n + p - j];
        for (size_t p = j; p < n; ++p)
            out[p] += mask[p - j];
    }
}

const PolyKernels kScalarKernels = {
    "scalar",
    fftForwardScalar,
    fftForwardBatchScalar,
    fftInverseScalar,
    negacyclicForwardScalar,
    negacyclicInverseScalar,
    mulAccumulateScalar,
    mulAccumulateColumnsScalar,
    subScaledRowScalar,
    binaryKeyProductScalar,
};

} // namespace

const PolyKernels &
scalarKernels()
{
    return kScalarKernels;
}

} // namespace strix
