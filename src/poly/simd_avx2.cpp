/**
 * @file
 * AVX2+FMA kernel table. This is the only translation unit compiled
 * with -mavx2 -mfma; it must never be entered on a CPU without those
 * features, which avx2Kernels() guarantees by probing CPUID before
 * publishing the table.
 *
 * Data layout: std::complex<double> is array-of-two-doubles, so one
 * __m256d holds two complex values [re0 im0 re1 im1]. A complex
 * multiply is then a movedup/permute pair plus one FMA:
 *   even lanes  re = vr*wr - vi*wi   (fmaddsub subtracts on evens)
 *   odd  lanes  im = vi*wr + vr*wi   (adds on odds)
 * and multiplying by the conjugate just swaps fmaddsub for fmsubadd.
 *
 * The stage-major twiddle table (FftTables::stage_twiddles) makes
 * every butterfly's twiddle load a contiguous unaligned load; the old
 * strided layout would have needed gathers.
 */

#include "poly/simd.h"

#if !defined(__AVX2__) || !defined(__FMA__)
#error "simd_avx2.cpp must be compiled with -mavx2 -mfma"
#endif

#include <immintrin.h>

#include <cmath>

namespace strix {
namespace {

/** [a0*b0, a1*b1] for 2 packed complex doubles per register. */
inline __m256d
cplxMul(__m256d a, __m256d b)
{
    __m256d br = _mm256_movedup_pd(b);     // [br0 br0 br1 br1]
    __m256d bi = _mm256_permute_pd(b, 0xF); // [bi0 bi0 bi1 bi1]
    __m256d as = _mm256_permute_pd(a, 0x5); // [ai0 ar0 ai1 ar1]
    return _mm256_fmaddsub_pd(a, br, _mm256_mul_pd(as, bi));
}

/** [a0*conj(b0), a1*conj(b1)]. */
inline __m256d
cplxMulConj(__m256d a, __m256d b)
{
    __m256d br = _mm256_movedup_pd(b);
    __m256d bi = _mm256_permute_pd(b, 0xF);
    __m256d as = _mm256_permute_pd(a, 0x5);
    return _mm256_fmsubadd_pd(a, br, _mm256_mul_pd(as, bi));
}

/**
 * First butterfly stage (len = 2, twiddle 1): adjacent-pair
 * sum/difference, two complex values per register.
 */
inline void
stageLen2(double *d, size_t m)
{
    for (size_t i = 0; i < m; i += 2) {
        __m256d x = _mm256_loadu_pd(d + 2 * i); // [c_i, c_{i+1}]
        __m256d sw = _mm256_permute2f128_pd(x, x, 0x01);
        __m256d sum = _mm256_add_pd(x, sw);
        // sw - x puts c_i - c_{i+1} in the *upper* lane, which is
        // where the blend takes it from.
        __m256d diff = _mm256_sub_pd(sw, x);
        // [c_i + c_{i+1}, c_i - c_{i+1}]
        _mm256_storeu_pd(d + 2 * i, _mm256_blend_pd(sum, diff, 0xC));
    }
}

/**
 * One butterfly stage of length @p len swept over @p span contiguous
 * elements; span is the transform size for a single FFT and the whole
 * chunk (members * m) for the batched sweep. Conj selects forward
 * (v*w) vs inverse (v*conj(w)).
 */
template <bool Conj>
inline void
stageSweep(double *d, const Cplx *tw, size_t len, size_t span)
{
    const size_t half = len >> 1;
    const double *twd = reinterpret_cast<const double *>(tw);
    for (size_t base = 0; base < span; base += len) {
        double *lo = d + 2 * base;
        double *hi = d + 2 * (base + half);
        size_t j = 0;
        // Two independent butterfly vectors per iteration keeps
        // both FMA ports busy.
        for (; j + 4 <= half; j += 4) {
            __m256d w0 = _mm256_loadu_pd(twd + 2 * j);
            __m256d w1 = _mm256_loadu_pd(twd + 2 * j + 4);
            __m256d u0 = _mm256_loadu_pd(lo + 2 * j);
            __m256d u1 = _mm256_loadu_pd(lo + 2 * j + 4);
            __m256d v0 = _mm256_loadu_pd(hi + 2 * j);
            __m256d v1 = _mm256_loadu_pd(hi + 2 * j + 4);
            __m256d p0 = Conj ? cplxMulConj(v0, w0) : cplxMul(v0, w0);
            __m256d p1 = Conj ? cplxMulConj(v1, w1) : cplxMul(v1, w1);
            _mm256_storeu_pd(lo + 2 * j, _mm256_add_pd(u0, p0));
            _mm256_storeu_pd(lo + 2 * j + 4, _mm256_add_pd(u1, p1));
            _mm256_storeu_pd(hi + 2 * j, _mm256_sub_pd(u0, p0));
            _mm256_storeu_pd(hi + 2 * j + 4, _mm256_sub_pd(u1, p1));
        }
        for (; j < half; j += 2) {
            __m256d w = _mm256_loadu_pd(twd + 2 * j);
            __m256d u = _mm256_loadu_pd(lo + 2 * j);
            __m256d v = _mm256_loadu_pd(hi + 2 * j);
            __m256d p = Conj ? cplxMulConj(v, w) : cplxMul(v, w);
            _mm256_storeu_pd(lo + 2 * j, _mm256_add_pd(u, p));
            _mm256_storeu_pd(hi + 2 * j, _mm256_sub_pd(u, p));
        }
    }
}

/** Shared stage loop; Conj selects forward (v*w) vs inverse (v*conj(w)). */
template <bool Conj>
inline void
butterflyStages(const FftTables &t, Cplx *data)
{
    double *d = reinterpret_cast<double *>(data);
    const size_t m = t.m;
    stageLen2(d, m);
    const Cplx *tw = t.stage_twiddles + 1; // past the len=2 stage
    for (size_t len = 4; len <= m; len <<= 1) {
        stageSweep<Conj>(d, tw, len, m);
        tw += len >> 1;
    }
}

void
fftForwardAvx2(const FftTables &t, Cplx *data)
{
    butterflyStages<false>(t, data);
}

/**
 * One L1-resident chunk of the batched forward FFT (members already
 * bit-reversed): every butterfly stage sweeps the whole chunk before
 * the next stage runs. Member starts are multiples of t.m, which
 * every stage length divides, so one base sweep over batch*m elements
 * never straddles a member.
 *
 * The batch win is twiddle amortization: the three smallest
 * twiddle-bearing stages (len 4/8/16) keep the entire stage twiddle
 * set in registers for the whole sweep, where the per-poly path
 * reloads it for every transform; the larger stages reuse the exact
 * loop of butterflyStages over the longer span. Every element sees
 * the same add/sub/FMA sequence the single-transform kernel applies,
 * so results are bit-identical to per-member fftForwardAvx2 (the
 * tests assert equality, not ULP closeness).
 */
void
fftForwardBatchChunkAvx2(const FftTables &t, Cplx *data, size_t batch)
{
    double *d = reinterpret_cast<double *>(data);
    const size_t m = t.m;
    const size_t total = m * batch;
    stageLen2(d, total);
    const Cplx *tw = t.stage_twiddles + 1; // past the len=2 stage
    if (m >= 4) { // len = 4, half = 2: one hoisted register
        const __m256d w =
            _mm256_loadu_pd(reinterpret_cast<const double *>(tw));
        for (size_t base = 0; base < total; base += 4) {
            double *lo = d + 2 * base;
            double *hi = lo + 4;
            __m256d u = _mm256_loadu_pd(lo);
            __m256d v = _mm256_loadu_pd(hi);
            __m256d p = cplxMul(v, w);
            _mm256_storeu_pd(lo, _mm256_add_pd(u, p));
            _mm256_storeu_pd(hi, _mm256_sub_pd(u, p));
        }
        tw += 2;
    }
    if (m >= 8) { // len = 8, half = 4: two hoisted registers
        const double *twd = reinterpret_cast<const double *>(tw);
        const __m256d w0 = _mm256_loadu_pd(twd);
        const __m256d w1 = _mm256_loadu_pd(twd + 4);
        for (size_t base = 0; base < total; base += 8) {
            double *lo = d + 2 * base;
            double *hi = lo + 8;
            __m256d u0 = _mm256_loadu_pd(lo);
            __m256d u1 = _mm256_loadu_pd(lo + 4);
            __m256d v0 = _mm256_loadu_pd(hi);
            __m256d v1 = _mm256_loadu_pd(hi + 4);
            __m256d p0 = cplxMul(v0, w0);
            __m256d p1 = cplxMul(v1, w1);
            _mm256_storeu_pd(lo, _mm256_add_pd(u0, p0));
            _mm256_storeu_pd(lo + 4, _mm256_add_pd(u1, p1));
            _mm256_storeu_pd(hi, _mm256_sub_pd(u0, p0));
            _mm256_storeu_pd(hi + 4, _mm256_sub_pd(u1, p1));
        }
        tw += 4;
    }
    if (m >= 16) { // len = 16, half = 8: four hoisted registers
        const double *twd = reinterpret_cast<const double *>(tw);
        const __m256d w0 = _mm256_loadu_pd(twd);
        const __m256d w1 = _mm256_loadu_pd(twd + 4);
        const __m256d w2 = _mm256_loadu_pd(twd + 8);
        const __m256d w3 = _mm256_loadu_pd(twd + 12);
        for (size_t base = 0; base < total; base += 16) {
            double *lo = d + 2 * base;
            double *hi = lo + 16;
            __m256d u0 = _mm256_loadu_pd(lo);
            __m256d u1 = _mm256_loadu_pd(lo + 4);
            __m256d v0 = _mm256_loadu_pd(hi);
            __m256d v1 = _mm256_loadu_pd(hi + 4);
            __m256d p0 = cplxMul(v0, w0);
            __m256d p1 = cplxMul(v1, w1);
            _mm256_storeu_pd(lo, _mm256_add_pd(u0, p0));
            _mm256_storeu_pd(lo + 4, _mm256_add_pd(u1, p1));
            _mm256_storeu_pd(hi, _mm256_sub_pd(u0, p0));
            _mm256_storeu_pd(hi + 4, _mm256_sub_pd(u1, p1));
            __m256d u2 = _mm256_loadu_pd(lo + 8);
            __m256d u3 = _mm256_loadu_pd(lo + 12);
            __m256d v2 = _mm256_loadu_pd(hi + 8);
            __m256d v3 = _mm256_loadu_pd(hi + 12);
            __m256d p2 = cplxMul(v2, w2);
            __m256d p3 = cplxMul(v3, w3);
            _mm256_storeu_pd(lo + 8, _mm256_add_pd(u2, p2));
            _mm256_storeu_pd(lo + 12, _mm256_add_pd(u3, p3));
            _mm256_storeu_pd(hi + 8, _mm256_sub_pd(u2, p2));
            _mm256_storeu_pd(hi + 12, _mm256_sub_pd(u3, p3));
        }
        tw += 8;
    }
    for (size_t len = 32; len <= m; len <<= 1) {
        stageSweep<false>(d, tw, len, total);
        tw += len >> 1;
    }
}

/**
 * Batched forward FFT. The stage-major sweep re-touches a chunk's
 * entire data once per stage, so the chunk working set is capped near
 * 32 KiB (half a typical L1d): members beyond that are processed as
 * consecutive L1-resident chunks. This keeps the small-stage twiddle
 * amortization where it pays (many members per chunk at the external
 * product's m = N/2 sizes) without turning large-m sweeps into
 * L2-streaming loops. Chunking only changes the order independent
 * members are processed in, never the per-member arithmetic.
 */
void
fftForwardBatchAvx2(const FftTables &t, Cplx *data, size_t batch)
{
    constexpr size_t kChunkPoints = 2048; // * sizeof(Cplx) = 32 KiB
    const size_t max_members =
        t.m >= kChunkPoints ? 1 : kChunkPoints / t.m;
    while (batch > 0) {
        const size_t members =
            batch < max_members ? batch : max_members;
        fftForwardBatchChunkAvx2(t, data, members);
        data += members * t.m;
        batch -= members;
    }
}

void
fftInverseAvx2(const FftTables &t, Cplx *data)
{
    butterflyStages<true>(t, data);
}

/** Store the two complex values of @p v at slots @p i0 and @p i1. */
inline void
storePair(double *d, size_t i0, size_t i1, __m256d v)
{
    _mm_storeu_pd(d + 2 * i0, _mm256_castpd256_pd128(v));
    _mm_storeu_pd(d + 2 * i1, _mm256_extractf128_pd(v, 1));
}

/**
 * Batched fold+twist: point j of row b, (lo[j] + i*hi[j]) * tw[j], is
 * stored at its bit-reversed slot out[b*m + rev[j]], one 128-bit half
 * of a register per point.
 */
void
twistBatchAvx2(const FftTables &t, Cplx *out, const int32_t *coeffs,
               const Cplx *tw, size_t batch)
{
    const size_t m = t.m;
    const uint32_t *rev = t.bit_reverse;
    const double *twd = reinterpret_cast<const double *>(tw);
    for (size_t b = 0; b < batch; ++b) {
        const int32_t *lo = coeffs + b * 2 * m;
        const int32_t *hi = lo + m;
        Cplx *row = out + b * m;
        double *o = reinterpret_cast<double *>(row);
        size_t j = 0;
        for (; j + 4 <= m; j += 4) {
            __m256d re = _mm256_cvtepi32_pd(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(lo + j)));
            __m256d im = _mm256_cvtepi32_pd(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(hi + j)));
            // Interleave [r0..r3]/[i0..i3] into packed complex pairs.
            __m256d t0 = _mm256_unpacklo_pd(re, im); // [r0 i0 r2 i2]
            __m256d t1 = _mm256_unpackhi_pd(re, im); // [r1 i1 r3 i3]
            __m256d c01 = cplxMul(_mm256_permute2f128_pd(t0, t1, 0x20),
                                  _mm256_loadu_pd(twd + 2 * j));
            __m256d c23 = cplxMul(_mm256_permute2f128_pd(t0, t1, 0x31),
                                  _mm256_loadu_pd(twd + 2 * j + 4));
            storePair(o, rev[j], rev[j + 1], c01);
            storePair(o, rev[j + 2], rev[j + 3], c23);
        }
        for (; j < m; ++j)
            row[rev[j]] = Cplx(static_cast<double>(lo[j]),
                               static_cast<double>(hi[j])) *
                          tw[j];
    }
}

void
untwistAvx2(uint32_t *lo, uint32_t *hi, const Cplx *freq, const Cplx *tw,
            size_t m)
{
    const double *f = reinterpret_cast<const double *>(freq);
    const double *twd = reinterpret_cast<const double *>(tw);
    // 2^52 + 2^51: adding it forces round-to-nearest onto the integer
    // grid and leaves value mod 2^32 in the low mantissa dword; exact
    // on the kernel contract's |u| < 2^51 domain (simd.h). External-
    // product sums typically sit near 2^45 but can reach 2^52 at set
    // I in the worst case, so that domain is a statistical margin,
    // not a guarantee. Ties round to even where the scalar reference
    // rounds away from zero -- a <=1 ulp difference the tests allow.
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
        __m256d u01 = cplxMulConj(_mm256_loadu_pd(f + 2 * j),
                                  _mm256_loadu_pd(twd + 2 * j));
        __m256d u23 = cplxMulConj(_mm256_loadu_pd(f + 2 * j + 4),
                                  _mm256_loadu_pd(twd + 2 * j + 4));
        // Deinterleave packed complex pairs into [r0..r3]/[i0..i3].
        __m256d t0 = _mm256_permute2f128_pd(u01, u23, 0x20);
        __m256d t1 = _mm256_permute2f128_pd(u01, u23, 0x31);
        __m256d re = _mm256_unpacklo_pd(t0, t1);
        __m256d im = _mm256_unpackhi_pd(t0, t1);
        __m256i rei = _mm256_castpd_si256(_mm256_add_pd(re, magic));
        __m256i imi = _mm256_castpd_si256(_mm256_add_pd(im, magic));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(lo + j),
            _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(rei, pick)));
        _mm_storeu_si128(
            reinterpret_cast<__m128i *>(hi + j),
            _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(imi, pick)));
    }
    for (; j < m; ++j) {
        Cplx u = freq[j] * std::conj(tw[j]);
        lo[j] = static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.real())));
        hi[j] = static_cast<uint32_t>(
            static_cast<int64_t>(std::llround(u.imag())));
    }
}

void
mulAccumulateAvx2(Cplx *out, const Cplx *a, const Cplx *b, size_t m)
{
    double *o = reinterpret_cast<double *>(out);
    const double *ad = reinterpret_cast<const double *>(a);
    const double *bd = reinterpret_cast<const double *>(b);
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
        __m256d s0 = _mm256_add_pd(
            _mm256_loadu_pd(o + 2 * i),
            cplxMul(_mm256_loadu_pd(ad + 2 * i),
                    _mm256_loadu_pd(bd + 2 * i)));
        __m256d s1 = _mm256_add_pd(
            _mm256_loadu_pd(o + 2 * i + 4),
            cplxMul(_mm256_loadu_pd(ad + 2 * i + 4),
                    _mm256_loadu_pd(bd + 2 * i + 4)));
        _mm256_storeu_pd(o + 2 * i, s0);
        _mm256_storeu_pd(o + 2 * i + 4, s1);
    }
    for (; i + 2 <= m; i += 2) {
        __m256d s = _mm256_add_pd(
            _mm256_loadu_pd(o + 2 * i),
            cplxMul(_mm256_loadu_pd(ad + 2 * i),
                    _mm256_loadu_pd(bd + 2 * i)));
        _mm256_storeu_pd(o + 2 * i, s);
    }
    for (; i < m; ++i)
        out[i] += a[i] * b[i];
}

/**
 * Fused external-product MAC. Per output column, two registers (four
 * points) accumulate every digit row's product from +0.0 in row
 * order -- the same add(acc, cplxMul(digit, row)) sequence
 * mulAccumulateAvx2 applies per call, so the sums are bit-identical
 * to zero-filled accumulators fed one row at a time -- and are then
 * stored once, each point at its bit-reversed slot. cplxMul rounds
 * its two products differently under FMA, so the operand order
 * (digit, row) is part of that contract.
 */
void
mulAccumulateColumnsAvx2(const FftTables &t, Cplx *acc, const Cplx *a,
                         const Cplx *const *b, size_t nrows, size_t ncols)
{
    const size_t m = t.m;
    const uint32_t *rev = t.bit_reverse;
    const double *ad = reinterpret_cast<const double *>(a);
    for (size_t c = 0; c < ncols; ++c) {
        double *col = reinterpret_cast<double *>(acc + c * m);
        const Cplx *const *bc = b + c;
        size_t i = 0;
        for (; i + 4 <= m; i += 4) {
            __m256d s0 = _mm256_setzero_pd();
            __m256d s1 = _mm256_setzero_pd();
            for (size_t r = 0; r < nrows; ++r) {
                const double *ar = ad + 2 * (r * m + i);
                const double *br =
                    reinterpret_cast<const double *>(bc[r * ncols]) + 2 * i;
                s0 = _mm256_add_pd(s0, cplxMul(_mm256_loadu_pd(ar),
                                               _mm256_loadu_pd(br)));
                s1 = _mm256_add_pd(s1, cplxMul(_mm256_loadu_pd(ar + 4),
                                               _mm256_loadu_pd(br + 4)));
            }
            storePair(col, rev[i], rev[i + 1], s0);
            storePair(col, rev[i + 2], rev[i + 3], s1);
        }
        // m = 2, the smallest plan, fills one register.
        for (; i + 2 <= m; i += 2) {
            __m256d s = _mm256_setzero_pd();
            for (size_t r = 0; r < nrows; ++r) {
                const double *ar = ad + 2 * (r * m + i);
                const double *br =
                    reinterpret_cast<const double *>(bc[r * ncols]) + 2 * i;
                s = _mm256_add_pd(s, cplxMul(_mm256_loadu_pd(ar),
                                             _mm256_loadu_pd(br)));
            }
            storePair(col, rev[i], rev[i + 1], s);
        }
    }
}

/**
 * Keyswitch row step, eight lanes per vpmulld/vpsubd pair. Integer
 * arithmetic mod 2^32, so the result is exact at any width.
 */
void
subScaledRowAvx2(uint32_t *out, const uint32_t *row, uint32_t digit,
                 size_t len)
{
    const __m256i d = _mm256_set1_epi32(static_cast<int32_t>(digit));
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        __m256i *o = reinterpret_cast<__m256i *>(out + i);
        const __m256i r =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(row + i));
        _mm256_storeu_si256(
            o, _mm256_sub_epi32(_mm256_loadu_si256(o),
                                _mm256_mullo_epi32(r, d)));
    }
    for (; i < len; ++i)
        out[i] -= digit * row[i];
}

const PolyKernels kAvx2Kernels = {
    "avx2",
    fftForwardAvx2,
    fftForwardBatchAvx2,
    fftInverseAvx2,
    twistBatchAvx2,
    untwistAvx2,
    mulAccumulateAvx2,
    mulAccumulateColumnsAvx2,
    subScaledRowAvx2,
};

} // namespace

const PolyKernels *
avx2Kernels()
{
    // The table itself is feature-independent data; the probe keeps a
    // non-AVX2 machine from ever calling into this TU's code.
    static const PolyKernels *const published =
        cpuSupportsAvx2Fma() ? &kAvx2Kernels : nullptr;
    return published;
}

} // namespace strix
