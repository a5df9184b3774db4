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

/** Points per L1-resident chunk of a batched forward sweep. */
constexpr size_t kChunkPoints = 2048; // * sizeof(Cplx) = 32 KiB

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
 * Fold+twist of four consecutive points j..j+3 of one row: returns
 * (lo[j+p] + i*hi[j+p]) * tw[j+p] as the packed pairs @p c01 (p = 0, 1)
 * and @p c23 (p = 2, 3). @p twd points at tw[j].
 */
inline void
twistFour(const int32_t *lo, const int32_t *hi, const double *twd,
          __m256d &c01, __m256d &c23)
{
    __m256d re = _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(lo)));
    __m256d im = _mm256_cvtepi32_pd(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(hi)));
    // Interleave [r0..r3]/[i0..i3] into packed complex pairs.
    __m256d t0 = _mm256_unpacklo_pd(re, im); // [r0 i0 r2 i2]
    __m256d t1 = _mm256_unpackhi_pd(re, im); // [r1 i1 r3 i3]
    c01 = cplxMul(_mm256_permute2f128_pd(t0, t1, 0x20),
                  _mm256_loadu_pd(twd));
    c23 = cplxMul(_mm256_permute2f128_pd(t0, t1, 0x31),
                  _mm256_loadu_pd(twd + 4));
}

/**
 * Batched fold+twist: point j of row b, (lo[j] + i*hi[j]) * tw[j], is
 * stored at its bit-reversed slot out[b*m + rev[j]], one 128-bit half
 * of a register per point. The unfused first half of
 * negacyclicForwardAvx2, which runs it below m = 16.
 */
void
twistBatch(const FftTables &t, Cplx *out, const int32_t *coeffs,
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
            __m256d c01, c23;
            twistFour(lo + j, hi + j, twd + 2 * j, c01, c23);
            storePair(o, rev[j], rev[j + 1], c01);
            storePair(o, rev[j + 2], rev[j + 3], c23);
        }
        // m = 2. The twiddle-first operand order gives the bits this
        // table has always produced here, where a std::complex product
        // left the FMA contraction to the compiler.
        for (; j < m; j += 2) {
            const __m256d c = _mm256_setr_pd(
                static_cast<double>(lo[j]), static_cast<double>(hi[j]),
                static_cast<double>(lo[j + 1]),
                static_cast<double>(hi[j + 1]));
            storePair(o, rev[j], rev[j + 1],
                      cplxMul(_mm256_loadu_pd(twd + 2 * j), c));
        }
    }
}

/**
 * Untwist+round of four natural-order points held as two packed
 * registers: u = x * conj(untw) for x = [x01, x23], rounded onto the
 * integer grid and stored mod 2^32 as lo[0..3] and hi[0..3].
 *
 * The rounding adds 2^52 + 2^51, which forces round-to-nearest onto
 * the integer grid and leaves value mod 2^32 in the low mantissa
 * dword; exact on the kernel contract's |u| < 2^51 domain (simd.h).
 * External-product sums typically sit near 2^45 but can reach 2^52 at
 * set I in the worst case, so that domain is a statistical margin,
 * not a guarantee. Ties round to even where the scalar reference
 * rounds away from zero -- a <=1 ulp difference the tests allow.
 */
inline void
untwistFour(uint32_t *lo, uint32_t *hi, __m256d x01, __m256d x23,
            const double *untw)
{
    const __m256d magic = _mm256_set1_pd(6755399441055744.0);
    const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
    __m256d u01 = cplxMulConj(x01, _mm256_loadu_pd(untw));
    __m256d u23 = cplxMulConj(x23, _mm256_loadu_pd(untw + 4));
    // Deinterleave packed complex pairs into [r0..r3]/[i0..i3].
    __m256d t0 = _mm256_permute2f128_pd(u01, u23, 0x20);
    __m256d t1 = _mm256_permute2f128_pd(u01, u23, 0x31);
    __m256d re = _mm256_unpacklo_pd(t0, t1);
    __m256d im = _mm256_unpackhi_pd(t0, t1);
    __m256i rei = _mm256_castpd_si256(_mm256_add_pd(re, magic));
    __m256i imi = _mm256_castpd_si256(_mm256_add_pd(im, magic));
    _mm_storeu_si128(
        reinterpret_cast<__m128i *>(lo),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(rei, pick)));
    _mm_storeu_si128(
        reinterpret_cast<__m128i *>(hi),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(imi, pick)));
}

/**
 * Untwist+round of @p m natural-order points. The unfused second half
 * of negacyclicInverseAvx2, which runs it below m = 16.
 */
void
untwist(uint32_t *lo, uint32_t *hi, const Cplx *freq, const Cplx *tw,
        size_t m)
{
    const double *f = reinterpret_cast<const double *>(freq);
    const double *twd = reinterpret_cast<const double *>(tw);
    size_t j = 0;
    for (; j + 4 <= m; j += 4)
        untwistFour(lo + j, hi + j, _mm256_loadu_pd(f + 2 * j),
                    _mm256_loadu_pd(f + 2 * j + 4), twd + 2 * j);
    // m = 2: conj(untw) times the point, rounded half away from zero,
    // the bits this table has always produced here (see twistBatch).
    for (; j < m; j += 2) {
        const __m256d conj_mask = _mm256_setr_pd(0.0, -0.0, 0.0, -0.0);
        alignas(32) double u[4];
        _mm256_store_pd(u, cplxMul(_mm256_xor_pd(_mm256_loadu_pd(twd + 2 * j),
                                                 conj_mask),
                                   _mm256_loadu_pd(f + 2 * j)));
        for (size_t p = 0; p < 2; ++p) {
            lo[j + p] = static_cast<uint32_t>(
                static_cast<int64_t>(std::llround(u[2 * p])));
            hi[j + p] = static_cast<uint32_t>(
                static_cast<int64_t>(std::llround(u[2 * p + 1])));
        }
    }
}

/**
 * One radix-2^2 butterfly group: stage len on the pairs (a, b) and
 * (c, d) with twiddle @p wl, then stage 2*len on (a, c) with @p w2a and
 * on (b, d) with @p w2b, two points per register. Each element takes
 * the multiply, add and subtract that the two single-stage sweeps
 * apply, in the same order; it only skips the store and reload
 * between them.
 */
template <bool Conj>
inline void
radix22(__m256d &a, __m256d &b, __m256d &c, __m256d &d, __m256d wl,
        __m256d w2a, __m256d w2b)
{
    const __m256d p = Conj ? cplxMulConj(b, wl) : cplxMul(b, wl);
    const __m256d a1 = _mm256_add_pd(a, p);
    const __m256d b1 = _mm256_sub_pd(a, p);
    const __m256d r = Conj ? cplxMulConj(d, wl) : cplxMul(d, wl);
    const __m256d c1 = _mm256_add_pd(c, r);
    const __m256d d1 = _mm256_sub_pd(c, r);
    const __m256d s = Conj ? cplxMulConj(c1, w2a) : cplxMul(c1, w2a);
    const __m256d u = Conj ? cplxMulConj(d1, w2b) : cplxMul(d1, w2b);
    a = _mm256_add_pd(a1, s);
    c = _mm256_sub_pd(a1, s);
    b = _mm256_add_pd(b1, u);
    d = _mm256_sub_pd(b1, u);
}

/**
 * Stages @p len and 2*len in one sweep over @p span contiguous
 * elements (len >= 4). @p tw holds the stage-len twiddles followed by
 * the stage-2len ones, as FftTables::stage_twiddles stores them. In
 * each 2*len block, points j, j+len/2, j+len and j+3len/2 (j < len/2)
 * take both stages in registers, so the sweep reads and writes the
 * data once where two single-stage sweeps would each do so.
 */
template <bool Conj>
inline void
stagePairSweep(double *d, const Cplx *tw, size_t len, size_t span)
{
    const size_t q = len >> 1;
    const double *twl = reinterpret_cast<const double *>(tw);
    const double *tw2 = twl + 2 * q;
    auto group = [d, q, len](size_t at, __m256d wl, __m256d w2a,
                             __m256d w2b) {
        double *pa = d + 2 * at;
        double *pb = pa + 2 * q;
        double *pc = pa + 2 * len;
        double *pd = pc + 2 * q;
        __m256d a = _mm256_loadu_pd(pa);
        __m256d b = _mm256_loadu_pd(pb);
        __m256d c = _mm256_loadu_pd(pc);
        __m256d e = _mm256_loadu_pd(pd);
        radix22<Conj>(a, b, c, e, wl, w2a, w2b);
        _mm256_storeu_pd(pa, a);
        _mm256_storeu_pd(pb, b);
        _mm256_storeu_pd(pc, c);
        _mm256_storeu_pd(pd, e);
    };
    if (span <= kChunkPoints) {
        // L1-resident: twiddle-stationary, so one j's twiddles are
        // split into real and imaginary parts once for every block
        // instead of once per block.
        for (size_t j = 0; j < q; j += 2) {
            const __m256d wl = _mm256_loadu_pd(twl + 2 * j);
            const __m256d w2a = _mm256_loadu_pd(tw2 + 2 * j);
            const __m256d w2b = _mm256_loadu_pd(tw2 + 2 * (j + q));
            for (size_t base = 0; base < span; base += 2 * len)
                group(base + j, wl, w2a, w2b);
        }
        return;
    }
    // Larger spans leave L1, so walk them once, block by block.
    for (size_t base = 0; base < span; base += 2 * len)
        for (size_t j = 0; j < q; j += 2)
            group(base + j, _mm256_loadu_pd(twl + 2 * j),
                  _mm256_loadu_pd(tw2 + 2 * j),
                  _mm256_loadu_pd(tw2 + 2 * (j + q)));
}

/**
 * Stages @p len through @p last of a sweep over @p span elements:
 * radix-2^2 passes while two stages remain, then one single stage if
 * the count is odd. @p tw points at stage len's twiddles on entry and
 * at the twiddles of stage 2*last on return.
 */
template <bool Conj>
inline void
middleStages(double *d, const Cplx *&tw, size_t len, size_t last,
             size_t span)
{
    for (; 2 * len <= last; len <<= 2) {
        stagePairSweep<Conj>(d, tw, len, span);
        tw += len + (len >> 1);
    }
    if (len <= last) {
        stageSweep<Conj>(d, tw, len, span);
        tw += len >> 1;
    }
}

/**
 * Fold+twist with the first two forward stages, for one row (m >= 16).
 * For j < m/4 the points j, j+m/4, j+m/2 and j+3m/4 land at the
 * bit-reversed slots rev(j), rev(j)+2, rev(j)+1 and rev(j)+3: one
 * len-4 butterfly block. Each block is twisted, takes the len-2 and
 * len-4 stages in registers and is stored as one 64-byte line, four
 * values of j per iteration.
 */
inline void
foldTwistRow(const FftTables &t, double *o, const int32_t *lo,
             const int32_t *hi, const double *twd)
{
    const size_t q = t.m >> 2;
    const uint32_t *rev = t.bit_reverse;
    // Stage 4's two twiddles, each broadcast to both halves.
    const __m256d w4 =
        _mm256_loadu_pd(reinterpret_cast<const double *>(t.stage_twiddles + 1));
    const __m256d w40 = _mm256_permute2f128_pd(w4, w4, 0x00);
    const __m256d w41 = _mm256_permute2f128_pd(w4, w4, 0x11);
    for (size_t j = 0; j < q; j += 4) {
        __m256d a[2], b[2], c[2], e[2];
        twistFour(lo + j, hi + j, twd + 2 * j, a[0], a[1]);
        twistFour(lo + j + q, hi + j + q, twd + 2 * (j + q), b[0], b[1]);
        twistFour(lo + j + 2 * q, hi + j + 2 * q, twd + 2 * (j + 2 * q),
                  c[0], c[1]);
        twistFour(lo + j + 3 * q, hi + j + 3 * q, twd + 2 * (j + 3 * q),
                  e[0], e[1]);
        for (int h = 0; h < 2; ++h) {
            // Block slots 0..3 hold a, c, b, e. len 2: (a, c), (b, e).
            const __m256d s0 = _mm256_add_pd(a[h], c[h]);
            const __m256d s1 = _mm256_sub_pd(a[h], c[h]);
            const __m256d s2 = _mm256_add_pd(b[h], e[h]);
            const __m256d s3 = _mm256_sub_pd(b[h], e[h]);
            // len 4: (s0, s2) with w4^0, (s1, s3) with w4^1.
            const __m256d p0 = cplxMul(s2, w40);
            const __m256d p1 = cplxMul(s3, w41);
            const __m256d y0 = _mm256_add_pd(s0, p0);
            const __m256d y1 = _mm256_add_pd(s1, p1);
            const __m256d y2 = _mm256_sub_pd(s0, p0);
            const __m256d y3 = _mm256_sub_pd(s1, p1);
            // Lane 0 is point j + 2h, lane 1 point j + 2h + 1.
            double *blk0 = o + 2 * size_t(rev[j + 2 * h]);
            double *blk1 = o + 2 * size_t(rev[j + 2 * h + 1]);
            _mm256_storeu_pd(blk0, _mm256_permute2f128_pd(y0, y1, 0x20));
            _mm256_storeu_pd(blk0 + 4, _mm256_permute2f128_pd(y2, y3, 0x20));
            _mm256_storeu_pd(blk1, _mm256_permute2f128_pd(y0, y1, 0x31));
            _mm256_storeu_pd(blk1 + 4, _mm256_permute2f128_pd(y2, y3, 0x31));
        }
    }
}

/**
 * Forward negacyclic transform. Each chunk of up to kChunkPoints
 * points (the L1 budget fftForwardBatchAvx2 also keeps) is folded,
 * twisted and taken through stages 2 and 4 row by row, then swept
 * through stages 8..m two at a time. Every element takes the operations of
 * twistBatch followed by fftForwardBatchAvx2, in the same order, so
 * the spectra are equal (==); only the number of passes over memory
 * falls, from log2(m) + 1 to about log2(m) / 2.
 */
void
negacyclicForwardAvx2(const FftTables &t, Cplx *out, const int32_t *coeffs,
                      const Cplx *tw, size_t batch)
{
    const size_t m = t.m;
    if (m < 16) {
        twistBatch(t, out, coeffs, tw, batch);
        fftForwardBatchAvx2(t, out, batch);
        return;
    }
    const double *twd = reinterpret_cast<const double *>(tw);
    const size_t max_members = m >= kChunkPoints ? 1 : kChunkPoints / m;
    while (batch > 0) {
        const size_t members = batch < max_members ? batch : max_members;
        double *d = reinterpret_cast<double *>(out);
        for (size_t b = 0; b < members; ++b) {
            const int32_t *lo = coeffs + b * 2 * m;
            foldTwistRow(t, d + 2 * b * m, lo, lo + m, twd);
        }
        const Cplx *stw = t.stage_twiddles + 3; // stage 8
        middleStages<false>(d, stw, 8, m, members * m);
        out += members * m;
        coeffs += members * 2 * m;
        batch -= members;
    }
}

/**
 * Inverse negacyclic transform (m >= 16 fused): stage 2, the stages up
 * to m/4 two at a time, then stages m/2 and m together with the
 * untwist+round. For j < m/4 the last two stages combine exactly the
 * four points j, j+m/4, j+m/2 and j+3m/4, so they go straight from
 * registers to the rounded outputs and the last two stages never
 * store. Every element takes the operations of fftInverseAvx2 followed
 * by untwist, in the same order, so the outputs are equal (==).
 */
void
negacyclicInverseAvx2(const FftTables &t, uint32_t *lo, uint32_t *hi,
                      Cplx *work, const Cplx *untw)
{
    const size_t m = t.m;
    if (m < 16) {
        fftInverseAvx2(t, work);
        untwist(lo, hi, work, untw, m);
        return;
    }
    double *d = reinterpret_cast<double *>(work);
    const size_t q = m >> 2;
    stageLen2(d, m);
    const Cplx *stw = t.stage_twiddles + 1; // stage 4
    middleStages<true>(d, stw, 4, q, m);
    // stw now holds stage m/2's twiddles, then stage m's.
    const double *twl = reinterpret_cast<const double *>(stw);
    const double *tw2 = twl + 2 * q;
    const double *ud = reinterpret_cast<const double *>(untw);
    for (size_t j = 0; j < q; j += 4) {
        __m256d a[2], b[2], c[2], e[2];
        for (int h = 0; h < 2; ++h) {
            const size_t i = j + 2 * size_t(h);
            a[h] = _mm256_loadu_pd(d + 2 * i);
            b[h] = _mm256_loadu_pd(d + 2 * (i + q));
            c[h] = _mm256_loadu_pd(d + 2 * (i + 2 * q));
            e[h] = _mm256_loadu_pd(d + 2 * (i + 3 * q));
            radix22<true>(a[h], b[h], c[h], e[h],
                          _mm256_loadu_pd(twl + 2 * i),
                          _mm256_loadu_pd(tw2 + 2 * i),
                          _mm256_loadu_pd(tw2 + 2 * (i + q)));
        }
        untwistFour(lo + j, hi + j, a[0], a[1], ud + 2 * j);
        untwistFour(lo + j + q, hi + j + q, b[0], b[1], ud + 2 * (j + q));
        untwistFour(lo + j + 2 * q, hi + j + 2 * q, c[0], c[1],
                    ud + 2 * (j + 2 * q));
        untwistFour(lo + j + 3 * q, hi + j + 3 * q, e[0], e[1],
                    ud + 2 * (j + 3 * q));
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

/**
 * Binary-key product, output-stationary. @p work first gets the
 * doubled, negated mask ext = (-mask, mask), in which X^j * mask is
 * the window ext[n - j, 2n - j), then the window starts n - j of the
 * key's set bits. Each block of 32 outputs stays in four registers
 * while every window adds its slice through unaligned loads, and is
 * stored once. No output is read back, so no load waits on a store:
 * adding whole rotated copies into out instead ran ~2.5x slower, on
 * store-forwarding stalls.
 */
void
binaryKeyProductAvx2(uint32_t *out, const int32_t *key,
                     const uint32_t *mask, uint32_t *work, size_t n)
{
    uint32_t *ext = work;
    uint32_t *starts = work + 2 * n;
    for (size_t i = 0; i < n; ++i) {
        ext[i] = 0u - mask[i];
        ext[n + i] = mask[i];
    }
    size_t count = 0;
    for (size_t j = 0; j < n; ++j) {
        starts[count] = static_cast<uint32_t>(n - j);
        count += key[j] != 0;
    }
    auto at = [ext](size_t start) {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(ext + start));
    };
    size_t p = 0;
    for (; p + 32 <= n; p += 32) {
        __m256i s0 = _mm256_setzero_si256(), s1 = s0, s2 = s0, s3 = s0;
        for (size_t c = 0; c < count; ++c) {
            const size_t w = starts[c] + p;
            s0 = _mm256_add_epi32(s0, at(w));
            s1 = _mm256_add_epi32(s1, at(w + 8));
            s2 = _mm256_add_epi32(s2, at(w + 16));
            s3 = _mm256_add_epi32(s3, at(w + 24));
        }
        auto *o = reinterpret_cast<__m256i *>(out + p);
        _mm256_storeu_si256(o, s0);
        _mm256_storeu_si256(o + 1, s1);
        _mm256_storeu_si256(o + 2, s2);
        _mm256_storeu_si256(o + 3, s3);
    }
    // Ring dimensions below 32: one register, then single words.
    for (; p + 8 <= n; p += 8) {
        __m256i s = _mm256_setzero_si256();
        for (size_t c = 0; c < count; ++c)
            s = _mm256_add_epi32(s, at(starts[c] + p));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + p), s);
    }
    for (; p < n; ++p) {
        uint32_t s = 0;
        for (size_t c = 0; c < count; ++c)
            s += ext[starts[c] + p];
        out[p] = s;
    }
}

const PolyKernels kAvx2Kernels = {
    "avx2",
    fftForwardAvx2,
    fftForwardBatchAvx2,
    fftInverseAvx2,
    negacyclicForwardAvx2,
    negacyclicInverseAvx2,
    mulAccumulateAvx2,
    mulAccumulateColumnsAvx2,
    subScaledRowAvx2,
    binaryKeyProductAvx2,
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
