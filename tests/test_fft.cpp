/**
 * @file
 * Tests for the complex FFT and the folded negacyclic FFT, plus the
 * scalar-vs-AVX2 kernel cross-checks for the runtime-dispatch seam
 * (poly/simd.h). The cross-checks sweep every plan size any shipped
 * parameter set touches (midParams N=256 ... set IV N=16384) and run
 * under both CI legs: with STRIX_SIMD=ON they compare the two
 * backends element by element; with STRIX_SIMD=OFF (or on a non-AVX2
 * host) the vector half skips and the scalar reference still runs.
 * The integer binary-key product is pinned exactly (==) to Karatsuba
 * on every table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/random.h"
#include "poly/complex_fft.h"
#include "poly/negacyclic_fft.h"
#include "poly/simd.h"
#include "support/test_util.h"

namespace strix {
namespace {

TEST(ComplexFft, ForwardInverseRoundTrip)
{
    for (size_t m : {2u, 8u, 64u, 512u}) {
        Rng rng(m);
        std::vector<Cplx> data(m), orig(m);
        for (auto &c : data)
            c = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        orig = data;
        const FftPlan &plan = FftPlan::get(m);
        plan.forward(data.data());
        plan.inverse(data.data());
        for (size_t i = 0; i < m; ++i) {
            EXPECT_NEAR(data[i].real(), orig[i].real(), 1e-12);
            EXPECT_NEAR(data[i].imag(), orig[i].imag(), 1e-12);
        }
    }
}

TEST(ComplexFft, MatchesDirectDft)
{
    const size_t m = 16;
    Rng rng(3);
    std::vector<Cplx> data(m);
    for (auto &c : data)
        c = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);

    // Direct O(M^2) DFT with the same positive-exponent convention.
    std::vector<Cplx> expected(m, Cplx(0, 0));
    for (size_t k = 0; k < m; ++k)
        for (size_t j = 0; j < m; ++j) {
            double ang = 2.0 * M_PI * j * k / m;
            expected[k] += data[j] * Cplx(std::cos(ang), std::sin(ang));
        }

    FftPlan::get(m).forward(data.data());
    for (size_t k = 0; k < m; ++k) {
        EXPECT_NEAR(data[k].real(), expected[k].real(), 1e-10);
        EXPECT_NEAR(data[k].imag(), expected[k].imag(), 1e-10);
    }
}

TEST(ComplexFft, LinearityOfTransform)
{
    const size_t m = 64;
    Rng rng(4);
    std::vector<Cplx> a(m), b(m), sum(m);
    for (size_t i = 0; i < m; ++i) {
        a[i] = Cplx(rng.uniformDouble(), rng.uniformDouble());
        b[i] = Cplx(rng.uniformDouble(), rng.uniformDouble());
        sum[i] = a[i] + b[i];
    }
    const FftPlan &plan = FftPlan::get(m);
    plan.forward(a.data());
    plan.forward(b.data());
    plan.forward(sum.data());
    for (size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(sum[i].real(), a[i].real() + b[i].real(), 1e-9);
        EXPECT_NEAR(sum[i].imag(), a[i].imag() + b[i].imag(), 1e-9);
    }
}

TEST(ComplexFft, PlanCacheReturnsSameInstance)
{
    EXPECT_EQ(&FftPlan::get(256), &FftPlan::get(256));
    EXPECT_NE(&FftPlan::get(256), &FftPlan::get(512));
}

/** The folded transform must invert exactly (up to rounding). */
class NegacyclicRoundTrip : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicRoundTrip, TorusPolySurvives)
{
    const size_t n = GetParam();
    Rng rng(n);
    TorusPolynomial p = test::randomTorusPoly(n, rng);
    const auto &eng = NegacyclicFft::get(n);
    FreqPolynomial f;
    eng.forward(f, p);
    TorusPolynomial back(n);
    eng.inverse(back, f);
    for (size_t i = 0; i < n; ++i) {
        // Allow one ulp of rounding.
        EXPECT_LE(std::abs(torusDistance(back[i], p[i])), 1) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NegacyclicRoundTrip,
                         ::testing::Values(4, 16, 64, 256, 1024, 4096,
                                           16384));

TEST(NegacyclicFft, FrequencySizeIsHalfRingDim)
{
    // The folding scheme: an N-point negacyclic transform produces
    // N/2 complex points (Sec. V-A).
    const auto &eng = NegacyclicFft::get(1024);
    TorusPolynomial p(1024);
    FreqPolynomial f;
    eng.forward(f, p);
    EXPECT_EQ(f.size(), 512u);
}

TEST(NegacyclicFft, MonomialProductViaFftIsExactRotation)
{
    const size_t n = 128;
    Rng rng(5);
    TorusPolynomial p = test::randomTorusPoly(n, rng);

    IntPolynomial mono(n);
    mono[3] = 1;
    TorusPolynomial viaFft(n), viaRotate(n);
    negacyclicMulFft(viaFft, mono, p);
    negacyclicRotate(viaRotate, p, 3);
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(viaFft[i], viaRotate[i])), 1);
}

TEST(NegacyclicFft, MulAccumulateAddsInFrequencyDomain)
{
    const size_t n = 64;
    Rng rng(6);
    IntPolynomial a(n), b(n);
    TorusPolynomial x(n), y(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(rng.uniformBelow(17)) - 8;
        b[i] = static_cast<int32_t>(rng.uniformBelow(17)) - 8;
        x[i] = rng.uniformTorus32();
        y[i] = rng.uniformTorus32();
    }

    // freq(a)*freq(x) + freq(b)*freq(y) inverted == a*x + b*y.
    const auto &eng = NegacyclicFft::get(n);
    FreqPolynomial fa, fb, fx, fy, acc;
    eng.forward(fa, a);
    eng.forward(fb, b);
    eng.forward(fx, x);
    eng.forward(fy, y);
    NegacyclicFft::mulAccumulate(acc, fa, fx);
    NegacyclicFft::mulAccumulate(acc, fb, fy);
    TorusPolynomial got(n);
    eng.inverse(got, acc);

    TorusPolynomial expected(n);
    negacyclicMulNaive(expected, a, x);
    negacyclicMulAddNaive(expected, b, y);
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(got[i], expected[i])), 2);
}

// ---------------------------------------------------------------------------
// Runtime-dispatch seam: scalar vs AVX2 kernel cross-checks.

/**
 * Every complex-FFT plan size the software path can instantiate:
 * N/2 for midParams (128), fastParams (256), sets I/II (512),
 * set III (1024), Deep-NN 4096 (2048), set IV (8192), plus the tiny
 * sizes the algorithm must still handle.
 */
const size_t kPlanSizes[] = {2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
                             2048, 4096, 8192};

/** Ring dimensions: n = 2m for each plan size above. */
const size_t kRingDims[] = {4, 8, 16, 32, 64, 128, 256, 512, 1024,
                            2048, 4096, 8192, 16384};

/**
 * FMA vs separate multiply/add changes rounding, so vector results
 * are ULP-bounded, not bit-equal: allow a small relative error
 * against the largest magnitude in the reference output.
 */
double
maxAbs(const Cplx *data, size_t m)
{
    double mx = 0.0;
    for (size_t i = 0; i < m; ++i)
        mx = std::max(mx, std::abs(data[i]));
    return mx;
}

void
expectUlpClose(const Cplx *got, const Cplx *ref, size_t m, double rel)
{
    const double tol = std::max(maxAbs(ref, m), 1.0) * rel;
    for (size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(got[i].real(), ref[i].real(), tol) << "index " << i;
        EXPECT_NEAR(got[i].imag(), ref[i].imag(), tol) << "index " << i;
    }
}

TEST(SimdDispatch, ActiveTableMatchesProbeAndOverride)
{
    // The active table is latched once; whatever it is, it must be
    // consistent with the CPUID probe and the environment override.
    const PolyKernels &active = activeKernels();
    if (simdForcedScalar()) {
        EXPECT_STREQ(active.name, "scalar");
    } else if (avx2Kernels() != nullptr) {
        EXPECT_STREQ(active.name, "avx2");
    } else {
        EXPECT_STREQ(active.name, "scalar");
    }
    if (avx2Kernels() != nullptr) {
        EXPECT_TRUE(cpuSupportsAvx2Fma());
    }
}

TEST(SimdDispatch, ScalarTableIsAlwaysAvailable)
{
    const PolyKernels &s = scalarKernels();
    EXPECT_STREQ(s.name, "scalar");
    EXPECT_NE(s.fftForward, nullptr);
    EXPECT_NE(s.fftForwardBatch, nullptr);
    EXPECT_NE(s.fftInverse, nullptr);
    EXPECT_NE(s.negacyclicForward, nullptr);
    EXPECT_NE(s.negacyclicInverse, nullptr);
    EXPECT_NE(s.mulAccumulate, nullptr);
    EXPECT_NE(s.mulAccumulateColumns, nullptr);
    EXPECT_NE(s.subScaledRow, nullptr);
    EXPECT_NE(s.binaryKeyProduct, nullptr);
}

class KernelCrossCheck : public ::testing::TestWithParam<size_t>
{
  protected:
    void SetUp() override
    {
        if (avx2Kernels() == nullptr)
            GTEST_SKIP() << "AVX2 kernels unavailable "
                            "(STRIX_SIMD=OFF or non-AVX2 host)";
    }
};

TEST_P(KernelCrossCheck, ForwardFftMatchesScalar)
{
    const size_t m = GetParam();
    const FftPlan &plan = FftPlan::get(m);
    Rng rng(m);
    std::vector<Cplx> ref(m), vec(m);
    for (size_t i = 0; i < m; ++i)
        ref[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
    vec = ref;
    plan.forward(ref.data(), scalarKernels());
    plan.forward(vec.data(), *avx2Kernels());
    expectUlpClose(vec.data(), ref.data(), m, 1e-12);
}

TEST_P(KernelCrossCheck, InverseFftMatchesScalar)
{
    const size_t m = GetParam();
    const FftPlan &plan = FftPlan::get(m);
    Rng rng(m + 17);
    std::vector<Cplx> ref(m), vec(m);
    for (size_t i = 0; i < m; ++i)
        ref[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
    vec = ref;
    plan.inverse(ref.data(), scalarKernels());
    plan.inverse(vec.data(), *avx2Kernels());
    expectUlpClose(vec.data(), ref.data(), m, 1e-12);
}

TEST_P(KernelCrossCheck, MulAccumulateMatchesScalar)
{
    const size_t m = GetParam();
    Rng rng(m + 31);
    FreqPolynomial a(m), b(m), ref(m), vec(m);
    for (size_t i = 0; i < m; ++i) {
        a[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        b[i] = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        ref[i] = vec[i] =
            Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
    }
    scalarKernels().mulAccumulate(ref.data(), a.data(), b.data(), m);
    avx2Kernels()->mulAccumulate(vec.data(), a.data(), b.data(), m);
    expectUlpClose(vec.data(), ref.data(), m, 1e-13);
}

TEST_P(KernelCrossCheck, MulAccumulateColumnsMatchesScalar)
{
    // The fused MAC of the external product at the set-I shape (4
    // digit rows, 2 columns): FMA rounding only, at the MAC tolerance.
    const size_t m = GetParam();
    const size_t nrows = 4, ncols = 2;
    const FftTables t = FftPlan::get(m).tables();
    Rng rng(m + 37);
    std::vector<Cplx> a(nrows * m);
    for (auto &c : a)
        c = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
    std::vector<FreqPolynomial> rows(nrows * ncols, FreqPolynomial(m));
    std::vector<const Cplx *> ptrs;
    for (auto &row : rows) {
        for (auto &c : row)
            c = Cplx(rng.uniformDouble() - 0.5, rng.uniformDouble() - 0.5);
        ptrs.push_back(row.data());
    }
    std::vector<Cplx> ref(ncols * m), vec(ncols * m);
    scalarKernels().mulAccumulateColumns(t, ref.data(), a.data(),
                                         ptrs.data(), nrows, ncols);
    avx2Kernels()->mulAccumulateColumns(t, vec.data(), a.data(),
                                        ptrs.data(), nrows, ncols);
    expectUlpClose(vec.data(), ref.data(), ncols * m, 1e-13);
}

INSTANTIATE_TEST_SUITE_P(PlanSizes, KernelCrossCheck,
                         ::testing::ValuesIn(kPlanSizes));

class NegacyclicKernelCrossCheck : public ::testing::TestWithParam<size_t>
{
  protected:
    void SetUp() override
    {
        if (avx2Kernels() == nullptr)
            GTEST_SKIP() << "AVX2 kernels unavailable "
                            "(STRIX_SIMD=OFF or non-AVX2 host)";
    }
};

TEST_P(NegacyclicKernelCrossCheck, TorusForwardMatchesScalar)
{
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n);
    TorusPolynomial p = test::randomTorusPoly(n, rng);
    FreqPolynomial ref, vec;
    eng.forward(ref, p, scalarKernels());
    eng.forward(vec, p, *avx2Kernels());
    ASSERT_EQ(vec.size(), ref.size());
    expectUlpClose(vec.data(), ref.data(), ref.size(), 1e-12);
}

TEST_P(NegacyclicKernelCrossCheck, IntForwardMatchesScalar)
{
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n + 7);
    IntPolynomial p = test::randomSmallIntPoly(n, 512, rng);
    FreqPolynomial ref, vec;
    eng.forward(ref, p, scalarKernels());
    eng.forward(vec, p, *avx2Kernels());
    ASSERT_EQ(vec.size(), ref.size());
    expectUlpClose(vec.data(), ref.data(), ref.size(), 1e-12);
}

TEST_P(NegacyclicKernelCrossCheck, InverseMatchesScalarWithinOneStep)
{
    // Full inverse path (inverse FFT + untwist + round to Torus32).
    // The vector untwist rounds ties to even where scalar llround
    // rounds away from zero, and FMA shifts values near a rounding
    // boundary, so allow one grid step.
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n + 13);
    TorusPolynomial p = test::randomTorusPoly(n, rng);
    FreqPolynomial f;
    eng.forward(f, p, scalarKernels());
    TorusPolynomial ref(n), vec(n);
    eng.inverse(ref, f, scalarKernels());
    eng.inverse(vec, f, *avx2Kernels());
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(vec[i], ref[i])), 1) << i;
}

TEST_P(NegacyclicKernelCrossCheck, RoundTripSurvivesUnderAvx2)
{
    // Same property the scalar path guarantees: forward then inverse
    // recovers the torus polynomial to one ulp.
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n + 23);
    TorusPolynomial p = test::randomTorusPoly(n, rng);
    FreqPolynomial f;
    eng.forward(f, p, *avx2Kernels());
    TorusPolynomial back(n);
    eng.inverse(back, f, *avx2Kernels());
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(back[i], p[i])), 1) << i;
}

TEST_P(NegacyclicKernelCrossCheck, ProductMatchesExactKaratsuba)
{
    // End-to-end check against exact integer arithmetic: the AVX2
    // pipeline (twist -> FFT -> mulAcc -> inverse FFT -> untwist)
    // must compute the same negacyclic product the exact Karatsuba
    // multiplier does, to the usual FFT rounding slack.
    const size_t n = GetParam();
    if (n > 4096)
        GTEST_SKIP() << "Karatsuba reference too slow beyond 4096";
    const auto &eng = NegacyclicFft::get(n);
    Rng rng(n + 29);
    IntPolynomial a = test::randomSmallIntPoly(n, 512, rng);
    TorusPolynomial b = test::randomTorusPoly(n, rng);

    FreqPolynomial fa, fb, prod;
    eng.forward(fa, a, *avx2Kernels());
    eng.forward(fb, b, *avx2Kernels());
    NegacyclicFft::mulAccumulate(prod, fa, fb, *avx2Kernels());
    TorusPolynomial got(n);
    eng.inverse(got, prod, *avx2Kernels());

    TorusPolynomial expected(n);
    negacyclicMulKaratsuba(expected, a, b);
    for (size_t i = 0; i < n; ++i)
        EXPECT_LE(std::abs(torusDistance(got[i], expected[i])), 2) << i;
}

INSTANTIATE_TEST_SUITE_P(RingDims, NegacyclicKernelCrossCheck,
                         ::testing::ValuesIn(kRingDims));

// ---------------------------------------------------------------------------
// Batched transforms: the fused stage sweep must be BIT-identical to
// per-member transforms -- same table, element by element -- not just
// ULP-close. These sweeps run on every CI leg: with STRIX_SIMD=OFF
// only the scalar table is exercised; with STRIX_FORCE_SCALAR=1 the
// `active` leg pins to scalar while the explicit avx2 leg still runs.

/** Batch sizes covering 1, odd, the PBS digit counts, and >1 chunk. */
const size_t kBatchSizes[] = {1, 2, 3, 4, 6, 8};

/** Every kernel table reachable in this process, with a tag. */
std::vector<std::pair<const char *, const PolyKernels *>>
allKernelTables()
{
    std::vector<std::pair<const char *, const PolyKernels *>> tables{
        {"scalar", &scalarKernels()}, {"active", &activeKernels()}};
    if (const PolyKernels *avx2 = avx2Kernels())
        tables.emplace_back("avx2", avx2);
    return tables;
}

/**
 * The negacyclic kernel entries fuse a fold+twist or an untwist with
 * the butterfly stages, and neither half is a table entry of its own.
 * These test-side halves reproduce each table's arithmetic exactly:
 * std::complex products on the scalar table; on the AVX2 table the
 * packed products of simd_avx2.cpp, in which one of the two partial
 * products of each component is rounded and the other fused into an
 * FMA. std::fma reproduces that rounding on any host.
 */
bool
fusesProducts(const PolyKernels &k)
{
    return std::strcmp(k.name, "avx2") == 0;
}

/** simd_avx2.cpp's cplxMul(a, b). */
Cplx
fmaMul(Cplx a, Cplx b)
{
    return Cplx(std::fma(a.real(), b.real(), -(a.imag() * b.imag())),
                std::fma(a.imag(), b.real(), a.real() * b.imag()));
}

/** simd_avx2.cpp's cplxMulConj(a, b) = a * conj(b). */
Cplx
fmaMulConj(Cplx a, Cplx b)
{
    return Cplx(std::fma(a.real(), b.real(), a.imag() * b.imag()),
                std::fma(a.imag(), b.real(), -(a.real() * b.imag())));
}

/**
 * The twists exp(i*pi*j/n) of an n-point negacyclic transform times
 * @p scale, as NegacyclicFft builds its twist (scale 1) and untwist
 * (scale 2/n) tables.
 */
std::vector<Cplx>
twistTable(size_t n, double scale)
{
    std::vector<Cplx> tw(n / 2);
    for (size_t j = 0; j < n / 2; ++j) {
        double ang = M_PI * static_cast<double>(j) / static_cast<double>(n);
        tw[j] = Cplx(std::cos(ang), std::sin(ang)) * scale;
    }
    return tw;
}

/**
 * Fold+twist of @p batch rows into bit-reversed slots, with @p k's
 * arithmetic: the first half of its negacyclicForward.
 */
void
refTwistBatch(const PolyKernels &k, const FftTables &t, Cplx *out,
              const int32_t *coeffs, const Cplx *tw, size_t batch)
{
    const size_t m = t.m;
    for (size_t b = 0; b < batch; ++b) {
        const int32_t *lo = coeffs + b * 2 * m;
        const int32_t *hi = lo + m;
        for (size_t j = 0; j < m; ++j) {
            const Cplx c(static_cast<double>(lo[j]),
                         static_cast<double>(hi[j]));
            Cplx v;
            if (!fusesProducts(k))
                v = c * tw[j];
            else if (m >= 4)
                v = fmaMul(c, tw[j]);
            else // m = 2: the AVX2 tail takes the operands swapped
                v = fmaMul(tw[j], c);
            out[b * m + t.bit_reverse[j]] = v;
        }
    }
}

/**
 * Untwist+round of @p m natural-order points with @p k's arithmetic:
 * the second half of its negacyclicInverse. The AVX2 table's vector
 * path rounds half to even (its magic-number add); the scalar table
 * and the AVX2 m = 2 tail round half away from zero (llround).
 */
void
refUntwist(const PolyKernels &k, uint32_t *lo, uint32_t *hi,
           const Cplx *x, const Cplx *untw, size_t m)
{
    for (size_t j = 0; j < m; ++j) {
        Cplx u;
        bool half_even = false;
        if (!fusesProducts(k)) {
            u = x[j] * std::conj(untw[j]);
        } else if (m >= 4) {
            u = fmaMulConj(x[j], untw[j]);
            half_even = true;
        } else { // m = 2: the AVX2 tail takes conj(untw) first
            u = fmaMul(std::conj(untw[j]), x[j]);
        }
        auto round = [half_even](double v) {
            return static_cast<uint32_t>(
                half_even ? static_cast<int64_t>(std::nearbyint(v))
                          : static_cast<int64_t>(std::llround(v)));
        };
        lo[j] = round(u.real());
        hi[j] = round(u.imag());
    }
}

class FftBatchExactness : public ::testing::TestWithParam<size_t>
{
};

TEST_P(FftBatchExactness, ForwardBatchBitIdenticalToSingle)
{
    const size_t m = GetParam();
    const FftPlan &plan = FftPlan::get(m);
    for (const auto &[tag, kernels] : allKernelTables()) {
        for (size_t batch : kBatchSizes) {
            Rng rng(m + 101 * batch);
            std::vector<Cplx> fused(m * batch), single(m * batch);
            for (auto &c : fused)
                c = Cplx(rng.uniformDouble() - 0.5,
                         rng.uniformDouble() - 0.5);
            single = fused;
            plan.forwardBatch(fused.data(), batch, *kernels);
            for (size_t b = 0; b < batch; ++b)
                plan.forward(single.data() + b * m, *kernels);
            for (size_t i = 0; i < m * batch; ++i) {
                ASSERT_EQ(fused[i].real(), single[i].real())
                    << tag << " m=" << m << " batch=" << batch
                    << " i=" << i;
                ASSERT_EQ(fused[i].imag(), single[i].imag())
                    << tag << " m=" << m << " batch=" << batch
                    << " i=" << i;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PlanSizes, FftBatchExactness,
                         ::testing::ValuesIn(kPlanSizes));

class NegacyclicFftBatch : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicFftBatch, ForwardBatchBitIdenticalToPerPoly)
{
    // Digit-like inputs (the external product's actual feed): small
    // signed coefficients, contiguous rows.
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    const size_t m = n / 2;
    for (const auto &[tag, kernels] : allKernelTables()) {
        for (size_t batch : {size_t{1}, size_t{4}, size_t{6}}) {
            Rng rng(n + 13 * batch);
            std::vector<int32_t> coeffs(n * batch);
            for (auto &c : coeffs)
                c = static_cast<int32_t>(rng.uniformBelow(1024)) - 512;
            std::vector<Cplx> fused(m * batch);
            eng.forwardBatch(fused.data(), coeffs.data(), batch,
                             *kernels);
            for (size_t b = 0; b < batch; ++b) {
                IntPolynomial row(n);
                std::copy(coeffs.begin() + b * n,
                          coeffs.begin() + (b + 1) * n, row.data());
                FreqPolynomial ref;
                eng.forward(ref, row, *kernels);
                for (size_t j = 0; j < m; ++j) {
                    ASSERT_EQ(fused[b * m + j].real(), ref[j].real())
                        << tag << " n=" << n << " b=" << b
                        << " j=" << j;
                    ASSERT_EQ(fused[b * m + j].imag(), ref[j].imag())
                        << tag << " n=" << n << " b=" << b
                        << " j=" << j;
                }
            }
        }
    }
}

TEST_P(NegacyclicFftBatch, DispatchedForwardBatchMatchesPerPoly)
{
    // Same comparison through the default (activeKernels) overloads:
    // whatever backend the dispatcher latched, fused == per-poly.
    const size_t n = GetParam();
    const auto &eng = NegacyclicFft::get(n);
    const size_t m = n / 2;
    const size_t batch = 5;
    Rng rng(n + 77);
    std::vector<int32_t> coeffs(n * batch);
    for (auto &c : coeffs)
        c = static_cast<int32_t>(rng.uniformBelow(64)) - 32;
    std::vector<Cplx> fused(m * batch);
    eng.forwardBatch(fused.data(), coeffs.data(), batch);
    for (size_t b = 0; b < batch; ++b) {
        IntPolynomial row(n);
        std::copy(coeffs.begin() + b * n, coeffs.begin() + (b + 1) * n,
                  row.data());
        FreqPolynomial ref;
        eng.forward(ref, row);
        for (size_t j = 0; j < m; ++j) {
            ASSERT_EQ(fused[b * m + j], ref[j])
                << "n=" << n << " b=" << b << " j=" << j;
        }
    }
}

TEST_P(NegacyclicFftBatch, KernelEntryEqualsTwistThenForwardBatch)
{
    // negacyclicForward against the two-step sequence it replaces: the
    // table's fold+twist, then its fftForwardBatch. The AVX2 entry
    // folds stages 2 and 4 into the twist and sweeps the rest two at
    // a time from m = 16 up, so equality here pins every fused stage.
    const size_t n = GetParam();
    const size_t m = n / 2;
    const auto &eng = NegacyclicFft::get(n);
    const FftTables t = FftPlan::get(m).tables();
    const std::vector<Cplx> tw = twistTable(n, 1.0);
    for (const auto &[tag, kernels] : allKernelTables()) {
        for (size_t batch : {size_t{1}, size_t{3}, size_t{4}, size_t{6}}) {
            for (bool digits : {true, false}) {
                Rng rng(n + 17 * batch + (digits ? 1 : 0));
                std::vector<int32_t> coeffs(n * batch);
                for (auto &c : coeffs)
                    c = digits ? static_cast<int32_t>(rng.uniformBelow(
                                     1024)) - 512
                               : static_cast<int32_t>(rng.uniformTorus32());
                std::vector<Cplx> want(m * batch);
                refTwistBatch(*kernels, t, want.data(), coeffs.data(),
                              tw.data(), batch);
                kernels->fftForwardBatch(t, want.data(), batch);
                std::vector<Cplx> got(m * batch);
                kernels->negacyclicForward(t, got.data(), coeffs.data(),
                                           tw.data(), batch);
                std::vector<Cplx> via_engine(m * batch);
                eng.forwardBatch(via_engine.data(), coeffs.data(), batch,
                                 *kernels);
                for (size_t i = 0; i < m * batch; ++i) {
                    ASSERT_EQ(got[i].real(), want[i].real())
                        << tag << " n=" << n << " batch=" << batch
                        << " i=" << i;
                    ASSERT_EQ(got[i].imag(), want[i].imag())
                        << tag << " n=" << n << " batch=" << batch
                        << " i=" << i;
                    ASSERT_EQ(via_engine[i], want[i])
                        << tag << " n=" << n << " batch=" << batch
                        << " i=" << i;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RingDims, NegacyclicFftBatch,
                         ::testing::ValuesIn(kRingDims));

// ---------------------------------------------------------------------------
// The streaming external product: the bit-reversed fold+twist, the
// fused MAC and the in-place inverse must equal, bit for bit, the
// natural-order sequence (fold+twist then a permuted FFT; zero-filled
// accumulators, one mulAccumulate per row; a permuted, scaled inverse
// FFT and an untwist).

class NegacyclicFftForwardExactness : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicFftForwardExactness, ScalarEqualsNaturalTwistThenPlanForward)
{
    // Fold+twist into natural order here, then FftPlan::forward
    // (permute, stages). The scalar table's twistBatch computes the
    // same products and stores them bit-reversed, so forward() must
    // match exactly; the vector tables are held to the scalar one by
    // the cross-checks above.
    const size_t n = GetParam();
    const size_t m = n / 2;
    const PolyKernels &scalar = scalarKernels();
    Rng rng(n + 43);
    TorusPolynomial a(n);
    for (size_t i = 0; i < n; ++i)
        a[i] = rng.uniformTorus32();
    std::vector<Cplx> want(m);
    for (size_t j = 0; j < m; ++j) {
        double ang = M_PI * static_cast<double>(j) / static_cast<double>(n);
        const auto lo = static_cast<int32_t>(a[j]);
        const auto hi = static_cast<int32_t>(a[j + m]);
        want[j] = Cplx(static_cast<double>(lo), static_cast<double>(hi)) *
                  Cplx(std::cos(ang), std::sin(ang));
    }
    FftPlan::get(m).forward(want.data(), scalar);
    FreqPolynomial got;
    NegacyclicFft::get(n).forward(got, a, scalar);
    ASSERT_EQ(got.size(), m);
    for (size_t j = 0; j < m; ++j) {
        ASSERT_EQ(got[j].real(), want[j].real()) << "n=" << n << " j=" << j;
        ASSERT_EQ(got[j].imag(), want[j].imag()) << "n=" << n << " j=" << j;
    }
}

INSTANTIATE_TEST_SUITE_P(RingDims, NegacyclicFftForwardExactness,
                         ::testing::ValuesIn(kRingDims));

class NegacyclicFftFusedMac : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicFftFusedMac, ColumnsEqualPerRowMacInRowOrderThenBitReversed)
{
    const size_t m = GetParam();
    const FftTables t = FftPlan::get(m).tables();
    for (const auto &[tag, kernels] : allKernelTables()) {
        for (size_t nrows : {size_t{2}, size_t{4}, size_t{6}}) {
            for (size_t ncols : {size_t{2}, size_t{3}}) {
                // Wide, signed magnitudes so that a reordered sum
                // rounds differently.
                Rng rng(m + 7 * nrows + ncols);
                auto draw = [&rng] {
                    return Cplx((rng.uniformDouble() - 0.5) * 1e9,
                                (rng.uniformDouble() - 0.5) * 1e3);
                };
                std::vector<Cplx> a(nrows * m);
                for (auto &c : a)
                    c = draw();
                std::vector<FreqPolynomial> rows(nrows * ncols,
                                                 FreqPolynomial(m));
                std::vector<const Cplx *> ptrs;
                for (auto &row : rows) {
                    for (auto &c : row)
                        c = draw();
                    ptrs.push_back(row.data());
                }
                // NaN poison: a slot the kernel fails to store fails
                // the comparison.
                std::vector<Cplx> fused(ncols * m,
                                        Cplx(std::nan(""), std::nan("")));
                kernels->mulAccumulateColumns(t, fused.data(), a.data(),
                                              ptrs.data(), nrows, ncols);
                for (size_t c = 0; c < ncols; ++c) {
                    std::vector<Cplx> ref(m, Cplx(0, 0));
                    for (size_t r = 0; r < nrows; ++r)
                        kernels->mulAccumulate(ref.data(), a.data() + r * m,
                                               ptrs[r * ncols + c], m);
                    for (size_t i = 0; i < m; ++i) {
                        const Cplx got = fused[c * m + t.bit_reverse[i]];
                        ASSERT_EQ(got.real(), ref[i].real())
                            << tag << " m=" << m << " rows=" << nrows
                            << " c=" << c << " i=" << i;
                        ASSERT_EQ(got.imag(), ref[i].imag())
                            << tag << " m=" << m << " rows=" << nrows
                            << " c=" << c << " i=" << i;
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(PlanSizes, NegacyclicFftFusedMac,
                         ::testing::ValuesIn(kPlanSizes));

class NegacyclicFftInverseExactness : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NegacyclicFftInverseExactness, EqualsScaledPlanInverseThenUntwist)
{
    // The natural-order inverse, rebuilt here: a copy through
    // FftPlan::inverse (permute, stages, 1/m), then the table's
    // untwist with the unscaled twist table. Outputs near
    // 2^48 leave a 1/16 grid below the rounding point, so a scale
    // factor that is not a power of two shows up as flipped roundings.
    const size_t n = GetParam();
    const size_t m = n / 2;
    const auto &eng = NegacyclicFft::get(n);
    const FftPlan &plan = FftPlan::get(m);
    const std::vector<Cplx> twist = twistTable(n, 1.0);
    const double amp =
        std::ldexp(std::sqrt(3.0 * static_cast<double>(m)), 48);
    for (const auto &[tag, kernels] : allKernelTables()) {
        Rng rng(n + 41);
        FreqPolynomial freq(m);
        for (auto &c : freq)
            c = Cplx((rng.uniformDouble() - 0.5) * 2 * amp,
                     (rng.uniformDouble() - 0.5) * 2 * amp);

        std::vector<Cplx> work = freq;
        plan.inverse(work.data(), *kernels);
        TorusPolynomial want(n);
        refUntwist(*kernels, want.data(), want.data() + m, work.data(),
                   twist.data(), m);

        TorusPolynomial got(n);
        eng.inverse(got, freq, *kernels);
        // The external product's entry: the same spectrum already in
        // bit-reversed order, transformed in place.
        std::vector<Cplx> rev(m);
        for (size_t i = 0; i < m; ++i)
            rev[plan.tables().bit_reverse[i]] = freq[i];
        TorusPolynomial got_rev(n);
        eng.inverseBitReversed(got_rev, rev.data(), *kernels);
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(got[i], want[i]) << tag << " n=" << n << " i=" << i;
            ASSERT_EQ(got_rev[i], want[i])
                << tag << " n=" << n << " i=" << i;
        }
    }
}

TEST_P(NegacyclicFftInverseExactness, KernelEntryEqualsStagesThenUntwist)
{
    // negacyclicInverse against the two-step sequence it replaces: the
    // table's fftInverse, then its untwist+round by the 1/m table. The
    // AVX2 entry sweeps the middle stages two at a time and runs the
    // last two inside the untwist from m = 16 up, so equality here
    // pins every fused stage and the rounding that follows them.
    const size_t n = GetParam();
    const size_t m = n / 2;
    const FftTables t = FftPlan::get(m).tables();
    const std::vector<Cplx> untw = twistTable(n, 2.0 / static_cast<double>(n));
    // Outputs near 2^48: a 1/16 grid below the rounding point, so a
    // changed rounding anywhere in the chain flips outputs.
    const double amp =
        std::ldexp(std::sqrt(3.0 * static_cast<double>(m)), 48);
    for (const auto &[tag, kernels] : allKernelTables()) {
        for (int rep = 0; rep < 3; ++rep) {
            Rng rng(n + 59 + rep);
            std::vector<Cplx> spectrum(m);
            for (auto &c : spectrum)
                c = Cplx((rng.uniformDouble() - 0.5) * 2 * amp,
                         (rng.uniformDouble() - 0.5) * 2 * amp);
            std::vector<Cplx> work = spectrum;
            kernels->fftInverse(t, work.data());
            std::vector<uint32_t> want(n);
            refUntwist(*kernels, want.data(), want.data() + m, work.data(),
                       untw.data(), m);
            work = spectrum;
            std::vector<uint32_t> got(n);
            kernels->negacyclicInverse(t, got.data(), got.data() + m,
                                       work.data(), untw.data());
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], want[i])
                    << tag << " n=" << n << " rep=" << rep << " i=" << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RingDims, NegacyclicFftInverseExactness,
                         ::testing::ValuesIn(kRingDims));

// ---------------------------------------------------------------------------
// The binary-key product is integer arithmetic mod 2^32, so every
// table must equal the exact Karatsuba product, bit for bit, at every
// ring dimension -- on the SIMD-off and forced-scalar legs too, where
// only the scalar table runs.

class BinaryKeyProductExactness : public ::testing::TestWithParam<size_t>
{
};

TEST_P(BinaryKeyProductExactness, EqualsKaratsubaOnEveryTable)
{
    const size_t n = GetParam();
    std::vector<const PolyKernels *> tables = {&scalarKernels()};
    if (avx2Kernels() != nullptr)
        tables.push_back(avx2Kernels());
    Rng rng(n + 41);
    const TorusPolynomial mask = test::randomTorusPoly(n, rng);
    IntPolynomial random_key(n), zeros(n), ones(n);
    for (size_t j = 0; j < n; ++j) {
        random_key[j] = rng.uniformBit();
        ones[j] = 1;
    }
    for (const IntPolynomial *key : {&random_key, &zeros, &ones}) {
        TorusPolynomial expected(n);
        negacyclicMulKaratsuba(expected, *key, mask);
        for (const PolyKernels *kernels : tables) {
            // Stale words in out and work must not leak into the product.
            TorusPolynomial got(n);
            std::fill(got.data(), got.data() + n, 0xA5A5A5A5u);
            std::vector<uint32_t> work(3 * n, 0xDEADBEEFu);
            kernels->binaryKeyProduct(got.data(), key->data(), mask.data(),
                                      work.data(), n);
            EXPECT_TRUE(got == expected)
                << kernels->name << " n=" << n << " key "
                << (key == &zeros ? "zeros" : key == &ones ? "ones" : "random");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RingDims, BinaryKeyProductExactness,
                         ::testing::ValuesIn(kRingDims));

TEST(NegacyclicFft, MulAccumulatePanicsOnAccumulatorShapeMismatch)
{
    const size_t n = 64;
    Rng rng(31);
    IntPolynomial a(n);
    TorusPolynomial x(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = static_cast<int32_t>(rng.uniformBelow(17)) - 8;
        x[i] = rng.uniformTorus32();
    }
    const auto &eng = NegacyclicFft::get(n);
    FreqPolynomial fa, fx;
    eng.forward(fa, a);
    eng.forward(fx, x);

    // Empty accumulator still auto-sizes...
    FreqPolynomial acc;
    NegacyclicFft::mulAccumulate(acc, fa, fx);
    EXPECT_EQ(acc.size(), n / 2);
    // ...but a wrong-sized one is a caller shape bug, not a request
    // to throw away the partial sum.
    FreqPolynomial wrong(n / 4, Cplx(0, 0));
    EXPECT_DEATH(NegacyclicFft::mulAccumulate(wrong, fa, fx),
                 "accumulator size mismatch");
}

} // namespace
} // namespace strix
