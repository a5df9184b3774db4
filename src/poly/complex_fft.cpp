/**
 * @file
 * FFT plan construction (tables only -- the butterfly loops live in
 * the dispatched kernel backends, poly/simd_*.cpp).
 */

#include "poly/complex_fft.h"

#include <cmath>
#include <utility>

#include "common/logging.h"
#include "poly/plan_cache.h"
#include "poly/simd.h"

namespace strix {

FftPlan::FftPlan(size_t m) : m_(m)
{
    panicIfNot(m >= 2 && (m & (m - 1)) == 0, "FFT size must be 2^k >= 2");
    // The permutation table stores 32-bit indices (half the footprint
    // scanned on every transform); enforce the narrowing contract
    // rather than silently wrapping for absurd plan sizes.
    panicIfNot(m <= (uint64_t{1} << 32), "FFT size exceeds 2^32");

    bit_reverse_.resize(m);
    size_t log_m = 0;
    while ((size_t{1} << log_m) < m)
        ++log_m;
    for (size_t i = 0; i < m; ++i) {
        size_t r = 0;
        for (size_t b = 0; b < log_m; ++b)
            if (i & (size_t{1} << b))
                r |= size_t{1} << (log_m - 1 - b);
        bit_reverse_[i] = static_cast<uint32_t>(r);
    }

    // Stage-major layout: each stage's twiddles are contiguous so the
    // vector butterflies stream them with plain loads. The angle
    // 2*pi*j/len equals the old strided table's 2*pi*(j*m/len)/m
    // exactly (power-of-two scaling of a double is exact), so the
    // scalar path stays bit-identical to the original implementation.
    stage_twiddles_.reserve(m - 1);
    for (size_t len = 2; len <= m; len <<= 1)
        for (size_t j = 0; j < len / 2; ++j) {
            double ang = 2.0 * M_PI * static_cast<double>(j) /
                         static_cast<double>(len);
            stage_twiddles_.emplace_back(std::cos(ang), std::sin(ang));
        }
}

FftTables
FftPlan::tables() const
{
    return FftTables{m_, bit_reverse_.data(), stage_twiddles_.data()};
}

void
FftPlan::bitReversePermute(Cplx *data) const
{
    for (size_t i = 0; i < m_; ++i) {
        const size_t j = bit_reverse_[i];
        if (i < j)
            std::swap(data[i], data[j]);
    }
}

void
FftPlan::forward(Cplx *data) const
{
    forward(data, activeKernels());
}

void
FftPlan::inverse(Cplx *data) const
{
    inverse(data, activeKernels());
}

void
FftPlan::forwardBatch(Cplx *data, size_t batch) const
{
    forwardBatch(data, batch, activeKernels());
}

void
FftPlan::forward(Cplx *data, const PolyKernels &kernels) const
{
    bitReversePermute(data);
    kernels.fftForward(tables(), data);
}

void
FftPlan::forwardBatch(Cplx *data, size_t batch,
                      const PolyKernels &kernels) const
{
    for (size_t b = 0; b < batch; ++b)
        bitReversePermute(data + b * m_);
    kernels.fftForwardBatch(tables(), data, batch);
}

void
FftPlan::inverse(Cplx *data, const PolyKernels &kernels) const
{
    bitReversePermute(data);
    kernels.fftInverse(tables(), data);
    // m is a power of two, so this scaling is exact.
    const double inv = 1.0 / static_cast<double>(m_);
    for (size_t i = 0; i < m_; ++i)
        data[i] *= inv;
}

namespace {

detail::Log2PlanCache<FftPlan> g_plan_cache;

} // namespace

const FftPlan &
FftPlan::get(size_t m)
{
    panicIfNot(m >= 2 && (m & (m - 1)) == 0, "FFT size must be 2^k >= 2");
    return g_plan_cache.get(m);
}

void
FftPlan::prewarm(size_t m)
{
    get(m);
}

} // namespace strix
