/**
 * @file
 * GGSW / external product implementation.
 */

#include "tfhe/ggsw.h"

#include "common/logging.h"
#include "poly/simd.h"

namespace strix {

GgswCiphertext::GgswCiphertext(uint32_t k, uint32_t big_n,
                               const GadgetParams &g)
    : k_(k), big_n_(big_n), g_(g)
{
    rows_.resize(size_t(k + 1) * g.levels, GlweCiphertext(k, big_n));
}

GgswCiphertext
ggswEncrypt(const GlweKey &key, int32_t m, const GadgetParams &g,
            double stddev, Rng &rng)
{
    const uint32_t k = key.k();
    const uint32_t n = key.ringDim();
    GgswCiphertext out(k, n, g);
    for (uint32_t block = 0; block <= k; ++block) {
        for (uint32_t level = 0; level < g.levels; ++level) {
            GlweCiphertext row = glweEncryptZero(key, stddev, rng);
            // Add m * q/B^(level+1) on component `block` (constant
            // coefficient). For block < k this lands on a mask
            // polynomial; for block == k on the body.
            Torus32 scale = g.levelScale(level + 1);
            row.poly(block)[0] +=
                static_cast<uint32_t>(m) * scale;
            out.row(size_t(block) * g.levels + level) = std::move(row);
        }
    }
    return out;
}

void
ggswEncryptSeededRow(GlweCiphertext &row, const GlweKey &key, int32_t m,
                     const GadgetParams &g, uint32_t r, Rng &mask_rng,
                     const Torus32 *noise, GlweKeyScratch &scratch)
{
    glweEncryptZeroSeeded(row, key, mask_rng, noise, scratch);
    const uint32_t block = r / g.levels;
    const Torus32 scale = g.levelScale(r % g.levels + 1);
    if (block == key.k()) {
        row.body()[0] += static_cast<uint32_t>(m) * scale;
        return;
    }
    // Body form (see header): body -= m*scale*z_block, exact mod-2^32
    // arithmetic over the binary key poly.
    const IntPolynomial &z = key.poly(block);
    for (uint32_t j = 0; j < key.ringDim(); ++j)
        row.body()[j] -=
            static_cast<uint32_t>(m) * scale * static_cast<uint32_t>(z[j]);
}

void
externalProduct(GlweCiphertext &out, const GgswCiphertext &ggsw,
                const GlweCiphertext &glwe)
{
    const uint32_t k = ggsw.k();
    const uint32_t n = ggsw.ringDim();
    const GadgetParams &g = ggsw.gadget();
    panicIfNot(glwe.k() == k && glwe.ringDim() == n,
               "externalProduct: shape mismatch");

    out = GlweCiphertext(k, n);
    std::vector<IntPolynomial> digits;
    TorusPolynomial prod(n);
    for (uint32_t comp = 0; comp <= k; ++comp) {
        gadgetDecomposePoly(digits, glwe.poly(comp), g);
        for (uint32_t level = 0; level < g.levels; ++level) {
            const GlweCiphertext &row =
                ggsw.row(size_t(comp) * g.levels + level);
            for (uint32_t c = 0; c <= k; ++c) {
                negacyclicMulKaratsuba(prod, digits[level], row.poly(c));
                out.poly(c).addAssign(prod);
            }
        }
    }
}

GgswFft::GgswFft(const GgswCiphertext &ggsw)
    : k_(ggsw.k()), big_n_(ggsw.ringDim()), g_(ggsw.gadget())
{
    const auto &eng = NegacyclicFft::get(big_n_);
    const uint32_t nrows = ggsw.rows();
    rows_.resize(size_t(nrows) * (k_ + 1));
    for (uint32_t r = 0; r < nrows; ++r)
        for (uint32_t c = 0; c <= k_; ++c)
            eng.forward(rows_[size_t(r) * (k_ + 1) + c],
                        ggsw.row(r).poly(c));
}

GgswFft
GgswFft::fromRawRows(uint32_t k, uint32_t big_n, const GadgetParams &g,
                     std::vector<FreqPolynomial> rows)
{
    const size_t expect_rows =
        size_t(k + 1) * g.levels * (size_t(k) + 1);
    panicIfNot(rows.size() == expect_rows,
               "GgswFft::fromRawRows: row count mismatch");
    for (const FreqPolynomial &row : rows)
        panicIfNot(row.size() == size_t(big_n) / 2,
                   "GgswFft::fromRawRows: row size mismatch");
    GgswFft out;
    out.k_ = k;
    out.big_n_ = big_n;
    out.g_ = g;
    out.rows_ = std::move(rows);
    return out;
}

void
GgswFft::reserveScratch(PbsScratch &scratch) const
{
    const size_t nrows = (size_t(k_) + 1) * g_.levels;
    const size_t m = size_t(big_n_) / 2;
    scratch.digit_coeffs.resize(size_t(g_.levels) * big_n_);
    scratch.spectra.resize(2 * nrows * m);
    scratch.facc.resize(m);
    scratch.bsk_rows.resize(nrows);
    if (scratch.diff.size() != big_n_)
        scratch.diff = TorusPolynomial(big_n_);
    if (scratch.prod.size() != big_n_)
        scratch.prod = TorusPolynomial(big_n_);
}

void
GgswFft::forwardComponent(const TorusPolynomial &poly, uint32_t comp,
                          Cplx *spectra, PbsScratch &scratch) const
{
    // Decomposer unit, then the FFT unit: the component's l digits go
    // through one batched sweep, Strix's streaming-FFT schedule.
    const size_t m = size_t(big_n_) / 2;
    gadgetDecomposePolyInto(scratch.digit_coeffs.data(), poly, g_);
    NegacyclicFft::get(big_n_).forwardBatch(
        spectra + size_t(comp) * g_.levels * m, scratch.digit_coeffs.data(),
        g_.levels, activeKernels());
}

void
GgswFft::productColumn(TorusPolynomial &out, uint32_t col,
                       const Cplx *spectra, PbsScratch &scratch) const
{
    // VMA unit: one fused MAC sums every digit row of this column in
    // registers (the same per-column sums as a MAC over all columns),
    // then the IFFT unit runs in place on the bit-reversed sum.
    const auto &eng = NegacyclicFft::get(big_n_);
    const PolyKernels &kernels = activeKernels();
    const size_t nrows = scratch.bsk_rows.size();
    for (size_t r = 0; r < nrows; ++r)
        scratch.bsk_rows[r] = rows_[r * (k_ + 1) + col].data();
    eng.mulAccumulateColumns(scratch.facc.data(), spectra,
                             scratch.bsk_rows.data(), nrows, 1, kernels);
    eng.inverseBitReversed(out, scratch.facc.data(), kernels);
}

void
GgswFft::externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe,
                         PbsScratch &scratch) const
{
    panicIfNot(glwe.k() == k_ && glwe.ringDim() == big_n_,
               "externalProduct(fft): shape mismatch");
    reserveScratch(scratch);
    for (uint32_t comp = 0; comp <= k_; ++comp)
        forwardComponent(glwe.poly(comp), comp, scratch.spectra.data(),
                         scratch);
    if (out.k() != k_ || out.ringDim() != big_n_)
        out = GlweCiphertext(k_, big_n_);
    for (uint32_t c = 0; c <= k_; ++c)
        productColumn(out.poly(c), c, scratch.spectra.data(), scratch);
}

void
GgswFft::externalProduct(GlweCiphertext &out, const GlweCiphertext &glwe) const
{
    PbsScratch scratch;
    externalProduct(out, glwe, scratch);
}

void
GgswFft::cmuxForward(const GlweCiphertext &acc, uint32_t power,
                     uint32_t comp, Cplx *spectra,
                     PbsScratch &scratch) const
{
    // diff = X^power * acc - acc (Rotator unit: rotate and subtract)
    negacyclicRotateMinusOne(scratch.diff, acc.poly(comp), power);
    forwardComponent(scratch.diff, comp, spectra, scratch);
}

void
GgswFft::cmuxAccumulate(GlweCiphertext &acc, uint32_t col,
                        const Cplx *spectra, PbsScratch &scratch) const
{
    // acc += ggsw [*] diff, one column (Accumulator unit)
    productColumn(scratch.prod, col, spectra, scratch);
    acc.poly(col).addAssign(scratch.prod);
}

void
GgswFft::cmuxRotate(GlweCiphertext &acc, uint32_t power,
                    PbsScratch &scratch) const
{
    reserveScratch(scratch);
    Cplx *spectra = scratch.spectra.data();
    for (uint32_t c = 0; c <= k_; ++c)
        cmuxForward(acc, power, c, spectra, scratch);
    for (uint32_t c = 0; c <= k_; ++c)
        cmuxAccumulate(acc, c, spectra, scratch);
}

void
GgswFft::cmuxRotate(GlweCiphertext &acc, uint32_t power) const
{
    PbsScratch scratch;
    cmuxRotate(acc, power, scratch);
}

} // namespace strix
