/**
 * @file
 * GLWE implementation.
 */

#include "tfhe/glwe.h"

#include <algorithm>

#include "common/logging.h"
#include "poly/simd.h"

namespace strix {

GlweKey::GlweKey(uint32_t k, uint32_t big_n, Rng &rng)
{
    polys_.resize(k, IntPolynomial(big_n));
    for (auto &p : polys_)
        for (size_t i = 0; i < big_n; ++i)
            p[i] = rng.uniformBit();
}

LweKey
GlweKey::extractedLweKey() const
{
    std::vector<int32_t> bits;
    bits.reserve(size_t(k()) * ringDim());
    for (const auto &p : polys_)
        for (size_t i = 0; i < p.size(); ++i)
            bits.push_back(p[i]);
    return LweKey(std::move(bits));
}

GlweCiphertext::GlweCiphertext(uint32_t k, uint32_t big_n)
{
    polys_.resize(k + 1, TorusPolynomial(big_n));
}

void
GlweCiphertext::clear()
{
    for (auto &p : polys_)
        p.clear();
}

void
GlweCiphertext::addAssign(const GlweCiphertext &other)
{
    panicIfNot(polys_.size() == other.polys_.size(), "GLWE k mismatch");
    for (size_t i = 0; i < polys_.size(); ++i)
        polys_[i].addAssign(other.polys_[i]);
}

void
GlweCiphertext::subAssign(const GlweCiphertext &other)
{
    panicIfNot(polys_.size() == other.polys_.size(), "GLWE k mismatch");
    for (size_t i = 0; i < polys_.size(); ++i)
        polys_[i].subAssign(other.polys_[i]);
}

GlweCiphertext
GlweCiphertext::trivial(uint32_t k, const TorusPolynomial &mu)
{
    GlweCiphertext ct(k, static_cast<uint32_t>(mu.size()));
    ct.body() = mu;
    return ct;
}

GlweKeyScratch::GlweKeyScratch(uint32_t big_n)
    : prod(big_n), work(3 * size_t(big_n))
{
}

namespace {

/**
 * scratch.prod = z_i * A_i. The key is binary, so the product is an
 * exact integer sum (PolyKernels::binaryKeyProduct): zero-noise
 * encryptions decrypt exactly, and the bits match Karatsuba's.
 */
void
keyProduct(GlweKeyScratch &scratch, const GlweKey &key, uint32_t i,
           const TorusPolynomial &mask)
{
    activeKernels().binaryKeyProduct(scratch.prod.data(),
                                     key.poly(i).data(), mask.data(),
                                     scratch.work.data(), key.ringDim());
}

} // namespace

GlweCiphertext
glweEncrypt(const GlweKey &key, const TorusPolynomial &mu, double stddev,
            Rng &rng)
{
    const uint32_t k = key.k();
    const uint32_t n = key.ringDim();
    panicIfNot(mu.size() == n, "glweEncrypt: message size mismatch");

    GlweCiphertext ct(k, n);
    GlweKeyScratch scratch(n);
    for (uint32_t i = 0; i < k; ++i) {
        for (uint32_t j = 0; j < n; ++j)
            ct.poly(i)[j] = rng.uniformTorus32();
        keyProduct(scratch, key, i, ct.poly(i));
        ct.body().addAssign(scratch.prod);
    }
    for (uint32_t j = 0; j < n; ++j)
        ct.body()[j] += mu[j] + rng.gaussianTorus32(stddev);
    return ct;
}

GlweCiphertext
glweEncryptZero(const GlweKey &key, double stddev, Rng &rng)
{
    TorusPolynomial zero(key.ringDim());
    return glweEncrypt(key, zero, stddev, rng);
}

void
glweFillMask(GlweCiphertext &ct, Rng &mask_rng)
{
    const uint32_t k = ct.k();
    const uint32_t n = ct.ringDim();
    for (uint32_t i = 0; i < k; ++i)
        for (uint32_t j = 0; j < n; ++j)
            ct.poly(i)[j] = mask_rng.uniformTorus32();
}

void
glweEncryptZeroSeeded(GlweCiphertext &ct, const GlweKey &key,
                      Rng &mask_rng, const Torus32 *noise,
                      GlweKeyScratch &scratch)
{
    const uint32_t n = key.ringDim();
    panicIfNot(ct.k() == key.k() && ct.ringDim() == n,
               "glweEncryptZeroSeeded: key/ct mismatch");
    glweFillMask(ct, mask_rng);
    TorusPolynomial &body = ct.body();
    std::copy(noise, noise + n, body.data());
    for (uint32_t i = 0; i < key.k(); ++i) {
        keyProduct(scratch, key, i, ct.poly(i));
        body.addAssign(scratch.prod);
    }
}

TorusPolynomial
glwePhase(const GlweKey &key, const GlweCiphertext &ct)
{
    panicIfNot(key.k() == ct.k() && key.ringDim() == ct.ringDim(),
               "glwePhase: key/ct mismatch");
    TorusPolynomial phase = ct.body();
    GlweKeyScratch scratch(key.ringDim());
    for (uint32_t i = 0; i < key.k(); ++i) {
        keyProduct(scratch, key, i, ct.poly(i));
        phase.subAssign(scratch.prod);
    }
    return phase;
}

LweCiphertext
sampleExtract(const GlweCiphertext &ct, size_t index)
{
    const uint32_t k = ct.k();
    const uint32_t n = ct.ringDim();
    panicIfNot(index < n, "sampleExtract: index out of range");

    LweCiphertext out(k * n);
    // Coefficient p of A_i * z_i equals
    //   sum_{j<=p} A_i[p-j] z_i[j] - sum_{j>p} A_i[N+p-j] z_i[j],
    // so the extracted mask holds A_i[p-j] for j <= p and the negated
    // wrapped coefficients beyond.
    for (uint32_t i = 0; i < k; ++i) {
        const TorusPolynomial &a = ct.poly(i);
        for (size_t j = 0; j <= index; ++j)
            out.a(size_t(i) * n + j) = a[index - j];
        for (size_t j = index + 1; j < n; ++j)
            out.a(size_t(i) * n + j) = 0u - a[n + index - j];
    }
    out.b() = ct.body()[index];
    return out;
}

} // namespace strix
