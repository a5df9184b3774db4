#include "support/pbs_oracles.h"

#include "common/logging.h"

namespace strix {
namespace test {

void
externalProductPerPoly(const GgswFft &ggsw, GlweCiphertext &out,
                       const GlweCiphertext &glwe)
{
    const uint32_t k = ggsw.k();
    const uint32_t big_n = ggsw.ringDim();
    const GadgetParams &g = ggsw.gadget();
    panicIfNot(glwe.k() == k && glwe.ringDim() == big_n,
               "externalProductPerPoly: shape mismatch");
    const auto &eng = NegacyclicFft::get(big_n);

    std::vector<IntPolynomial> digits;
    std::vector<FreqPolynomial> acc(
        size_t(k) + 1, FreqPolynomial(big_n / 2, Cplx(0, 0)));
    FreqPolynomial fdigit;
    for (uint32_t comp = 0; comp <= k; ++comp) {
        gadgetDecomposePoly(digits, glwe.poly(comp), g);
        for (uint32_t level = 0; level < g.levels; ++level) {
            eng.forward(fdigit, digits[level]);
            size_t r = size_t(comp) * g.levels + level;
            for (uint32_t c = 0; c <= k; ++c)
                NegacyclicFft::mulAccumulate(acc[c], fdigit,
                                             ggsw.row(r, c));
        }
    }

    if (out.k() != k || out.ringDim() != big_n)
        out = GlweCiphertext(k, big_n);
    for (uint32_t c = 0; c <= k; ++c)
        eng.inverse(out.poly(c), acc[c]);
}

UnrolledBootstrappingKey
UnrolledBootstrappingKey::generate(const LweKey &lwe_key,
                                   const GlweKey &glwe_key,
                                   const TfheParams &params, Rng &rng)
{
    panicIfNot(lwe_key.dim() == params.n, "ubsk: LWE key dim mismatch");
    UnrolledBootstrappingKey ubsk;
    ubsk.params_ = params;
    GadgetParams g{params.bg_bits, params.l_bsk};
    const uint32_t pairs = (params.n + 1) / 2;
    ubsk.triples_.reserve(pairs);
    for (uint32_t i = 0; i < pairs; ++i) {
        int32_t s = lwe_key.bit(2 * i);
        // Odd n: the last pair is padded with an implicit zero bit.
        int32_t t = 2 * i + 1 < params.n ? lwe_key.bit(2 * i + 1) : 0;
        Triple tr{
            GgswFft(ggswEncrypt(glwe_key, s, g, params.glwe_noise, rng)),
            GgswFft(ggswEncrypt(glwe_key, t, g, params.glwe_noise, rng)),
            GgswFft(
                ggswEncrypt(glwe_key, s * t, g, params.glwe_noise, rng))};
        ubsk.triples_.push_back(std::move(tr));
    }
    return ubsk;
}

uint64_t
UnrolledBootstrappingKey::bytes() const
{
    // 3 GGSW per pair of key bits = 1.5x the regular bsk.
    return uint64_t(pairs()) * 3 * (params_.k + 1) * params_.l_bsk *
           (params_.k + 1) * params_.N * sizeof(uint32_t);
}

void
blindRotateUnrolled(GlweCiphertext &acc, const LweCiphertext &ct,
                    const UnrolledBootstrappingKey &ubsk,
                    PbsScratch &scratch)
{
    const TfheParams &p = ubsk.params();
    panicIfNot(ct.dim() == p.n, "blindRotateUnrolled: dim mismatch");
    const uint32_t two_n = 2 * p.N;
    const ModSwitch ms(p.N);

    const uint32_t b_tilde = ms(ct.b());
    if (b_tilde != 0) {
        GlweCiphertext rotated(p.k, p.N);
        for (uint32_t c = 0; c <= p.k; ++c)
            negacyclicRotate(rotated.poly(c), acc.poly(c),
                             two_n - b_tilde);
        acc = std::move(rotated);
    }

    GlweCiphertext d(p.k, p.N);
    GlweCiphertext prod(p.k, p.N);
    GlweCiphertext sum(p.k, p.N);
    TorusPolynomial tmp(p.N);

    for (uint32_t i = 0; i < ubsk.pairs(); ++i) {
        const uint32_t a = ms(ct.a(2 * i));
        const uint32_t b = 2 * i + 1 < p.n ? ms(ct.a(2 * i + 1)) : 0;
        if (a == 0 && b == 0)
            continue;

        sum.clear();
        // s-term: GGSW(s) [*] (X^a - 1) acc
        if (a != 0) {
            for (uint32_t c = 0; c <= p.k; ++c)
                negacyclicRotateMinusOne(d.poly(c), acc.poly(c), a);
            ubsk.first(i).externalProduct(prod, d, scratch);
            sum.addAssign(prod);
        }
        // t-term: GGSW(t) [*] (X^b - 1) acc
        if (b != 0) {
            for (uint32_t c = 0; c <= p.k; ++c)
                negacyclicRotateMinusOne(d.poly(c), acc.poly(c), b);
            ubsk.second(i).externalProduct(prod, d, scratch);
            sum.addAssign(prod);
        }
        // st-term: GGSW(s*t) [*] (X^a - 1)(X^b - 1) acc
        if (a != 0 && b != 0) {
            for (uint32_t c = 0; c <= p.k; ++c) {
                // X^{a+b} acc - X^a acc - X^b acc + acc
                negacyclicRotate(d.poly(c), acc.poly(c),
                                 (a + b) % two_n);
                negacyclicRotate(tmp, acc.poly(c), a);
                d.poly(c).subAssign(tmp);
                negacyclicRotate(tmp, acc.poly(c), b);
                d.poly(c).subAssign(tmp);
                d.poly(c).addAssign(acc.poly(c));
            }
            ubsk.product(i).externalProduct(prod, d, scratch);
            sum.addAssign(prod);
        }
        acc.addAssign(sum);
    }
}

LweCiphertext
programmableBootstrapUnrolled(const LweCiphertext &ct,
                              const TorusPolynomial &test_vector,
                              const UnrolledBootstrappingKey &ubsk,
                              PbsScratch &scratch)
{
    const TfheParams &p = ubsk.params();
    panicIfNot(test_vector.size() == p.N,
               "unrolled PBS: test vector size mismatch");
    GlweCiphertext acc = GlweCiphertext::trivial(p.k, test_vector);
    blindRotateUnrolled(acc, ct, ubsk, scratch);
    return sampleExtract(acc, 0);
}

LweCiphertext
programmableBootstrapUnrolled(const LweCiphertext &ct,
                              const TorusPolynomial &test_vector,
                              const UnrolledBootstrappingKey &ubsk)
{
    PbsScratch scratch;
    return programmableBootstrapUnrolled(ct, test_vector, ubsk, scratch);
}

} // namespace test
} // namespace strix
