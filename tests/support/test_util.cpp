#include "support/test_util.h"

#include <cstring>
#include <sstream>

#include "tfhe/serialize.h"

namespace strix {
namespace test {

namespace {

/** Frame header (tag + version) and section header (id + length). */
constexpr size_t kFrameHeader = 8;
constexpr size_t kSectionHeader = 12;

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameParams(const TfheParams &a, const TfheParams &b)
{
    return a.name == b.name && a.n == b.n && a.N == b.N && a.k == b.k &&
           a.l_bsk == b.l_bsk && a.bg_bits == b.bg_bits &&
           a.l_ksk == b.l_ksk && a.ks_base_bits == b.ks_base_bits &&
           sameBits(a.lwe_noise, b.lwe_noise) &&
           sameBits(a.glwe_noise, b.glwe_noise) && a.lambda == b.lambda;
}

bool
sameFreqRow(const FreqPolynomial &a, const FreqPolynomial &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(Cplx)) == 0;
}

} // namespace

TorusPolynomial
randomTorusPoly(size_t n, Rng &rng)
{
    TorusPolynomial p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = rng.uniformTorus32();
    return p;
}

IntPolynomial
randomSmallIntPoly(size_t n, int32_t bound, Rng &rng)
{
    IntPolynomial p(n);
    for (size_t i = 0; i < n; ++i)
        p[i] = static_cast<int32_t>(rng.uniformBelow(2 * bound + 1)) -
               bound;
    return p;
}

TorusPolynomial
randomMessagePoly(uint32_t n, Rng &rng, uint64_t space)
{
    TorusPolynomial mu(n);
    for (uint32_t i = 0; i < n; ++i)
        mu[i] = encodeMessage(
            static_cast<int64_t>(rng.uniformBelow(space)), space);
    return mu;
}

std::string
evalKeysDifference(const EvalKeys &a, const EvalKeys &b)
{
    if (!sameParams(a.params(), b.params()))
        return "params differ";
    if (a.seeds().bsk_mask != b.seeds().bsk_mask ||
        a.seeds().ksk_mask != b.seeds().ksk_mask)
        return "mask seeds differ";

    const TfheParams &p = a.params();
    if (a.bsk().n() != b.bsk().n())
        return "bsk bit counts differ";
    const size_t bsk_rows = size_t(p.k + 1) * p.l_bsk;
    for (uint32_t i = 0; i < a.bsk().n(); ++i)
        for (size_t r = 0; r < bsk_rows; ++r)
            for (uint32_t c = 0; c <= p.k; ++c)
                if (!sameFreqRow(a.bsk().bit(i).row(r, c),
                                 b.bsk().bit(i).row(r, c)))
                    return "bsk bit " + std::to_string(i) + " row " +
                           std::to_string(r) + " column " +
                           std::to_string(c) + " differs";

    const KeySwitchKey &ka = a.ksk();
    const KeySwitchKey &kb = b.ksk();
    if (ka.inDim() != kb.inDim() || ka.outDim() != kb.outDim() ||
        ka.gadget().base_bits != kb.gadget().base_bits ||
        ka.gadget().levels != kb.gadget().levels)
        return "ksk shapes differ";
    for (uint32_t i = 0; i < ka.inDim(); ++i)
        for (uint32_t j = 0; j < ka.gadget().levels; ++j)
            if (ka.row(i, j).raw() != kb.row(i, j).raw())
                return "ksk row (" + std::to_string(i) + ", " +
                       std::to_string(j) + ") differs";
    return "";
}

Evk2Layout
evk2Layout(const EvalKeys &keys)
{
    const TfheParams &p = keys.params();
    std::ostringstream params;
    serialize(params, p);
    // BSK2 SHAPE holds 5 u32 + a u64 seed, KSK2 SHAPE 4 u32 + a seed;
    // BODIES hold one N/2-point complex row per GLWE row and one u32
    // per LWE row.
    const size_t bsk_rows = size_t(p.n) * (p.k + 1) * p.l_bsk;
    const size_t ksk_rows = size_t(p.k) * p.N * p.l_ksk;
    Evk2Layout l;
    l.params_off = kFrameHeader;
    l.params_len = params.str().size();
    l.bsk_off = l.params_off + l.params_len;
    l.bsk_len = kFrameHeader + kSectionHeader + 28 + kSectionHeader +
                bsk_rows * (p.N / 2) * sizeof(Cplx);
    l.ksk_off = l.bsk_off + l.bsk_len;
    l.ksk_len = kFrameHeader + kSectionHeader + 24 + kSectionHeader +
                ksk_rows * 4;
    return l;
}

std::string
evk2WithGadgetBaseBits(const EvalKeys &keys, Evk2Gadget gadget,
                       uint32_t base_bits)
{
    std::ostringstream os;
    serialize(os, keys, EvalKeysFormat::Seeded);
    std::string frame = os.str();
    const Evk2Layout l = evk2Layout(keys);

    TfheParams p = keys.params();
    (gadget == Evk2Gadget::Bsk ? p.bg_bits : p.ks_base_bits) = base_bits;
    std::ostringstream params;
    serialize(params, p);
    frame.replace(l.params_off, l.params_len, params.str());

    // In the SHAPE section, base_bits follows n, k, N (BSK2) or
    // in_dim, out_dim (KSK2).
    const size_t off = gadget == Evk2Gadget::Bsk
                           ? l.bsk_off + kFrameHeader + kSectionHeader + 3 * 4
                           : l.ksk_off + kFrameHeader + kSectionHeader + 2 * 4;
    std::memcpy(&frame[off], &base_bits, sizeof(base_bits));
    return frame;
}

TfheParams
fastParams()
{
    return testParams(48, 512, 1, 3, 8, 0.0);
}

TfheParams
midParams()
{
    return testParams(20, 256, 1, 3, 8, 0.0);
}

} // namespace test
} // namespace strix
