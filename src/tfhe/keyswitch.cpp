/**
 * @file
 * Keyswitching implementation.
 */

#include "tfhe/keyswitch.h"

#include "common/logging.h"
#include "poly/simd.h"

namespace strix {

KeySwitchKey
KeySwitchKey::generateSeeded(const LweKey &from, const LweKey &to,
                             const TfheParams &params,
                             uint64_t mask_seed, Rng &noise_rng)
{
    KeySwitchKey ksk;
    ksk.in_dim_ = from.dim();
    ksk.out_dim_ = to.dim();
    ksk.g_ = GadgetParams{params.ks_base_bits, params.l_ksk};
    const Rng mask_root(mask_seed);
    ksk.rows_.reserve(size_t(from.dim()) * params.l_ksk);
    for (uint32_t i = 0; i < from.dim(); ++i) {
        for (uint32_t j = 1; j <= params.l_ksk; ++j) {
            Torus32 msg = static_cast<uint32_t>(from.bit(i)) *
                          ksk.g_.levelScale(j);
            Rng mask_rng = mask_root.fork(
                uint64_t(i) * params.l_ksk + (j - 1));
            ksk.rows_.push_back(lweEncryptSeeded(
                to, msg, params.lwe_noise, mask_rng, noise_rng));
        }
    }
    return ksk;
}

KeySwitchKey
KeySwitchKey::fromSeededBodies(uint32_t in_dim, uint32_t out_dim,
                               const GadgetParams &g, uint64_t mask_seed,
                               const std::vector<Torus32> &bodies)
{
    panicIfNot(bodies.size() == size_t(in_dim) * g.levels,
               "ksk fromSeededBodies: body count mismatch");
    const Rng mask_root(mask_seed);
    KeySwitchKey ksk;
    ksk.in_dim_ = in_dim;
    ksk.out_dim_ = out_dim;
    ksk.g_ = g;
    ksk.rows_.reserve(bodies.size());
    for (uint64_t r = 0; r < bodies.size(); ++r) {
        LweCiphertext ct(out_dim);
        // Same fork id as generateSeeded (i*levels + level == r) and
        // the same mask draw order as lweEncryptSeeded.
        Rng mask_rng = mask_root.fork(r);
        lweFillMask(ct, mask_rng);
        ct.b() = bodies[r];
        ksk.rows_.push_back(std::move(ct));
    }
    return ksk;
}

void
keySwitch(LweCiphertext *out, const LweCiphertext *cts, size_t count,
          const KeySwitchKey &ksk)
{
    // o[m] = c[n] (Algorithm 2, line 2), then every input coefficient.
    for (size_t b = 0; b < count; ++b) {
        panicIfNot(cts[b].dim() == ksk.inDim(), "keySwitch: dim mismatch");
        out[b] = LweCiphertext::trivial(ksk.outDim(), cts[b].b());
    }
    keySwitchBlock(out, cts, count, ksk, 0, ksk.inDim());
}

void
keySwitchBlock(LweCiphertext *acc, const LweCiphertext *cts, size_t count,
               const KeySwitchKey &ksk, uint32_t first, uint32_t last)
{
    const GadgetParams &g = ksk.gadget();
    const PolyKernels &kernels = activeKernels();
    // Subtract digit * row for every nonzero digit of the decomposed
    // mask, in one pass per row over all n+1 scalars (mask and body).
    const size_t len = size_t(ksk.outDim()) + 1;
    // Row-outer: each KSK row is applied to every ciphertext before the
    // next row is read. The sums are mod 2^32, so the order cannot
    // change them.
    std::vector<int32_t> digits(count * g.levels);
    for (uint32_t i = first; i < last; ++i) {
        for (size_t b = 0; b < count; ++b)
            gadgetDecompose(digits.data() + b * g.levels, cts[b].a(i), g);
        for (uint32_t j = 0; j < g.levels; ++j) {
            const Torus32 *row = ksk.row(i, j).raw().data();
            for (size_t b = 0; b < count; ++b) {
                const int32_t digit = digits[b * g.levels + j];
                if (digit == 0)
                    continue;
                kernels.subScaledRow(acc[b].raw().data(), row,
                                     static_cast<uint32_t>(digit), len);
            }
        }
    }
}

LweCiphertext
keySwitch(const LweCiphertext &ct, const KeySwitchKey &ksk)
{
    LweCiphertext out;
    keySwitch(&out, &ct, 1, ksk);
    return out;
}

} // namespace strix
