/**
 * @file
 * Keyswitching implementation.
 */

#include "tfhe/keyswitch.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "common/parallel.h"
#include "poly/simd.h"

namespace strix {

namespace {

/** KSK rows per index of the expansions' parallelFor. */
constexpr size_t kRowsPerBlock = 256;

/** parallelFor over [0, rows) in blocks of kRowsPerBlock rows. */
void
forEachRowBlock(ThreadPool *pool, size_t rows,
                const std::function<void(size_t first, size_t last)> &fn)
{
    const size_t blocks = (rows + kRowsPerBlock - 1) / kRowsPerBlock;
    parallelFor(pool, blocks, [&](size_t b, unsigned) {
        fn(b * kRowsPerBlock, std::min(rows, (b + 1) * kRowsPerBlock));
    });
}

} // namespace

KeySwitchKey
KeySwitchKey::generateSeeded(const LweKey &from, const LweKey &to,
                             const TfheParams &params,
                             uint64_t mask_seed, Rng &noise_rng,
                             ThreadPool *pool)
{
    KeySwitchKey ksk;
    ksk.in_dim_ = from.dim();
    ksk.out_dim_ = to.dim();
    ksk.g_ = GadgetParams{params.ks_base_bits, params.l_ksk};
    const uint32_t levels = params.l_ksk;
    const size_t rows = size_t(from.dim()) * levels;
    // The calling thread allocates every row, and the noise is drawn
    // in row order; the lanes then fill the rows by block, so the key
    // is the same bits at any lane count.
    ksk.rows_.assign(rows, LweCiphertext(to.dim()));
    std::vector<Torus32> noise(rows);
    for (Torus32 &e : noise)
        e = noise_rng.gaussianTorus32(params.lwe_noise);
    const Rng mask_root(mask_seed);
    forEachRowBlock(pool, rows, [&](size_t first, size_t last) {
        for (size_t r = first; r < last; ++r) {
            // Row r = i*levels + level encrypts z_i * q/B^(level+1).
            const auto i = static_cast<uint32_t>(r / levels);
            const Torus32 msg = static_cast<uint32_t>(from.bit(i)) *
                                ksk.g_.levelScale(r % levels + 1);
            Rng mask_rng = mask_root.fork(r);
            lweEncryptSeeded(ksk.rows_[r], to, msg, mask_rng, noise[r]);
        }
    });
    return ksk;
}

KeySwitchKey
KeySwitchKey::fromSeededBodies(uint32_t in_dim, uint32_t out_dim,
                               const GadgetParams &g, uint64_t mask_seed,
                               const std::vector<Torus32> &bodies,
                               ThreadPool *pool)
{
    panicIfNot(bodies.size() == size_t(in_dim) * g.levels,
               "ksk fromSeededBodies: body count mismatch");
    KeySwitchKey ksk;
    ksk.in_dim_ = in_dim;
    ksk.out_dim_ = out_dim;
    ksk.g_ = g;
    ksk.rows_.assign(bodies.size(), LweCiphertext(out_dim));
    const Rng mask_root(mask_seed);
    forEachRowBlock(pool, bodies.size(), [&](size_t first, size_t last) {
        for (size_t r = first; r < last; ++r) {
            // Same fork id as generateSeeded and the same mask draw
            // order as lweEncryptSeeded.
            Rng mask_rng = mask_root.fork(r);
            lweFillMask(ksk.rows_[r], mask_rng);
            ksk.rows_[r].b() = bodies[r];
        }
    });
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
