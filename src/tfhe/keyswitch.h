/**
 * @file
 * LWE-to-LWE keyswitching (Algorithm 2).
 *
 * After PBS the ciphertext is encrypted under the extracted key of
 * dimension k*N. Keyswitching decomposes each mask scalar and
 * subtracts the matching combination of keyswitching-key rows,
 * yielding a ciphertext of dimension n under the original key
 * (a k*N*lk x (n+1) vector-matrix multiplication, as the paper says).
 */

#ifndef STRIX_TFHE_KEYSWITCH_H
#define STRIX_TFHE_KEYSWITCH_H

#include <vector>

#include "tfhe/decompose.h"
#include "tfhe/lwe.h"
#include "tfhe/params.h"

namespace strix {

class ThreadPool;

/** Keyswitching key: rows ksk[i][j] = LWE_s(z_i * q / base^{j+1}). */
class KeySwitchKey
{
  public:
    KeySwitchKey() = default;

    uint32_t inDim() const { return in_dim_; }
    uint32_t outDim() const { return out_dim_; }
    const GadgetParams &gadget() const { return g_; }

    const LweCiphertext &row(size_t i, size_t level) const
    {
        return rows_[i * g_.levels + level];
    }

    /**
     * Generate a keyswitching key from @p from (dimension k*N,
     * typically GlweKey::extractedLweKey()) to @p to (dimension n),
     * one lweEncryptSeeded per row: the mask of row (i, level) comes
     * from fork i*l_ksk + level of the stream rooted at @p mask_seed;
     * only noise draws from @p noise_rng, one value per row in row
     * order. The key is fully determined by (mask_seed, bodies) -- the
     * KSK2 frame ships exactly that and fromSeededBodies()
     * reconstructs it bit-identically. With a @p pool, blocks of rows
     * are encrypted on its lanes once the calling thread has drawn the
     * noise and allocated every row, so the key is the same bits at
     * any lane count.
     */
    static KeySwitchKey generateSeeded(const LweKey &from,
                                       const LweKey &to,
                                       const TfheParams &params,
                                       uint64_t mask_seed,
                                       Rng &noise_rng,
                                       ThreadPool *pool = nullptr);

    /**
     * Rebuild a generateSeeded() key from its mask seed plus the
     * shipped bodies: @p bodies holds in_dim*levels scalars, entry
     * i*levels + level being b of row (i, level). Masks re-expand
     * from per-row forks of @p mask_seed, by row block on the lanes of
     * @p pool if one is given (the same bits at any lane count); needs
     * no secret key. Panics on count mismatch -- callers feeding
     * untrusted bytes validate shapes first (serialize.cpp does).
     */
    static KeySwitchKey fromSeededBodies(uint32_t in_dim,
                                         uint32_t out_dim,
                                         const GadgetParams &g,
                                         uint64_t mask_seed,
                                         const std::vector<Torus32> &bodies,
                                         ThreadPool *pool = nullptr);

  private:
    uint32_t in_dim_ = 0;
    uint32_t out_dim_ = 0;
    GadgetParams g_{0, 0};
    std::vector<LweCiphertext> rows_;
};

/**
 * Switch @p count ciphertexts cts[b] (dimension ksk.inDim()) to
 * dimension ksk.outDim(), into out[b] (which must not alias cts).
 * Each nonzero digit subtracts digit * row from its output in one
 * pass through the dispatched kernel table (PolyKernels::subScaledRow,
 * AVX2 where available). The loop is row-outer: each KSK row is
 * applied to every ciphertext before the next row is read, so a batch
 * reads the key once. The arithmetic is mod 2^32, so every out[b] is
 * exact on every table, at every vector width and every count.
 */
void keySwitch(LweCiphertext *out, const LweCiphertext *cts, size_t count,
               const KeySwitchKey &ksk);

/**
 * One block of keySwitch, for a lane pair: subtract digit * row from
 * acc[b] for every input coefficient i in [@p first, @p last) of
 * cts[b], row-outer like keySwitch. The caller sets acc[b] up (the
 * trivial body for the block that starts at 0, zero for the others)
 * and adds the blocks' partials together. Every sum is mod 2^32, so
 * partials added in any order equal keySwitch bit for bit.
 */
void keySwitchBlock(LweCiphertext *acc, const LweCiphertext *cts,
                    size_t count, const KeySwitchKey &ksk, uint32_t first,
                    uint32_t last);

/** Switch one ciphertext: a batch of 1. */
LweCiphertext keySwitch(const LweCiphertext &ct, const KeySwitchKey &ksk);

} // namespace strix

#endif // STRIX_TFHE_KEYSWITCH_H
