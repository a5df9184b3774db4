/**
 * @file
 * Programmable bootstrapping (Algorithm 1): modulus switching, blind
 * rotation, sample extraction, and LUT (test-vector) construction.
 */

#ifndef STRIX_TFHE_BOOTSTRAP_H
#define STRIX_TFHE_BOOTSTRAP_H

#include <functional>
#include <vector>

#include "tfhe/ggsw.h"
#include "tfhe/params.h"

namespace strix {

class ThreadPool;

/**
 * Bootstrapping key: one GGSW encryption (under the GLWE key) of each
 * LWE key bit, stored in the frequency domain as Strix does in its
 * global scratchpad.
 */
class BootstrappingKey
{
  public:
    BootstrappingKey() = default;

    uint32_t n() const { return static_cast<uint32_t>(ggsw_fft_.size()); }
    const GgswFft &bit(size_t i) const { return ggsw_fft_[i]; }
    const TfheParams &params() const { return params_; }

    /**
     * Generate from the input LWE key and output GLWE key, one seeded
     * GGSW per key bit (ggswEncryptSeededRow): every mask polynomial
     * comes from the deterministic stream rooted at @p mask_seed --
     * GLWE row r = block*l_bsk + level of bit i forks stream id
     * i*(k+1)*l_bsk + r -- and only noise draws from @p noise_rng. The
     * key is fully determined by (mask_seed, bodies), which is what
     * the compressed BSK2 frame ships; fromSeededBodies() reconstructs
     * it bit-identically.
     *
     * With a @p pool, the bits of each block of 16 are encrypted and
     * transformed on its lanes. The calling thread first draws the
     * block's noise from @p noise_rng, in the order a serial run draws
     * it, and it allocates every key row, so the key is the same bits
     * at any lane count.
     */
    static BootstrappingKey generateSeeded(const LweKey &lwe_key,
                                           const GlweKey &glwe_key,
                                           const TfheParams &params,
                                           uint64_t mask_seed,
                                           Rng &noise_rng,
                                           ThreadPool *pool = nullptr);

    /**
     * Rebuild a generateSeeded() key from its mask seed plus the
     * shipped frequency-domain body column: @p freq_bodies holds
     * n*(k+1)*l_bsk polynomials of N/2 points, entry
     * i*(k+1)*l_bsk + r being column k of GLWE row r of bit i. Masks
     * are re-expanded from per-row forks of @p mask_seed and forward-
     * transformed through the same per-polynomial FFT path keygen
     * uses, so the rebuilt key is bit-identical to the generated one
     * (same process / same FFT kernel; see README). With a @p pool,
     * the bits are expanded on its lanes, into rows the calling
     * thread allocates; each bit's masks depend only on its forks, so
     * the key is the same bits at any lane count. Needs no secret
     * key. Panics on shape mismatch -- callers feeding untrusted bytes
     * validate shapes first (serialize.cpp does).
     */
    static BootstrappingKey
    fromSeededBodies(const TfheParams &params, uint64_t mask_seed,
                     std::vector<FreqPolynomial> freq_bodies,
                     ThreadPool *pool = nullptr);

  private:
    std::vector<GgswFft> ggsw_fft_;
    TfheParams params_;
};

/**
 * Precomputed modulus switch to Z_{2N}: round(a * 2N / 2^32)
 * (Algorithm 1, line 3). The constructor derives the shift, rounding
 * bias, and wrap mask once -- it runs n times per blind rotation, so
 * hot callers hoist one instance out of their loops -- and panics on
 * a non-power-of-two ring dimension (the old per-call log2 loop spun
 * forever on one). The big_n = 2^31 edge, where 2N fills the whole
 * torus and the shift is zero, degenerates to the identity map
 * instead of the former shift-by-(0-1) underflow.
 */
class ModSwitch
{
  public:
    explicit ModSwitch(uint32_t big_n);

    /** Switch one torus scalar: round-half-up, wrapped mod 2N. */
    uint32_t operator()(Torus32 a) const
    {
        return static_cast<uint32_t>(
                   (static_cast<uint64_t>(a) + bias_) >> shift_) &
               mask_;
    }

  private:
    uint32_t shift_; //!< 32 - log2(2N); 0 when big_n == 2^31
    uint32_t mask_;  //!< 2N - 1
    uint64_t bias_;  //!< half a grid step (0 when shift_ == 0)
};

/**
 * Modulus switch one torus scalar to Z_{2N}. One-shot convenience
 * over ModSwitch; loops should hoist a ModSwitch instance instead.
 */
uint32_t modulusSwitch(Torus32 a, uint32_t big_n);

/**
 * The first stage of blind rotation (Algorithm 1, line 4) of @p count
 * accumulators: check every shape, then rotate each accs[b] by -b~ of
 * cts[b]. The CMux steps (CmuxSteps) follow.
 */
void blindRotateInit(GlweCiphertext *accs, const LweCiphertext *cts,
                     size_t count, const BootstrappingKey &bsk,
                     PbsScratch &scratch);

/**
 * The CMux steps (Algorithm 1, lines 5-12) of a key-stationary epoch
 * of @p count accumulators, numbered from 1: step 1 + i*count + b
 * applies BSK bit i to accs[b], accumulating X^{a~_i * s_i}, so bit
 * i's GGSW serves every accumulator before bit i+1 is read (Strix's
 * second batching level). A step whose a~_i is zero contributes
 * nothing and is skipped, so each accumulator sees the CMux sequence
 * of a rotation of its own and every result is bit-identical to a
 * width-1 epoch. blindRotate runs the steps alone; bootstrapKeySwitch
 * runs the same steps, split between two lanes while a partner helps.
 */
class CmuxSteps
{
  public:
    /** Borrows every argument: the caller keeps them alive. */
    CmuxSteps(const BootstrappingKey &bsk, GlweCiphertext *accs,
              const LweCiphertext *cts, size_t count)
        : bsk_(bsk), accs_(accs), cts_(cts), count_(count),
          ms_(bsk.params().N)
    {
    }

    /** One past the last step. */
    uint64_t end() const { return 1 + uint64_t(bsk_.n()) * count_; }

    /** The first step after @p s that runs, or end(); next(0) starts. */
    uint64_t next(uint64_t s) const
    {
        do
            ++s;
        while (s < end() && power(s) == 0);
        return s;
    }

    /** The rotation power a~ of step @p s; 0 skips the step. */
    uint32_t power(uint64_t s) const
    {
        return ms_(cts_[(s - 1) % count_].a((s - 1) / count_));
    }

    /** The BSK bit of step @p s. */
    const GgswFft &bit(uint64_t s) const
    {
        return bsk_.bit((s - 1) / count_);
    }

    /** The accumulator step @p s updates. */
    GlweCiphertext &acc(uint64_t s) const
    {
        return accs_[(s - 1) % count_];
    }

    /** Run step @p s on this thread alone. */
    void run(uint64_t s, PbsScratch &scratch) const
    {
        bit(s).cmuxRotate(acc(s), power(s), scratch);
    }

  private:
    const BootstrappingKey &bsk_;
    GlweCiphertext *const accs_;
    const LweCiphertext *const cts_;
    const size_t count_;
    const ModSwitch ms_;
};

/**
 * Blind rotation (Algorithm 1, lines 4-12) of one accumulator:
 * blindRotateInit, then every CmuxSteps step on this thread.
 *
 * @param acc     in: trivial GLWE of the test vector (shape (k, N));
 *                out: the rotated GLWE
 * @param ct      the LWE ciphertext being bootstrapped (dimension n)
 * @param bsk     bootstrapping key
 * @param scratch per-thread working buffers reused across iterations
 */
void blindRotate(GlweCiphertext &acc, const LweCiphertext &ct,
                 const BootstrappingKey &bsk, PbsScratch &scratch);

/**
 * Full PBS: blind-rotate the test vector, then sample-extract
 * coefficient 0. The result is an LWE ciphertext of dimension k*N
 * encrypting tv[phase~] (keyswitching converts it back to dim n).
 * Thread-safe: shares no mutable state; @p scratch carries all
 * working storage, so one scratch per thread parallelizes cleanly.
 */
LweCiphertext programmableBootstrap(const LweCiphertext &ct,
                                    const TorusPolynomial &test_vector,
                                    const BootstrappingKey &bsk,
                                    PbsScratch &scratch);

/** Convenience overload with a throwaway local scratch. */
LweCiphertext programmableBootstrap(const LweCiphertext &ct,
                                    const TorusPolynomial &test_vector,
                                    const BootstrappingKey &bsk);

/**
 * Encode integer message @p m in [0, msg_space) at the *center* of its
 * phase window: mu = (2m+1) / (4*msg_space). Centered encoding keeps
 * the phase of message 0 strictly positive under noise, avoiding the
 * negacyclic sign flip. Any int64_t m is accepted (LUT entries come
 * off the wire); decodeLut recovers m mod msg_space.
 */
Torus32 encodeLut(int64_t m, uint64_t msg_space);

/** Decode a centered-encoded message: floor(phase * 2*msg_space). */
int64_t decodeLut(Torus32 phase, uint64_t msg_space);

/**
 * Build the test vector for evaluating f: [0,msg_space) -> Torus32
 * during bootstrapping: coefficient j holds f(floor(j * msg_space/N)).
 */
TorusPolynomial makeTestVector(uint32_t big_n, uint64_t msg_space,
                               const std::function<Torus32(int64_t)> &f);

/**
 * Convenience: test vector of an integer-to-integer function with
 * centered output encoding in the same message space.
 */
TorusPolynomial makeIntTestVector(uint32_t big_n, uint64_t msg_space,
                                  const std::function<int64_t(int64_t)> &f);

} // namespace strix

#endif // STRIX_TFHE_BOOTSTRAP_H
