/**
 * @file
 * ClientKeyset: the client-side half of the split TFHE API.
 *
 * Owns every *secret*: the LWE key, the GLWE key, the extracted LWE
 * key, and the encryption RNG. Key generation also derives the public
 * EvalKeys bundle (BSK + KSK) from the same deterministic RNG stream,
 * available through evalKeys() as a `shared_ptr` the client can hand
 * to local ServerContexts or serialize to a remote server (see
 * serialize.h). Evaluation itself lives on ServerContext; nothing in
 * this class runs a bootstrap.
 *
 * Thread-safety contract
 * ----------------------
 * All members are safe to call concurrently on one shared keyset. Key
 * material is immutable after construction; encryptBit/encryptInt
 * serialize access to the internal RNG with a mutex, so concurrent
 * encryptions are safe (their interleaving -- and therefore the noise
 * each draw gets -- is whatever order the lock grants; encrypt results
 * are only deterministic across runs when calls are externally
 * ordered). Callers that need per-thread deterministic streams use
 * the explicit `Rng &` overloads, which never touch the internal RNG
 * or its mutex: the caller owns that generator and its thread-safety.
 */

#ifndef STRIX_TFHE_CLIENT_KEYSET_H
#define STRIX_TFHE_CLIENT_KEYSET_H

#include <memory>

#include "common/sync.h"
#include "tfhe/eval_keys.h"

namespace strix {

/** Secret keys + encryption RNG for one TFHE client. */
class ClientKeyset
{
  public:
    /**
     * Generate all key material for @p params deterministically from
     * @p seed (fixed stream order: LWE key, GLWE key, mask seeds, BSK
     * noise, KSK noise -- a given (params, seed) pair always yields
     * bit-identical keys, at any STRIX_THREADS) and prewarm the FFT
     * plan caches for this ring dimension. The BSK/KSK are generated
     * with seeded masks, so evalKeys() carries the mask seeds and
     * serializes as the compressed EVK2 frame. Their expansion runs on
     * a ThreadPool of the default size that the constructor starts and
     * joins.
     */
    // no_thread_safety_analysis: the member-initializer list draws the
    // key material from rng_ without rng_mutex_. Manual proof: a
    // constructor runs strictly before any other thread can hold a
    // reference to the object, so no concurrent encrypt*() can touch
    // rng_ until construction completes.
    explicit ClientKeyset(const TfheParams &params,
                          uint64_t seed = 0xC0DEC0DEULL)
        STRIX_NO_THREAD_SAFETY_ANALYSIS;

    const TfheParams &params() const { return params_; }
    const LweKey &lweKey() const { return lwe_key_; }
    const GlweKey &glweKey() const { return glwe_key_; }
    const LweKey &extractedKey() const { return extracted_key_; }

    /**
     * The public evaluation-key bundle generated alongside the secret
     * keys. Sharing the pointer shares one copy of the BSK/KSK across
     * any number of ServerContexts.
     */
    const std::shared_ptr<const EvalKeys> &evalKeys() const
    {
        return eval_keys_;
    }

    /** Encrypt a boolean as mu = +-1/8 under the dim-n key. */
    LweCiphertext encryptBit(bool bit) const STRIX_EXCLUDES(rng_mutex_);

    /** Encrypt a boolean drawing noise from caller-owned @p rng. */
    LweCiphertext encryptBit(bool bit, Rng &rng) const;

    /**
     * Encrypt an integer in [0, msg_space) with centered LUT encoding
     * (padding bit) under the dim-n key.
     */
    LweCiphertext encryptInt(int64_t m, uint64_t msg_space) const
        STRIX_EXCLUDES(rng_mutex_);

    /** Encrypt an integer drawing noise from caller-owned @p rng. */
    LweCiphertext encryptInt(int64_t m, uint64_t msg_space,
                             Rng &rng) const;

    /** Decrypt a boolean (sign of the phase). */
    bool decryptBit(const LweCiphertext &ct) const;

    /** Decrypt an integer with centered LUT encoding. */
    int64_t decryptInt(const LweCiphertext &ct, uint64_t msg_space) const;

  private:
    TfheParams params_;

    /**
     * Populates the FFT plan caches for this ring dimension. Members
     * initialize in declaration order, so the caches are published
     * before any key material is generated and every later lookup is
     * a lock-free read.
     */
    struct FftPrewarm
    {
        explicit FftPrewarm(const TfheParams &p);
    };
    FftPrewarm fft_prewarm_;

    mutable Mutex rng_mutex_; //!< guards rng_ for encrypt*()
    mutable Rng rng_ STRIX_GUARDED_BY(rng_mutex_);
    LweKey lwe_key_;
    GlweKey glwe_key_;
    LweKey extracted_key_;
    std::shared_ptr<const EvalKeys> eval_keys_;
};

} // namespace strix

#endif // STRIX_TFHE_CLIENT_KEYSET_H
