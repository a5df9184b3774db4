/**
 * @file
 * ClientKeyset implementation: keygen and secret-key operations.
 */

#include "tfhe/client_keyset.h"

#include "common/parallel.h"
#include "poly/negacyclic_fft.h"

namespace strix {

ClientKeyset::FftPrewarm::FftPrewarm(const TfheParams &p)
{
    NegacyclicFft::prewarm(p.N);
}

// See the header for the manual proof behind the analysis opt-out.
ClientKeyset::ClientKeyset(const TfheParams &params, uint64_t seed)
    STRIX_NO_THREAD_SAFETY_ANALYSIS
    : params_(params),
      fft_prewarm_(params_),
      rng_(seed),
      lwe_key_(params.n, rng_),
      glwe_key_(params.k, params.N, rng_),
      extracted_key_(glwe_key_.extractedLweKey())
{
    // Sequenced statements, not constructor arguments: every draw
    // below advances rng_, and the order (mask seeds, then BSK noise,
    // then KSK noise) pins the deterministic keygen stream for a
    // given (params, seed).
    //
    // Keys are generated on the *seeded* path: mask components come
    // from deterministic substreams rooted at two seeds drawn here,
    // so the EvalKeys bundle records them and can serialize as a
    // compressed EVK2 frame (seed + bodies, ~1/(k+1) the size; see
    // serialize.h) that re-expands bit-identically.
    //
    // The expansions run on a pool of STRIX_THREADS lanes that lives
    // only for this constructor. Their noise comes from rng_ in the
    // order a serial run draws it, so the keys are the same bits at
    // any lane count.
    const EvalKeySeeds seeds{rng_.next64(), rng_.next64()};
    ThreadPool pool;
    BootstrappingKey bsk = BootstrappingKey::generateSeeded(
        lwe_key_, glwe_key_, params_, seeds.bsk_mask, rng_, &pool);
    KeySwitchKey ksk = KeySwitchKey::generateSeeded(
        extracted_key_, lwe_key_, params_, seeds.ksk_mask, rng_, &pool);
    eval_keys_ = std::make_shared<const EvalKeys>(
        params_, std::move(bsk), std::move(ksk), seeds);
}

LweCiphertext
ClientKeyset::encryptBit(bool bit) const
{
    MutexLock lock(rng_mutex_);
    return encryptBit(bit, rng_);
}

LweCiphertext
ClientKeyset::encryptBit(bool bit, Rng &rng) const
{
    Torus32 mu = encodeMessage(bit ? 1 : -1, 8); // +-1/8
    return lweEncrypt(lwe_key_, mu, params_.lwe_noise, rng);
}

LweCiphertext
ClientKeyset::encryptInt(int64_t m, uint64_t msg_space) const
{
    MutexLock lock(rng_mutex_);
    return encryptInt(m, msg_space, rng_);
}

LweCiphertext
ClientKeyset::encryptInt(int64_t m, uint64_t msg_space, Rng &rng) const
{
    return lweEncrypt(lwe_key_, encodeLut(m, msg_space),
                      params_.lwe_noise, rng);
}

bool
ClientKeyset::decryptBit(const LweCiphertext &ct) const
{
    Torus32 phase = lwePhase(lwe_key_, ct);
    return static_cast<int32_t>(phase) > 0;
}

int64_t
ClientKeyset::decryptInt(const LweCiphertext &ct, uint64_t msg_space) const
{
    return decodeLut(lwePhase(lwe_key_, ct), msg_space);
}

} // namespace strix
