/**
 * @file
 * EvalKeys: the public evaluation-key bundle a client ships to a
 * server.
 *
 * A TFHE deployment separates two roles (the paper's Fig. 1): the
 * *client* owns the secret keys and encrypts/decrypts; the *server*
 * evaluates PBS streams holding only public key material -- the
 * bootstrapping key (BSK) and the keyswitching key (KSK). EvalKeys is
 * exactly that server-side bundle: parameters + BSK + KSK, immutable
 * after construction, shared by `std::shared_ptr` so any number of
 * ServerContexts (and the daemon's EvalKeyCache) reference one copy
 * with zero key duplication.
 *
 * EvalKeys contains no secret key and no RNG; code that only sees an
 * EvalKeys (or a ServerContext built on one) provably cannot decrypt.
 * Every bundle comes from seeded keygen and carries its mask seeds,
 * so it serializes as the compressed `EVK2` frame of serialize.h
 * (`serialize(os, keys, EvalKeysFormat::Seeded)` /
 * `deserializeEvalKeys(is)`): the server re-expands the masks, and
 * evaluation under the deserialized bundle is bit-identical to
 * evaluation under the original.
 */

#ifndef STRIX_TFHE_EVAL_KEYS_H
#define STRIX_TFHE_EVAL_KEYS_H

#include <memory>

#include "tfhe/bootstrap.h"
#include "tfhe/keyswitch.h"

namespace strix {

/**
 * Mask-stream root seeds recorded by seeded keygen
 * (BootstrappingKey::generateSeeded / KeySwitchKey::generateSeeded).
 * They let the bundle serialize as a compressed EVK2 frame (seed +
 * body components only, ~1/(k+1) of the resident size). The seeds
 * are public material: the masks they expand to are the public half
 * of every key row.
 */
struct EvalKeySeeds
{
    uint64_t bsk_mask; //!< BSK mask stream root
    uint64_t ksk_mask; //!< KSK mask stream root
};

/**
 * Immutable public evaluation-key bundle: parameters, bootstrapping
 * key, keyswitching key. Thread-safe by construction (all accessors
 * are const and the state never changes after the constructor).
 */
class EvalKeys
{
  public:
    /**
     * Bundle @p bsk and @p ksk, generated for @p params by the seeded
     * keygen path from the mask stream roots @p seeds (kept so the
     * bundle serializes as EVK2). Panics if the key shapes do not
     * match the parameter set (a mismatched bundle would silently
     * produce garbage ciphertexts).
     */
    EvalKeys(TfheParams params, BootstrappingKey bsk, KeySwitchKey ksk,
             EvalKeySeeds seeds);

    const TfheParams &params() const { return params_; }
    const BootstrappingKey &bsk() const { return bsk_; }
    const KeySwitchKey &ksk() const { return ksk_; }

    /** Mask stream roots the BSK and KSK masks expand from. */
    const EvalKeySeeds &seeds() const { return seeds_; }

    /** Approximate in-memory bundle size (time-domain equivalent). */
    uint64_t bytes() const
    {
        return params_.bskBytes() + params_.kskBytes();
    }

    /**
     * Actual resident size of the key material as stored: the
     * frequency-domain BSK rows (16 bytes per complex point -- 4x the
     * time-domain torus estimate of bytes()) plus the KSK rows. This
     * is what one cached tenant costs a server, and the unit the
     * daemon's EvalKeyCache budgets and accounts evictions in.
     */
    uint64_t residentBytes() const;

  private:
    TfheParams params_;
    BootstrappingKey bsk_;
    KeySwitchKey ksk_;
    EvalKeySeeds seeds_;
};

} // namespace strix

#endif // STRIX_TFHE_EVAL_KEYS_H
