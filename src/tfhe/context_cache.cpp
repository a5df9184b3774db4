/**
 * @file
 * ContextCache implementation: keygen keys + secret-side ownership
 * over the EvalKeyCache engine.
 */

#include "tfhe/context_cache.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace strix {

namespace {

/**
 * Exact cache key over every field that affects keygen: all numeric
 * parameters (doubles by bit pattern, so -0.0 vs 0.0 or NaN payloads
 * cannot alias), the name, and the seed. Two parameter sets that
 * differ only in name hash apart -- conservative, but a name is part
 * of a set's identity in this codebase.
 */
std::string
cacheKey(const TfheParams &p, uint64_t seed)
{
    uint64_t lwe_bits, glwe_bits;
    static_assert(sizeof(lwe_bits) == sizeof(p.lwe_noise));
    std::memcpy(&lwe_bits, &p.lwe_noise, sizeof(lwe_bits));
    std::memcpy(&glwe_bits, &p.glwe_noise, sizeof(glwe_bits));
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "n=%" PRIu32 ";N=%" PRIu32 ";k=%" PRIu32
                  ";lb=%" PRIu32 ";bg=%" PRIu32 ";lk=%" PRIu32
                  ";kb=%" PRIu32 ";ln=%" PRIx64 ";gn=%" PRIx64
                  ";lam=%d;seed=%" PRIx64 ";",
                  p.n, p.N, p.k, p.l_bsk, p.bg_bits, p.l_ksk,
                  p.ks_base_bits, lwe_bits, glwe_bits, p.lambda, seed);
    return std::string(buf) + p.name;
}

} // namespace

std::shared_ptr<const ClientKeyset>
ContextCache::getOrCreateKeyset(const TfheParams &params, uint64_t seed)
{
    EvalKeyCache::Built built =
        cache_.getOrBuild(cacheKey(params, seed), [&] {
            auto keyset =
                std::make_shared<const ClientKeyset>(params, seed);
            // Park the keyset as the entry's opaque owner: it stays
            // alive with the bundle and pins the entry while any
            // caller still holds it.
            return EvalKeyCache::Built{keyset->evalKeys(), keyset};
        });
    return std::static_pointer_cast<const ClientKeyset>(built.owner);
}

std::shared_ptr<const EvalKeys>
ContextCache::getOrCreate(const TfheParams &params, uint64_t seed)
{
    return getOrCreateKeyset(params, seed)->evalKeys();
}

} // namespace strix
