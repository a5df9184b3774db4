/**
 * @file
 * ContextCache: a keygen-amortizing service layer over the split API.
 *
 * Key generation dominates setup cost in every example and benchmark
 * (seconds at the paper parameter sets, vs microseconds for the work
 * a short session actually does). Since this library's keygen is
 * deterministic in (parameter set, seed), repeated sessions over the
 * same pair can share one keyset: getOrCreate() returns a cached
 * `shared_ptr<const EvalKeys>` and getOrCreateKeyset() the full
 * ClientKeyset it came from, generating each distinct (params, seed)
 * bundle exactly once no matter how many threads ask concurrently.
 *
 * The budgeted-LRU machinery itself lives one layer down in
 * EvalKeyCache (eval_key_cache.h), which holds only public EvalKeys
 * bundles; this facade adds the secret side, parking each generated
 * ClientKeyset as the entry's opaque owner handle. Memory accounting,
 * eviction, pinning, and CacheStats semantics are EvalKeyCache's: a
 * multi-tenant holder of one bundle per resident tenant is bounded by
 * key memory, not compute (a set-I bundle is ~48 MiB resident; see
 * EvalKeys::residentBytes), and under a setBudgetBytes() budget the
 * least-recently-used *unpinned* entries are evicted until it fits.
 * An entry is pinned while any external shared_ptr to its keyset or
 * EvalKeys bundle is alive -- eviction never invalidates outstanding
 * references.
 *
 * Trust model: the cache holds ClientKeysets -- secret keys -- so it
 * lives on the key-owning side (a client runtime, a test/bench
 * harness, a trusted session broker). An evaluation-only server never
 * needs it and must not include this header (lint-enforced): servers
 * receive EvalKeys bundles -- shared in-process or deserialized off
 * the wire -- and budget them with EvalKeyCache directly.
 */

#ifndef STRIX_TFHE_CONTEXT_CACHE_H
#define STRIX_TFHE_CONTEXT_CACHE_H

#include <memory>

#include "tfhe/client_keyset.h"
#include "tfhe/eval_key_cache.h"

namespace strix {

/**
 * Cache of deterministic (params, seed) keysets. Its owner builds one
 * and hands it to every session that should share keys.
 */
class ContextCache
{
  public:
    ContextCache() = default;

    ContextCache(const ContextCache &) = delete;
    ContextCache &operator=(const ContextCache &) = delete;

    /**
     * The cached evaluation-key bundle for (params, seed), generating
     * it (exactly once, even under concurrent first touch) on a miss.
     * All callers get pointer-identical bundles, so any number of
     * ServerContexts built from them share one BSK/KSK copy.
     */
    std::shared_ptr<const EvalKeys> getOrCreate(const TfheParams &params,
                                                uint64_t seed);

    /**
     * The cached full keyset for (params, seed) -- secret keys
     * included, for callers that also encrypt/decrypt. Its
     * ->evalKeys() is the same pointer getOrCreate() returns.
     */
    std::shared_ptr<const ClientKeyset>
    getOrCreateKeyset(const TfheParams &params, uint64_t seed);

    /**
     * Cap the resident bytes of built bundles (EvalKeys::residentBytes
     * accounting); 0 restores the unbounded default. Applies
     * immediately: if built entries already exceed the new budget,
     * LRU unpinned ones are evicted now. The budget is best-effort
     * under pinning -- if every entry is pinned, the cache stays over
     * budget rather than invalidating live tenants.
     */
    void setBudgetBytes(uint64_t budget)
    {
        cache_.setBudgetBytes(budget);
    }

    /** Current counters (hits/misses/evictions/resident bytes). */
    CacheStats stats() const { return cache_.stats(); }

    /** Entries resident (built or being built). */
    size_t size() const { return cache_.size(); }

    /** Cold key generations performed so far (misses). */
    uint64_t keygenCount() const { return cache_.buildCount(); }

    /**
     * Drop every cached entry. Outstanding shared_ptrs stay valid;
     * later lookups regenerate. Intended for tests and memory-
     * pressure hooks, not steady-state serving.
     */
    void clear() { cache_.clear(); }

  private:
    EvalKeyCache cache_;
};

} // namespace strix

#endif // STRIX_TFHE_CONTEXT_CACHE_H
