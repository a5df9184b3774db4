/**
 * @file
 * EvalKeyCache: the serving daemon's bytes-budgeted store of tenant
 * key bundles.
 *
 * Holds EvalKeys bundles -- public evaluation material only -- keyed
 * by tenant id. A multi-tenant server is bounded by key memory, not
 * compute (a set-I bundle is ~48 MiB resident; see
 * EvalKeys::residentBytes), so the cache charges each adopted bundle
 * its resident bytes and, over the budget fixed at construction,
 * evicts the least-recently-used *unpinned* tenant: one whose bundle
 * nothing outside the cache references. An evicted tenant must
 * re-register; an active one (queued or running work holds its
 * bundle) stays resident even if that leaves the cache over budget.
 *
 * One mutex guards the map and every counter. The daemon's loop
 * thread is the only caller of getOrInsert/lookup; stats() may be
 * read from any thread.
 */

#ifndef STRIX_TFHE_EVAL_KEY_CACHE_H
#define STRIX_TFHE_EVAL_KEY_CACHE_H

#include <cstdint>
#include <map>
#include <memory>

#include "common/sync.h"
#include "tfhe/eval_keys.h"

namespace strix {

/** Point-in-time cache observability counters. */
struct CacheStats
{
    uint64_t hits = 0;       //!< calls served an already-resident bundle
    uint64_t inserts = 0;    //!< bundles adopted
    uint64_t evictions = 0;  //!< entries evicted under budget pressure
    uint64_t resident_bytes = 0; //!< bytes of resident bundles
    uint64_t entries = 0;    //!< tenants resident
    uint64_t budget_bytes = 0;   //!< configured budget (0 = unbounded)
};

/** Budgeted LRU cache of tenant EvalKeys bundles (no secret material). */
class EvalKeyCache
{
  public:
    /** @p budget_bytes caps resident bytes; 0 = unbounded. */
    explicit EvalKeyCache(uint64_t budget_bytes = 0)
        : budget_bytes_(budget_bytes)
    {
    }

    EvalKeyCache(const EvalKeyCache &) = delete;
    EvalKeyCache &operator=(const EvalKeyCache &) = delete;

    /**
     * Adopt @p bundle (non-null) for @p tenant. Idempotent: if the
     * tenant is already resident its *existing* bundle is returned (a
     * hit) and @p bundle is dropped -- a tenant re-registering does
     * not duplicate key memory. A new tenant is charged its resident
     * bytes, then LRU eviction runs; it never evicts the entry just
     * inserted.
     */
    std::shared_ptr<const EvalKeys>
    getOrInsert(uint64_t tenant, std::shared_ptr<const EvalKeys> bundle)
        STRIX_EXCLUDES(m_);

    /**
     * The bundle adopted for @p tenant, or nullptr if never inserted
     * or evicted under budget pressure (treat as "tenant must
     * re-register"). A hit stamps LRU recency.
     */
    std::shared_ptr<const EvalKeys> lookup(uint64_t tenant)
        STRIX_EXCLUDES(m_);

    /** Current counters, one snapshot. */
    CacheStats stats() const STRIX_EXCLUDES(m_);

  private:
    struct Entry
    {
        std::shared_ptr<const EvalKeys> bundle;
        uint64_t bytes = 0;
        uint64_t last_used = 0; //!< tick_ at the last insert or hit
    };

    /**
     * Evict LRU unpinned entries (never @p keep, the tenant being
     * returned) until resident bytes fit the budget or no candidate
     * remains.
     */
    void evictIfOver(uint64_t keep) STRIX_REQUIRES(m_);

    const uint64_t budget_bytes_;
    mutable Mutex m_;
    std::map<uint64_t, Entry> entries_ STRIX_GUARDED_BY(m_);
    uint64_t resident_bytes_ STRIX_GUARDED_BY(m_) = 0;
    uint64_t tick_ STRIX_GUARDED_BY(m_) = 0; //!< LRU recency clock
    uint64_t hits_ STRIX_GUARDED_BY(m_) = 0;
    uint64_t inserts_ STRIX_GUARDED_BY(m_) = 0;
    uint64_t evictions_ STRIX_GUARDED_BY(m_) = 0;
};

} // namespace strix

#endif // STRIX_TFHE_EVAL_KEY_CACHE_H
