/**
 * @file
 * EvalKeyCache implementation.
 */

#include "tfhe/eval_key_cache.h"

#include "common/logging.h"

namespace strix {

std::shared_ptr<const EvalKeys>
EvalKeyCache::getOrInsert(uint64_t tenant,
                          std::shared_ptr<const EvalKeys> bundle)
{
    panicIfNot(bundle != nullptr, "EvalKeyCache: null bundle insert");
    MutexLock lock(m_);
    auto [it, inserted] = entries_.try_emplace(tenant);
    Entry &e = it->second;
    e.last_used = ++tick_;
    if (!inserted) {
        ++hits_;
        return e.bundle;
    }
    e.bytes = bundle->residentBytes();
    e.bundle = std::move(bundle);
    resident_bytes_ += e.bytes;
    ++inserts_;
    evictIfOver(tenant);
    return e.bundle;
}

std::shared_ptr<const EvalKeys>
EvalKeyCache::lookup(uint64_t tenant)
{
    MutexLock lock(m_);
    auto it = entries_.find(tenant);
    if (it == entries_.end())
        return nullptr; // never inserted, or evicted under pressure
    it->second.last_used = ++tick_;
    ++hits_;
    return it->second.bundle;
}

void
EvalKeyCache::evictIfOver(uint64_t keep)
{
    while (budget_bytes_ != 0 && resident_bytes_ > budget_bytes_) {
        auto victim = entries_.end();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            // Pinned: a caller still holds the bundle. Evicting would
            // not invalidate it (shared_ptr), but an active tenant
            // must stay resident.
            if (it->first == keep || it->second.bundle.use_count() > 1)
                continue;
            if (victim == entries_.end() ||
                it->second.last_used < victim->second.last_used)
                victim = it;
        }
        if (victim == entries_.end())
            return; // everything left is pinned
        resident_bytes_ -= victim->second.bytes;
        entries_.erase(victim);
        ++evictions_;
    }
}

CacheStats
EvalKeyCache::stats() const
{
    MutexLock lock(m_);
    CacheStats s;
    s.hits = hits_;
    s.inserts = inserts_;
    s.evictions = evictions_;
    s.resident_bytes = resident_bytes_;
    s.entries = entries_.size();
    s.budget_bytes = budget_bytes_;
    return s;
}

} // namespace strix
