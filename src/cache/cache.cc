#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace interf::cache
{

u32
CacheConfig::numSets() const
{
    u64 lines = sizeBytes / lineBytes;
    return static_cast<u32>(lines / assoc);
}

void
CacheConfig::validate() const
{
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        fatal("cache '%s': line size %u is not a power of two",
              name.c_str(), lineBytes);
    if (assoc == 0)
        fatal("cache '%s': associativity must be >= 1", name.c_str());
    if (sizeBytes % (static_cast<u64>(lineBytes) * assoc) != 0)
        fatal("cache '%s': size %llu not divisible by way size",
              name.c_str(),
              static_cast<unsigned long long>(sizeBytes));
    u32 sets = numSets();
    if (sets == 0 || (sets & (sets - 1)) != 0)
        fatal("cache '%s': %u sets is not a power of two (%llu B / %u "
              "B lines / %u ways); set indexing masks low bits, so a "
              "non-power-of-two count would silently alias sets",
              name.c_str(), sets,
              static_cast<unsigned long long>(sizeBytes), lineBytes,
              assoc);
}

Cache::Cache(const CacheConfig &config) : cfg_(config)
{
    cfg_.validate();
    sets_ = cfg_.numSets();
    assoc_ = cfg_.assoc;
    lruTracked_ = cfg_.replacement == Replacement::Lru;
    lineShift_ = static_cast<u32>(std::countr_zero(cfg_.lineBytes));
    const size_t entries = static_cast<size_t>(sets_) * assoc_;
    tagsLo_.resize(entries, static_cast<u32>(kNoTag));
    tagsHi_.resize(entries, static_cast<u16>(kNoTag >> 32));
    // Random caches never read LRU stamps (pickVictim consults the
    // RNG), so they skip the allocation entirely: dead writes would
    // evict real state from the host's caches.
    if (lruTracked_)
        lru_.resize(entries, 0);
    gen_.resize(sets_, 0);
}

void
Cache::reset()
{
    // Epoch-versioned invalidation: bumping epoch_ changes the salt
    // tagOf() folds into every probe key and installed tag, so all
    // tags written in earlier epochs stop matching (see kEpochShift).
    // Epochs cycle 0..62; the wrap — once every 63 resets — pays for
    // a real clear, without which a set last touched 63 epochs ago
    // would alias the new epoch and resurrect its contents.
    ++epoch_;
    if (epoch_ == Cache::kEpochPeriod) {
        epoch_ = 0;
        std::fill(tagsLo_.begin(), tagsLo_.end(),
                  static_cast<u32>(kNoTag));
        std::fill(tagsHi_.begin(), tagsHi_.end(),
                  static_cast<u16>(kNoTag >> 32));
        std::fill(lru_.begin(), lru_.end(), u32{0});
        std::fill(gen_.begin(), gen_.end(), u8{0});
    }
    // The stamp clock restarts every reset, exactly as the eager-clear
    // scheme did, so wrap of the u32 clock would need 2^32 touches in
    // ONE replay (unreachable) rather than across a reused Machine's
    // whole lifetime (reachable in long optimizer sweeps). Restarting under a
    // lazy reset is safe: stale sets carry the old epoch salt so they
    // can't hit, and both LRU read paths (pickVictim, touchLru-on-hit)
    // run only after materializeSet() has re-zeroed the set's stamps.
    lruClock_ = 0;
    stats_ = CacheStats();
    victimRng_ = Rng(0x5eed); // deterministic runs
}

} // namespace interf::cache
