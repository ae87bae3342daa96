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

std::string
CacheConfig::geometryError() const
{
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        return strprintf("line size %u is not a power of two", lineBytes);
    if (assoc == 0)
        return "associativity must be >= 1";
    const u64 way_bytes = static_cast<u64>(lineBytes) * assoc;
    if (sizeBytes % way_bytes != 0)
        return strprintf("size %llu not divisible by way size %llu",
                         static_cast<unsigned long long>(sizeBytes),
                         static_cast<unsigned long long>(way_bytes));
    // Counted in u64: numSets() narrows to u32, which would turn 2^32
    // sets into 0 and 2^32 + 16 into a valid-looking 16.
    const u64 sets = sizeBytes / way_bytes;
    if (sets == 0 || (sets & (sets - 1)) != 0 || sets > ~u32{0})
        return strprintf("%llu sets is not a power of two below 2^32 "
                         "(%llu B / %u B lines / %u ways); set indexing "
                         "masks low bits, so a non-power-of-two count "
                         "would silently alias sets",
                         static_cast<unsigned long long>(sets),
                         static_cast<unsigned long long>(sizeBytes),
                         lineBytes, assoc);
    return {};
}

void
CacheConfig::validate() const
{
    const std::string error = geometryError();
    if (!error.empty())
        fatal("cache '%s': %s", name.c_str(), error.c_str());
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
