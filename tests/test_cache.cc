/** @file Tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cache/cache.hh"

namespace
{

using namespace interf;
using namespace interf::cache;

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 1024; // 16 lines
    cfg.assoc = 2;        // 8 sets
    cfg.lineBytes = 64;
    return cfg;
}

TEST(CacheConfig, GeometryDerivation)
{
    auto cfg = smallConfig();
    EXPECT_EQ(cfg.numSets(), 8u);
    cfg.validate();
    CacheConfig l1{"L1", 32 << 10, 8, 64};
    EXPECT_EQ(l1.numSets(), 64u);
}

TEST(CacheConfigDeathTest, BadGeometryIsFatal)
{
    CacheConfig bad{"bad", 1000, 2, 64};
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1), "");
    CacheConfig bad2{"bad2", 1024, 2, 60};
    EXPECT_EXIT(bad2.validate(), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(CacheConfigDeathTest, NonPowerOfTwoSetsNamesTheAliasing)
{
    // The typed diagnostic must say *why* the geometry is rejected:
    // set indexing masks low bits, so a non-power-of-two set count
    // would silently alias sets.
    CacheConfig bad{"odd-sets", 3 * 64 * 2, 2, 64}; // 3 sets
    EXPECT_EQ(bad.numSets(), 3u);
    EXPECT_EXIT(bad.validate(), ::testing::ExitedWithCode(1),
                "silently alias sets");
}

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallConfig());
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1030)); // same 64B line
    EXPECT_EQ(cache.stats().accesses, 3u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, SetIndexUsesLineBits)
{
    Cache cache(smallConfig());
    EXPECT_EQ(cache.setIndex(0x0), 0u);
    EXPECT_EQ(cache.setIndex(0x40), 1u);
    EXPECT_EQ(cache.setIndex(0x40 * 8), 0u); // wraps at 8 sets
}

TEST(Cache, ConflictMissesBeyondAssociativity)
{
    // 3 lines in a 2-way set: cycling them LRU-misses every time.
    Cache cache(smallConfig());
    Addr stride = 64 * 8; // same set
    for (int round = 0; round < 5; ++round)
        for (int i = 0; i < 3; ++i)
            cache.access(0x10000 + i * stride);
    EXPECT_EQ(cache.stats().misses, 15u); // every access misses
}

TEST(Cache, TwoLinesInTwoWaySetCoexist)
{
    Cache cache(smallConfig());
    Addr stride = 64 * 8;
    cache.access(0x10000);
    cache.access(0x10000 + stride);
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(cache.access(0x10000));
        EXPECT_TRUE(cache.access(0x10000 + stride));
    }
}

TEST(Cache, LruReplacement)
{
    Cache cache(smallConfig());
    Addr stride = 64 * 8;
    Addr a = 0x10000, b = a + stride, c = b + stride;
    cache.access(a);
    cache.access(b);
    cache.access(a); // refresh a
    cache.access(c); // evicts b
    EXPECT_TRUE(cache.contains(a));
    EXPECT_FALSE(cache.contains(b));
    EXPECT_TRUE(cache.contains(c));
}

TEST(Cache, ContainsDoesNotTouchStateOrStats)
{
    Cache cache(smallConfig());
    cache.access(0x2000);
    auto before = cache.stats().accesses;
    EXPECT_TRUE(cache.contains(0x2000));
    EXPECT_FALSE(cache.contains(0x9999000));
    EXPECT_EQ(cache.stats().accesses, before);
}

TEST(Cache, InstallSkipsStats)
{
    Cache cache(smallConfig());
    cache.install(0x3000);
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
    EXPECT_TRUE(cache.contains(0x3000));
    EXPECT_TRUE(cache.access(0x3000)); // prefetched line hits
}

TEST(Cache, CapacityMissesOnBigWorkingSet)
{
    Cache cache(smallConfig()); // 1 KB
    // Walk 4 KB repeatedly: everything misses after the first lap too.
    for (int lap = 0; lap < 3; ++lap)
        for (Addr a = 0; a < 4096; a += 64)
            cache.access(0x40000 + a);
    EXPECT_GT(cache.stats().missRate(), 0.9);
}

TEST(Cache, WorkingSetWithinCapacityHitsAfterWarmup)
{
    Cache cache(smallConfig());
    for (int lap = 0; lap < 4; ++lap)
        for (Addr a = 0; a < 1024; a += 64)
            cache.access(0x50000 + a);
    // 16 cold misses, everything else hits.
    EXPECT_EQ(cache.stats().misses, 16u);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache cache(smallConfig());
    cache.access(0x1000);
    cache.reset();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST(Cache, ClearStatsKeepsContents)
{
    Cache cache(smallConfig());
    cache.access(0x1000);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_TRUE(cache.access(0x1000)); // still warm
}

TEST(Cache, StatsHelpers)
{
    CacheStats s;
    s.accesses = 10;
    s.misses = 3;
    EXPECT_EQ(s.hits(), 7u);
    EXPECT_DOUBLE_EQ(s.missRate(), 0.3);
    CacheStats zero;
    EXPECT_DOUBLE_EQ(zero.missRate(), 0.0);
}

/** 8-set geometry at the given associativity: odd widths and 48 ways
 *  exercise the scalar tag-scan fallback (the packed scan needs
 *  assoc % 8 == 0 and at most 32 ways), 8/16/24/32 the SSE2 path. */
CacheConfig
assocConfig(u32 assoc)
{
    return CacheConfig{"assoc", static_cast<u64>(64) * assoc * 8, assoc,
                       64};
}

/** Naive true-LRU reference: per set, resident lines ordered least to
 *  most recent. Invalid ways fill first, then the oldest line goes. */
class TrueLruModel
{
  public:
    TrueLruModel(u32 sets, u32 assoc) : assoc_(assoc), rows_(sets) {}

    bool access(Addr addr)
    {
        const Addr line = addr / 64;
        auto &row = rows_[line % rows_.size()];
        auto it = std::find(row.begin(), row.end(), line);
        const bool hit = it != row.end();
        if (hit)
            row.erase(it);
        else if (row.size() == assoc_)
            row.erase(row.begin());
        row.push_back(line);
        return hit;
    }

    void reset()
    {
        for (auto &row : rows_)
            row.clear();
    }

  private:
    size_t assoc_;
    std::vector<std::vector<Addr>> rows_;
};

/** Drive @p cache and @p model with @p n pseudo-random accesses over
 *  assoc + 3 lines in each of two sets, expecting identical hit/miss
 *  outcomes. */
void
expectMatchesModel(Cache &cache, TrueLruModel &model, u64 &x, int n,
                   const std::string &what)
{
    const u32 assoc = cache.config().assoc;
    const Addr set_stride = static_cast<Addr>(cache.config().numSets()) * 64;
    for (int i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const u64 slot = (x >> 33) % (assoc + 3);
        const Addr a = 0x400000 + slot * set_stride + ((x >> 20) & 1) * 64;
        ASSERT_EQ(cache.access(a), model.access(a))
            << what << ": diverged at access " << i;
    }
}

TEST(Cache, MatchesTrueLruModelAcrossAssociativities)
{
    // The stamp LRU against a naive recency-list model, at every width
    // the scan handles differently — including 48 ways, past the packed
    // scan's 32-way mask — and at the modeled L2 geometry (6 MiB,
    // 24-way).
    u64 x = 0x9e3779b97f4a7c15ull;
    for (u32 assoc : {2u, 3u, 4u, 6u, 8u, 16u, 24u, 32u, 48u}) {
        Cache cache(assocConfig(assoc));
        TrueLruModel model(8, assoc);
        expectMatchesModel(cache, model, x, 2000,
                           "assoc " + std::to_string(assoc));
        EXPECT_GT(cache.stats().misses, 0u);
        EXPECT_LT(cache.stats().misses, cache.stats().accesses);
    }

    // A few hundred resets at L2 size: every reset restarts the stamp
    // clock (and every 63rd clears the arrays), and victim choice must
    // stay true LRU across all of them.
    const CacheConfig l2{"L2", 6 << 20, 24, 64};
    Cache cache(l2);
    TrueLruModel model(l2.numSets(), l2.assoc);
    for (int r = 0; r < 300; ++r) {
        expectMatchesModel(cache, model, x, 100,
                           "L2 after reset " + std::to_string(r));
        cache.reset();
        model.reset();
        ASSERT_EQ(cache.lruClockForTest(), 0u);
    }
}

TEST(Cache, RepeatedResetNeverResurrectsLines)
{
    // Property any lazy reset scheme must keep, driven through three
    // full 63-reset epoch cycles: a line installed before a reset
    // never reads as present after it. The dangerous instant is the
    // wrap — a set untouched for exactly kEpochPeriod resets would
    // alias the recycled epoch salt and resurrect its tags, which the
    // wrap's full clear prevents.
    Cache cache(smallConfig());
    for (int r = 0; r < 200; ++r) {
        const Addr a = 0x10000 + static_cast<Addr>(r) * 64;
        EXPECT_FALSE(cache.contains(a));
        cache.access(a);
        EXPECT_TRUE(cache.contains(a));
        cache.reset();
        for (int p = 0; p <= r; ++p)
            EXPECT_FALSE(cache.contains(0x10000 +
                                        static_cast<Addr>(p) * 64))
                << "line from reset " << p << " resurfaced at reset "
                << r;
    }
}

TEST(Cache, ResetRestartsStampClock)
{
    // The u32 stamp clock has no wrap handling — touchLru stores
    // ++lruClock_ raw — so its wrap bound must be per replay, not per
    // Machine lifetime: reset() restarts it at 0 exactly as the
    // pre-epoch eager clear did. Without the restart, ~2^32 cumulative
    // touches (reachable across a long optimizer sweep's thousands of
    // replays on one Machine) wrap stamps to small values and
    // silently invert LRU victim choice against the fresh-per-run
    // reference model. Restarting is safe under the lazy reset: stale
    // sets can't hit (epoch-salted tags), and every LRU read or write
    // happens only after materializeSet() re-zeroes the set's stamps.
    Cache cache(smallConfig());
    for (Addr a = 0; a < 1024; a += 64)
        cache.access(0x60000 + a);
    EXPECT_GT(cache.lruClockForTest(), 0u);
    cache.reset();
    EXPECT_EQ(cache.lruClockForTest(), 0u);
    // Same invariant across the epoch wrap's eager-clear path.
    for (int r = 0; r < 100; ++r) {
        cache.access(0x60000);
        cache.reset();
        EXPECT_EQ(cache.lruClockForTest(), 0u) << "reset " << r;
    }
}

} // anonymous namespace
