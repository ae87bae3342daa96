/** @file Tests for the L1I/L1D/L2 hierarchy. */

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"

namespace
{

using namespace interf;
using namespace interf::cache;

HierarchyConfig
smallHierarchy(bool prefetch = false)
{
    HierarchyConfig cfg;
    cfg.l1i = {"L1I", 4 << 10, 2, 64};
    cfg.l1d = {"L1D", 4 << 10, 2, 64};
    cfg.l2 = {"L2", 64 << 10, 4, 64};
    cfg.nextLinePrefetch = prefetch;
    return cfg;
}

TEST(Hierarchy, DataMissFillsAllLevels)
{
    MemoryHierarchy hier(smallHierarchy());
    EXPECT_EQ(hier.accessData(0x10000), HitLevel::Memory);
    EXPECT_EQ(hier.accessData(0x10000), HitLevel::L1);
}

TEST(Hierarchy, BelowL1EntryNeverTouchesL1d)
{
    // A replay's data entry: the L1D outcome comes from a
    // separate pass, so this path must leave the L1D cold.
    MemoryHierarchy hier(smallHierarchy());
    EXPECT_EQ(hier.accessDataBelowL1(0x10000), HitLevel::Memory);
    EXPECT_EQ(hier.accessDataBelowL1(0x10000), HitLevel::L2);
    auto s = hier.stats();
    EXPECT_EQ(s.l1d.accesses, 0u);
    EXPECT_EQ(s.l2DataMisses, 1u);
    // A whole-hierarchy access still finds the line only in the L2.
    EXPECT_EQ(hier.accessData(0x10000), HitLevel::L2);
    EXPECT_EQ(hier.stats().l1d.misses, 1u);
}

TEST(Hierarchy, L2HoldsL1Victims)
{
    MemoryHierarchy hier(smallHierarchy());
    // Fill far beyond L1D (4 KB) but within L2 (64 KB).
    for (Addr a = 0; a < (32 << 10); a += 64)
        hier.accessData(0x100000 + a);
    // Second lap: L1-evicted lines hit in L2.
    int l2_hits = 0;
    for (Addr a = 0; a < (32 << 10); a += 64)
        l2_hits += hier.accessData(0x100000 + a) == HitLevel::L2;
    EXPECT_GT(l2_hits, 400);
    auto s = hier.stats();
    EXPECT_EQ(s.l2DataMisses, 512u); // only the cold pass missed L2
}

TEST(Hierarchy, InstAndDataTracksSeparate)
{
    MemoryHierarchy hier(smallHierarchy());
    hier.fetchInst(0x400000);
    hier.accessData(0x800000);
    auto s = hier.stats();
    EXPECT_EQ(s.l1i.accesses, 1u);
    EXPECT_EQ(s.l1d.accesses, 1u);
    EXPECT_EQ(s.l2InstMisses, 1u);
    EXPECT_EQ(s.l2DataMisses, 1u);
}

TEST(Hierarchy, PrefetchHidesSequentialMisses)
{
    MemoryHierarchy with(smallHierarchy(true));
    MemoryHierarchy without(smallHierarchy(false));
    // Sequential fetch through 2 KB of fresh code.
    for (Addr a = 0; a < 2048; a += 64) {
        with.fetchInst(0x400000 + a);
        without.fetchInst(0x400000 + a);
    }
    EXPECT_LT(with.stats().l1i.misses, without.stats().l1i.misses);
    // The prefetcher covers all but the first line.
    EXPECT_LE(with.stats().l1i.misses, 1u);
}

TEST(Hierarchy, PrefetchMissesAttributedSeparately)
{
    MemoryHierarchy hier(smallHierarchy(true));
    for (Addr a = 0; a < 2048; a += 64)
        hier.fetchInst(0x400000 + a);
    auto s = hier.stats();
    EXPECT_GT(s.l2PrefMisses, 0u);
}

TEST(Hierarchy, JumpTargetsStillMissWithPrefetch)
{
    MemoryHierarchy hier(smallHierarchy(true));
    // Jumpy fetch: distinct far-apart lines; next-line prefetch cannot
    // help.
    for (int i = 0; i < 16; ++i)
        hier.fetchInst(0x400000 + i * 8192);
    EXPECT_EQ(hier.stats().l1i.misses, 16u);
}

TEST(Hierarchy, StreamingEvictsL2)
{
    MemoryHierarchy hier(smallHierarchy());
    hier.accessData(0x10000); // resident line
    // Stream 4x the L2 through it.
    for (Addr a = 0; a < (256 << 10); a += 64)
        hier.accessData(0x1000000 + a);
    EXPECT_EQ(hier.accessData(0x10000), HitLevel::Memory);
}

TEST(Hierarchy, ResetForgetsEverything)
{
    MemoryHierarchy hier(smallHierarchy());
    hier.accessData(0x10000);
    hier.fetchInst(0x400000);
    hier.reset();
    EXPECT_EQ(hier.accessData(0x10000), HitLevel::Memory);
    auto s = hier.stats();
    EXPECT_EQ(s.l1d.accesses, 1u);
    EXPECT_EQ(s.l1i.accesses, 0u);
}

TEST(Hierarchy, ClearStatsKeepsContents)
{
    MemoryHierarchy hier(smallHierarchy());
    hier.accessData(0x10000);
    hier.clearStats();
    EXPECT_EQ(hier.stats().l1d.accesses, 0u);
    EXPECT_EQ(hier.stats().l2DataMisses, 0u);
    EXPECT_EQ(hier.accessData(0x10000), HitLevel::L1); // still warm
}

TEST(Hierarchy, XeonDefaultsValidate)
{
    HierarchyConfig cfg; // defaults = Xeon-like
    MemoryHierarchy hier(cfg);
    EXPECT_EQ(cfg.l1i.sizeBytes, 32u << 10);
    EXPECT_EQ(cfg.l2.sizeBytes, 6u << 20);
    EXPECT_EQ(hier.accessData(0x1234), HitLevel::Memory);
}

} // anonymous namespace
