/** @file Golden tests for the compiled replay plan: Machine::replay
 *  must be bit-identical to the event-at-a-time reference model on
 *  every counter, for every layout — this is the contract that lets
 *  campaigns run the dense kernel at all. */

#include <set>

#include <gtest/gtest.h>

#include "core/timing.hh"
#include "interferometry/campaign.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "pinsim/pinsim.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "workloads/builder.hh"
#include "workloads/spec.hh"

namespace
{

using namespace interf;
using namespace interf::core;
using namespace interf::trace;

struct Workload
{
    Program prog;
    Trace trace;
    ReplayPlan plan;

    explicit Workload(const workloads::WorkloadProfile &profile,
                      u64 insts = 80000)
        : prog(workloads::buildProgram(profile)),
          trace(trace::TraceGenerator(prog, profile.behaviourSeed)
                    .makeTrace(insts)),
          plan(prog, trace)
    {
    }
};

/** The >= 3 profiles the golden sweep covers: a synthetic default plus
 *  two paper benchmarks with distinct branch/memory mixes. */
const std::vector<Workload> &
workloads()
{
    static std::vector<Workload> all = [] {
        std::vector<Workload> w;
        w.emplace_back(workloads::defaultProfile("replay-golden"));
        w.emplace_back(workloads::specFor("445.gobmk").profile);
        w.emplace_back(workloads::specFor("454.calculix").profile);
        return w;
    }();
    return all;
}

layout::CodeLayout
codeFor(const Workload &w, u64 seed)
{
    layout::Linker linker;
    return linker.link(w.prog, layout::LayoutKey{seed, true, true});
}

void
expectSameResult(const RunResult &a, const RunResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.condBranches, b.condBranches) << what;
    EXPECT_EQ(a.mispredicts, b.mispredicts) << what;
    EXPECT_EQ(a.l1iMisses, b.l1iMisses) << what;
    EXPECT_EQ(a.l1dMisses, b.l1dMisses) << what;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << what;
    EXPECT_EQ(a.l2InstMisses, b.l2InstMisses) << what;
    EXPECT_EQ(a.l2PrefMisses, b.l2PrefMisses) << what;
    EXPECT_EQ(a.l2DataMisses, b.l2DataMisses) << what;
    EXPECT_EQ(a.btbMisses, b.btbMisses) << what;
    EXPECT_EQ(a.rasMispredicts, b.rasMispredicts) << what;
}

/** The golden sweep: >= 3 profiles x 8 layout seeds x identity and
 *  randomized page maps, randomized heap throughout. Every RunResult
 *  field must match the reference model exactly. All layouts replay on
 *  one reused Machine, as a campaign worker does, so every replay after
 *  the first starts from the per-layout epoch reset(). */
TEST(ReplayGolden, BitIdenticalToReferenceAcrossLayouts)
{
    auto cfg = MachineConfig::xeonE5440();
    Machine machine(cfg);
    for (size_t wi = 0; wi < workloads().size(); ++wi) {
        const Workload &w = workloads()[wi];
        for (u64 seed = 1; seed <= 8; ++seed) {
            auto code = codeFor(w, seed);
            layout::HeapKey hk;
            hk.seed = seed;
            hk.randomize = true;
            layout::HeapLayout heap(w.prog, hk);
            for (bool physical : {false, true}) {
                layout::PageMap pages =
                    physical ? layout::PageMap(seed * 31 + 7)
                             : layout::PageMap();
                std::string what = "workload " + std::to_string(wi) +
                                   " seed " + std::to_string(seed) +
                                   (physical ? " physical" : " identity");
                auto ref = machine.runReference(w.prog, w.trace, code,
                                                heap, pages);
                LayoutTables tables(w.plan, code, heap, pages,
                                    cfg.hierarchy.l1i.lineBytes);
                auto fast = machine.replay(w.plan, tables);
                expectSameResult(ref, fast, what);
            }
        }
    }
}

/** A campaign worker holds a batch of layouts' tables and replays them
 *  one after another on a single Machine. Each lane's result must match
 *  the reference model run on a fresh Machine, whatever the lane's
 *  position in the batch: replaying the batch forwards and backwards
 *  gives the same per-lane results. */
TEST(ReplayBatched, BitIdenticalToReferencePerLane)
{
    auto cfg = MachineConfig::xeonE5440();
    constexpr u64 kSeeds = 8;
    for (size_t wi = 0; wi < workloads().size(); ++wi) {
        const Workload &w = workloads()[wi];
        for (bool physical : {false, true}) {
            std::vector<RunResult> ref(kSeeds);
            std::vector<LayoutTables> tables;
            tables.reserve(kSeeds);
            for (u64 seed = 1; seed <= kSeeds; ++seed) {
                auto code = codeFor(w, seed);
                layout::HeapKey hk;
                hk.seed = seed;
                hk.randomize = true;
                layout::HeapLayout heap(w.prog, hk);
                layout::PageMap pages =
                    physical ? layout::PageMap(seed * 31 + 7)
                             : layout::PageMap();
                Machine machine(cfg);
                ref[seed - 1] = machine.runReference(w.prog, w.trace,
                                                     code, heap, pages);
                tables.emplace_back(w.plan, code, heap, pages,
                                    cfg.hierarchy.l1i.lineBytes);
            }
            for (bool reversed : {false, true}) {
                Machine machine(cfg);
                for (u64 i = 0; i < kSeeds; ++i) {
                    u64 lane = reversed ? kSeeds - 1 - i : i;
                    expectSameResult(
                        ref[lane], machine.replay(w.plan, tables[lane]),
                        "workload " + std::to_string(wi) +
                            (physical ? " physical" : " identity") +
                            (reversed ? " reversed" : " forward") +
                            " lane " + std::to_string(lane));
                }
            }
        }
    }
}

/** One L1D pass serves a whole campaign (DESIGN.md §5n): outcomes built
 *  from layout 0's tables, reused across 8 layouts with distinct code
 *  seeds under identity and physical page maps on one Machine, give
 *  the reference model's result on a fresh Machine every time. */
TEST(ReplayGolden, SharedL1dOutcomesMatchReferenceAcrossLayouts)
{
    auto cfg = MachineConfig::xeonE5440();
    ASSERT_TRUE(canShareL1d(cfg.hierarchy.l1d, true, false));
    const layout::HeapKey fixed = layout::HeapKey::deterministic();
    for (size_t wi = 0; wi < workloads().size(); ++wi) {
        const Workload &w = workloads()[wi];
        layout::HeapLayout heap(w.prog, fixed);
        const L1dOutcomes shared = simulateL1d(
            cfg, w.plan,
            LayoutTables(w.plan, codeFor(w, 1), heap, layout::PageMap(),
                         cfg.hierarchy.l1i.lineBytes));
        Machine machine(cfg);
        for (u64 seed = 1; seed <= 8; ++seed) {
            auto code = codeFor(w, seed);
            for (bool physical : {false, true}) {
                layout::PageMap pages =
                    physical ? layout::PageMap(seed * 31 + 7)
                             : layout::PageMap();
                Machine fresh(cfg);
                auto ref = fresh.runReference(w.prog, w.trace, code, heap,
                                              pages);
                LayoutTables tables(w.plan, code, heap, pages,
                                    cfg.hierarchy.l1i.lineBytes);
                expectSameResult(ref, machine.replay(w.plan, tables, shared),
                                 "workload " + std::to_string(wi) +
                                     " seed " + std::to_string(seed) +
                                     (physical ? " physical" : " identity"));
            }
        }
    }
}

/** The L1D pass clears its statistics where the kernel's warmup does:
 *  at the first access of the warmup event. Swept over warmup
 *  fractions so the boundary lands on events with and without memory
 *  references. */
TEST(ReplayGolden, L1dPassWarmupSplitMatchesReference)
{
    for (double frac : {0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 0.9}) {
        auto cfg = MachineConfig::xeonE5440();
        cfg.warmupFraction = frac;
        for (size_t wi = 0; wi < workloads().size(); ++wi) {
            const Workload &w = workloads()[wi];
            auto code = codeFor(w, 2);
            layout::HeapLayout heap(w.prog,
                                    layout::HeapKey::deterministic());
            Machine fresh(cfg);
            const RunResult ref = fresh.runReference(
                w.prog, w.trace, code, heap, layout::PageMap());
            LayoutTables tables(w.plan, code, heap);
            EXPECT_EQ(simulateL1d(cfg, w.plan, tables).misses,
                      ref.l1dMisses)
                << "workload " << wi << " warmup " << frac;
        }
    }
}

/** A 64 KiB 8-way L1D indexes with bit 12, past the page offset, so a
 *  page map moves lines between its sets: the predicate must refuse to
 *  share across page maps, and ignoring it must show — reused outcomes
 *  give the wrong l1dMisses on at least one workload. */
TEST(ReplayGolden, PageSpanningL1dIsNotShareableAcrossPageMaps)
{
    auto cfg = MachineConfig::xeonE5440();
    cfg.hierarchy.l1d = cache::CacheConfig{"L1D", 64 << 10, 8, 64};
    EXPECT_FALSE(canShareL1d(cfg.hierarchy.l1d, true, false));
    EXPECT_TRUE(canShareL1d(cfg.hierarchy.l1d, true, true));
    EXPECT_FALSE(canShareL1d(cfg.hierarchy.l1d, false, true));
    u32 differing = 0;
    for (const Workload &w : workloads()) {
        layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
        auto code = codeFor(w, 3);
        LayoutTables a(w.plan, code, heap, layout::PageMap(11),
                       cfg.hierarchy.l1i.lineBytes);
        LayoutTables b(w.plan, code, heap, layout::PageMap(12),
                       cfg.hierarchy.l1i.lineBytes);
        Machine machine(cfg);
        const RunResult reused =
            machine.replay(w.plan, b, simulateL1d(cfg, w.plan, a));
        const RunResult own = machine.replay(w.plan, b);
        differing += reused.l1dMisses != own.l1dMisses;
    }
    EXPECT_GT(differing, 0u)
        << "the page-offset guard is vacuous on these workloads";
}

/** Campaigns decide sharing through the same predicate: a fixed-heap,
 *  physical-page campaign shares one L1D pass under the Xeon's L1D and
 *  runs one per layout under the 64 KiB one. Either way every sample
 *  equals the reference model run on a fresh Machine (noise off, so
 *  cycles compare exactly). */
TEST(ReplayGolden, FixedHeapCampaignMatchesReferenceWithAnyL1d)
{
    for (u64 l1d_bytes : {32u << 10, 64u << 10}) {
        interferometry::CampaignConfig cc;
        cc.instructionBudget = 60000;
        cc.jobs = 1;
        cc.physicalPages = true;
        cc.randomizeHeap = false;
        cc.machine.hierarchy.l1d = cache::CacheConfig{"L1D", l1d_bytes, 8, 64};
        cc.runner.noise = NoiseConfig::none();
        interferometry::Campaign camp(workloads::specFor("445.gobmk").profile,
                                      cc);
        const auto samples = camp.measureLayouts(0, 6);
        for (u32 i = 0; i < samples.size(); ++i) {
            Machine fresh(cc.machine);
            const RunResult ref = fresh.runReference(
                camp.program(), camp.trace(), camp.codeLayoutFor(i),
                camp.heapLayoutFor(i), camp.pageMapFor(i));
            const core::Measurement &m = samples[i];
            const std::string what = std::to_string(l1d_bytes >> 10) +
                                     " KiB L1D, layout " + std::to_string(i);
            EXPECT_EQ(m.cycles, ref.cycles) << what;
            EXPECT_EQ(m.instructions, ref.instructions) << what;
            EXPECT_EQ(m.condBranches, ref.condBranches) << what;
            EXPECT_EQ(m.mispredicts, ref.mispredicts) << what;
            EXPECT_EQ(m.l1iMisses, ref.l1iMisses) << what;
            EXPECT_EQ(m.l1dMisses, ref.l1dMisses) << what;
            EXPECT_EQ(m.l2Misses, ref.l2Misses) << what;
            EXPECT_EQ(m.btbMisses, ref.btbMisses) << what;
        }
    }
}

/** Outcomes that do not cover the plan's memory stream must never be
 *  replayed. */
TEST(ReplayGoldenDeathTest, MismatchedL1dOutcomesPanic)
{
    auto cfg = MachineConfig::xeonE5440();
    const Workload &w = workloads()[0];
    layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
    LayoutTables tables(w.plan, codeFor(w, 1), heap);
    L1dOutcomes short_by_one = simulateL1d(cfg, w.plan, tables);
    short_by_one.memCount -= 1;
    Machine machine(cfg);
    EXPECT_DEATH(machine.replay(w.plan, tables, short_by_one),
                 "L1D outcomes cover");
}

/** Machine::run is a thin adapter over replay(): identical results. */
TEST(ReplayGolden, RunAdapterMatchesReplay)
{
    auto cfg = MachineConfig::xeonE5440();
    const Workload &w = workloads()[0];
    for (u64 seed : {3u, 11u}) {
        auto code = codeFor(w, seed);
        layout::HeapKey hk;
        hk.seed = seed;
        hk.randomize = true;
        layout::HeapLayout heap(w.prog, hk);
        layout::PageMap pages(seed);
        Machine machine(cfg);
        auto via_run = machine.run(w.prog, w.trace, code, heap, pages);
        LayoutTables tables(w.plan, code, heap, pages,
                            cfg.hierarchy.l1i.lineBytes);
        auto via_replay = machine.replay(w.plan, tables);
        expectSameResult(via_run, via_replay,
                         "seed " + std::to_string(seed));
    }
}

/** The golden contract holds for non-default machine geometry too
 *  (non-power-of-two width exercises the kernel's slow divide path). */
TEST(ReplayGolden, HoldsForOddMachineWidth)
{
    auto cfg = MachineConfig::xeonE5440();
    cfg.width = 3;
    const Workload &w = workloads()[0];
    auto code = codeFor(w, 5);
    layout::HeapKey hk;
    hk.seed = 5;
    hk.randomize = true;
    layout::HeapLayout heap(w.prog, hk);
    Machine machine(cfg);
    auto ref = machine.runReference(w.prog, w.trace, code, heap,
                                    layout::PageMap());
    LayoutTables tables(w.plan, code, heap, layout::PageMap(),
                        cfg.hierarchy.l1i.lineBytes);
    expectSameResult(ref, machine.replay(w.plan, tables), "width 3");
}

/** A plan built twice from the same inputs is identical (the campaign
 *  store may assume plan construction is deterministic). */
TEST(ReplayPlanProperties, ConstructionIsDeterministic)
{
    const Workload &w = workloads()[0];
    ReplayPlan again(w.prog, w.trace);
    EXPECT_EQ(w.plan.site, again.site);
    EXPECT_EQ(w.plan.flags, again.flags);
    EXPECT_EQ(w.plan.memId, again.memId);
    EXPECT_EQ(w.plan.memRank, again.memRank);
    EXPECT_EQ(w.plan.memUniverse, again.memUniverse);
    EXPECT_EQ(w.plan.condSite, again.condSite);
}

TEST(ReplayPlanProperties, EventAndMemoryCountsMatchTrace)
{
    for (const Workload &w : workloads()) {
        EXPECT_EQ(w.plan.eventCount(), w.trace.events.size());
        EXPECT_EQ(w.plan.memCount(), w.trace.memIds.size());
        EXPECT_EQ(w.plan.instCount, w.trace.instCount);
        EXPECT_EQ(w.plan.bytes.size(), w.plan.eventCount());
        EXPECT_EQ(w.plan.nInsts.size(), w.plan.eventCount());
        EXPECT_EQ(w.plan.nMem.size(), w.plan.eventCount());
        EXPECT_EQ(w.plan.flags.size(), w.plan.eventCount());
        EXPECT_EQ(w.plan.memIsStore.size(), w.plan.memCount());
        EXPECT_EQ(w.plan.memRank.size(), w.plan.memCount());
    }
}

/** memRank/memUniverse must reconstruct the memId stream exactly, and
 *  the universe must list each distinct id once, in first-appearance
 *  order (the per-layout decode relies on both). */
TEST(ReplayPlanProperties, MemUniverseReconstructsStream)
{
    for (const Workload &w : workloads()) {
        const ReplayPlan &p = w.plan;
        std::set<u64> seen;
        size_t next_first = 0;
        for (size_t i = 0; i < p.memCount(); ++i) {
            ASSERT_LT(p.memRank[i], p.memUniverse.size());
            EXPECT_EQ(p.memUniverse[p.memRank[i]], p.memId[i]);
            if (seen.insert(p.memId[i]).second) {
                // First appearance: must claim the next universe slot.
                EXPECT_EQ(p.memRank[i], next_first);
                ++next_first;
            }
        }
        EXPECT_EQ(next_first, p.memUniverse.size());
        EXPECT_EQ(seen.size(), p.memUniverse.size());
    }
}

/** Site numbering is a proc-major bijection onto (proc, block). */
TEST(ReplayPlanProperties, SiteTableIsBijective)
{
    for (const Workload &w : workloads()) {
        const ReplayPlan &p = w.plan;
        for (u32 s = 0; s < p.siteCount(); ++s) {
            EXPECT_EQ(p.siteOf(p.siteProc[s], p.siteBlock[s]), s);
            const auto &block = w.prog.block(p.siteProc[s], p.siteBlock[s]);
            EXPECT_EQ(p.siteBytes[s], block.bytes);
        }
    }
}

/** The conditional substream matches the per-event kCond flags. */
TEST(ReplayPlanProperties, CondSubstreamMatchesFlags)
{
    for (const Workload &w : workloads()) {
        const ReplayPlan &p = w.plan;
        size_t cond = 0;
        for (size_t i = 0; i < p.eventCount(); ++i) {
            if (!(p.flags[i] & ReplayPlan::kCond))
                continue;
            ASSERT_LT(cond, p.condSite.size());
            EXPECT_EQ(p.condSite[cond], p.site[i]);
            EXPECT_EQ(p.condTaken[cond] != 0,
                      (p.flags[i] & ReplayPlan::kTaken) != 0);
            ++cond;
        }
        EXPECT_EQ(cond, p.condSite.size());
        EXPECT_EQ(p.condSite.size(), p.condTaken.size());
    }
}

/** LayoutTables must agree with the CodeLayout it was built from. */
TEST(ReplayPlanProperties, LayoutTablesMatchCodeLayout)
{
    const Workload &w = workloads()[1];
    auto code = codeFor(w, 17);
    LayoutTables tables(w.plan, code);
    ASSERT_EQ(tables.siteAddr.size(), w.plan.siteCount());
    ASSERT_EQ(tables.branchAddr.size(), w.plan.siteCount());
    EXPECT_FALSE(tables.hasData());
    for (u32 s = 0; s < w.plan.siteCount(); ++s) {
        EXPECT_EQ(tables.siteAddr[s],
                  code.blockAddr(w.plan.siteProc[s], w.plan.siteBlock[s]));
        EXPECT_EQ(tables.branchAddr[s],
                  code.branchAddr(w.plan.siteProc[s], w.plan.siteBlock[s]));
    }
}

/** PinSim's plan replay must match its Program-walking run() exactly,
 *  predictor by predictor. */
TEST(ReplayGolden, PinSimReplayMatchesRun)
{
    const std::vector<std::string> specs = {"bimodal:1024", "gshare:4096:10",
                                            "hybrid:2048:8:512:512"};
    const Workload &w = workloads()[0];
    for (u64 seed : {2u, 9u}) {
        auto code = codeFor(w, seed);
        pinsim::PinSim a(specs);
        auto slow = a.run(w.prog, w.trace, code);
        pinsim::PinSim b(specs);
        LayoutTables tables(w.plan, code);
        auto fast = b.replay(w.plan, tables);
        ASSERT_EQ(slow.size(), fast.size());
        for (size_t i = 0; i < slow.size(); ++i) {
            EXPECT_EQ(slow[i].name, fast[i].name);
            EXPECT_EQ(slow[i].branches, fast[i].branches);
            EXPECT_EQ(slow[i].mispredicts, fast[i].mispredicts);
            EXPECT_EQ(slow[i].instructions, fast[i].instructions);
        }
    }
}

} // anonymous namespace
