/** @file Golden tests for the compiled replay plan: Machine::replay
 *  must be bit-identical to the event-at-a-time reference model on
 *  every counter, for every layout — this is the contract that lets
 *  campaigns replay through shared outcomes and the cycle sum at all. */

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "bpred/ras.hh"
#include "core/timing.hh"
#include "interferometry/campaign.hh"
#include "layout/heap.hh"
#include "layout/linker.hh"
#include "layout/pagemap.hh"
#include "pinsim/pinsim.hh"
#include "telemetry/metrics.hh"
#include "telemetry/telemetry.hh"
#include "trace/generator.hh"
#include "trace/replay.hh"
#include "util/random.hh"
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
        const LayoutTables first(w.plan, codeFor(w, 1), heap,
                                 layout::PageMap(),
                                 cfg.hierarchy.l1i.lineBytes);
        const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
        const StreamOutcomes stream = simulateStream(
            cfg, w.plan, heap, first.pages(), plan_part);
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
                expectSameResult(ref,
                                 machine.replay(w.plan, tables, plan_part,
                                                stream),
                                 "workload " + std::to_string(wi) +
                                     " seed " + std::to_string(seed) +
                                     (physical ? " physical" : " identity"));
            }
        }
    }
}

/** The L1D pass clears its statistics where the replay's warmup does:
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
            LayoutTables tables(w.plan, code, heap, layout::PageMap(),
                                cfg.hierarchy.l1i.lineBytes);
            StreamScratch own;
            EXPECT_EQ(simulateStream(cfg, w.plan, tables, own).misses,
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
        const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
        const StreamOutcomes from_a =
            simulateStream(cfg, w.plan, heap, a.pages(), plan_part);
        const RunResult reused =
            machine.replay(w.plan, b, plan_part, from_a);
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

/** Telemetry counters accumulated while @p body runs with telemetry
 *  on, by name; a counter never touched reads 0. */
std::function<u64(const std::string &)>
countersDuring(const std::function<void()> &body)
{
    telemetry::resetForTest();
    telemetry::enable();
    body();
    std::map<std::string, u64> values;
    for (const auto &c : telemetry::Registry::global().snapshot().counters)
        values[c.name] = c.value;
    telemetry::disable();
    telemetry::resetForTest();
    return [values](const std::string &name) {
        auto it = values.find(name);
        return it == values.end() ? u64{0} : it->second;
    };
}

/** How a replay takes its L1I fetch outcome, by the replay.* counter it
 *  counts: from first touches alone (replay.l1i_shared), from first
 *  touches with the overflowing sets simulated (replay.l1i_per_set), or
 *  in line, in the event loop of the layout's own sum with the L2
 *  simulated (replay.l2_simulated). */
enum class Fetch { FirstTouch, PerSet, OwnSumInLine };

/** A machine variant of the shared-path sweep and the paths its proofs
 *  must choose on every layout. */
struct PathCase
{
    std::string name;
    MachineConfig cfg;
    bool l2Shared;
    bool btbShared;
    Fetch fetch;
    /** Each layout's heap is its own, so it replays through its own
     *  stream (Machine::replayOwnStream; DESIGN.md §5x). */
    bool randomHeap = false;
};

std::vector<PathCase>
pathCases()
{
    const MachineConfig xeon = MachineConfig::xeonE5440();
    std::vector<PathCase> cases;
    using enum Fetch;
    cases.push_back({"default", xeon, true, true, FirstTouch});
    // An overflowing L2 builds the layout's own sum, fetching in line.
    PathCase small_l2{"64 KiB L2", xeon, false, true, OwnSumInLine};
    small_l2.cfg.hierarchy.l2 = cache::CacheConfig{
        "L2", 64 << 10, 16, 64, cache::Replacement::Random};
    cases.push_back(small_l2);
    PathCase small_btb{"64-set BTB", xeon, true, false, FirstTouch};
    small_btb.cfg.btbSets = 64;
    cases.push_back(small_btb);
    PathCase small_ras{"2-entry RAS", xeon, true, true, FirstTouch};
    small_ras.cfg.rasDepth = 2;
    cases.push_back(small_ras);
    // Line geometry: 128-byte L2 lines (32 per page) and 32-byte L1I
    // lines pass the L2 proof, but the per-set fetch reads a fetch miss
    // as one L2 line's, so the shared L2 path needs equal L1I and L2
    // lines: both build their own sum. 32-byte L2 lines under 64-byte
    // L1D lines fail the proof, because a first L2 touch need not miss
    // the L1D.
    PathCase wide_l2{"128 B L2 lines", xeon, false, true, OwnSumInLine};
    wide_l2.cfg.hierarchy.l2.lineBytes = 128;
    cases.push_back(wide_l2);
    PathCase narrow_l1i{"32 B L1I lines", xeon, false, true, OwnSumInLine};
    narrow_l1i.cfg.hierarchy.l1i.lineBytes = 32;
    cases.push_back(narrow_l1i);
    PathCase narrow_l2{"32 B L2 lines", xeon, false, true, OwnSumInLine};
    narrow_l2.cfg.hierarchy.l2.lineBytes = 32;
    cases.push_back(narrow_l2);
    // An L2 line wider than a page would straddle page-map moves, so the
    // data stream has no L2 part and the L2 proof cannot run.
    PathCase page_wide_l2{"8 KiB L2 lines", xeon, false, true,
                          OwnSumInLine};
    page_wide_l2.cfg.hierarchy.l2.lineBytes = 8 << 10;
    cases.push_back(page_wide_l2);
    // L1I geometry: a 4 KiB 2-way L1I overflows some of its sets, which
    // are simulated per set (DESIGN.md §5w), with LRU or random
    // replacement: a Random L1I draws from its RNG only on an eviction,
    // so only in those sets. Without the prefetcher, and with random
    // replacement where the lines fit, the first-touch outcome holds
    // alone.
    PathCase tiny_l1i{"4 KiB 2-way L1I", xeon, true, true, PerSet};
    tiny_l1i.cfg.hierarchy.l1i = cache::CacheConfig{"L1I", 4 << 10, 2, 64};
    cases.push_back(tiny_l1i);
    PathCase no_prefetch{"no next-line prefetch", xeon, true, true,
                         FirstTouch};
    no_prefetch.cfg.hierarchy.nextLinePrefetch = false;
    cases.push_back(no_prefetch);
    PathCase random_l1i{"random L1I", xeon, true, true, FirstTouch};
    random_l1i.cfg.hierarchy.l1i.replacement = cache::Replacement::Random;
    cases.push_back(random_l1i);
    PathCase random_tiny_l1i{"random 4 KiB 2-way L1I", xeon, true, true,
                             PerSet};
    random_tiny_l1i.cfg.hierarchy.l1i = tiny_l1i.cfg.hierarchy.l1i;
    random_tiny_l1i.cfg.hierarchy.l1i.replacement =
        cache::Replacement::Random;
    cases.push_back(random_tiny_l1i);
    // Both per-layout passes beside the shared sum, and the BTB pass
    // beside a sum of its own that simulates the L2 and fetches in line.
    PathCase btb_and_l1i{"64-set BTB + 4 KiB 2-way L1I", xeon, true, false,
                         PerSet};
    btb_and_l1i.cfg.btbSets = small_btb.cfg.btbSets;
    btb_and_l1i.cfg.hierarchy.l1i = tiny_l1i.cfg.hierarchy.l1i;
    cases.push_back(btb_and_l1i);
    // The fetch dedup's reset after a redirect is visible only where a
    // line's next-line prefetch can land in its own set: there the
    // re-fetch decides which of the two is most recent. So a one-set
    // L1I, where the per-set form simulates the one set and the
    // hierarchy's prefetch memo is disarmed, and the same L1I beside the
    // sum that simulates the L2 and fetches in line.
    PathCase one_set{"fully associative L1I", xeon, true, true, PerSet};
    one_set.cfg.hierarchy.l1i = cache::CacheConfig{"L1I", 1 << 10, 16, 64};
    cases.push_back(one_set);
    PathCase one_set_l2{"fully associative L1I + 64 KiB L2", xeon, false,
                        true, OwnSumInLine};
    one_set_l2.cfg.hierarchy.l1i = one_set.cfg.hierarchy.l1i;
    one_set_l2.cfg.hierarchy.l2 = small_l2.cfg.hierarchy.l2;
    cases.push_back(one_set_l2);
    PathCase all_refuse{"every proof refuses", xeon, false, false,
                        OwnSumInLine};
    all_refuse.cfg = btb_and_l1i.cfg;
    all_refuse.cfg.hierarchy.l2 = small_l2.cfg.hierarchy.l2;
    cases.push_back(all_refuse);
    // A randomized heap's layout proves its own stream: on both sides of
    // the L2 proof, beside the BTB pass and beside the per-set fetch.
    for (PathCase random : {cases.front(), small_l2, small_btb, tiny_l1i}) {
        random.name += ", randomized heap";
        random.randomHeap = true;
        cases.push_back(random);
    }
    return cases;
}

/** The shared-path golden sweep (DESIGN.md §5p, §5r, §5s, §5w):
 *  outcomes built once per workload from the fixed heap's data stream
 *  under the identity map, then every layout replays with the paths its
 *  proofs allow, as a LayoutEvaluator does: from tables without data
 *  addresses when the L2 data side is shared, with them otherwise, and
 *  with the L1I's per-set outcome where the L2 data side is shared (the
 *  L2 proof holds and the L1I and L2 lines are equal). The default
 *  machine shares the L2 data side,
 *  the BTB, the RAS and the L1I; a 64 KiB L2 and a 64-set BTB overflow
 *  sets and fall back to simulation (the BTB pass, or a cycle sum of
 *  the layout's own that simulates the L2), alone and together; a 4 KiB
 *  L1I, LRU or Random, overflows some of its sets and a one-set L1I its
 *  one set, which the per-set form simulates; a 2-entry RAS overflows
 *  on deep call chains. Every result equals the reference model on a
 *  fresh Machine, and the replay.* counters record the path each
 *  replay took: the shared cycle sum
 *  wherever the L2 data side is shared (DESIGN.md §5t), the 64-set BTB
 *  rows with this layout's BTB bits, the layout's own sum where the L2
 *  is simulated (§5u), and the fetch form the row names. The
 *  randomized-heap rows give each layout a heap of its own and replay
 *  it as the evaluator does, through its own stream, where its own L2
 *  proof holds (the default machine, beside a 64-set BTB or a 4 KiB
 *  L1I) or refuses (a 64 KiB L2) (§5x). Every layout is also replayed
 *  through the two-argument Machine::replay, which builds a plan part
 *  and its own stream and takes the paths its own proofs allow: the
 *  row's paths, counted beside the evaluator-style replay's. */
TEST(ReplayGolden, SharedPathsMatchReferenceOnBothSidesOfEveryProof)
{
    const layout::HeapKey fixed = layout::HeapKey::deterministic();
    for (const PathCase &pc : pathCases()) {
        const MachineConfig &cfg = pc.cfg;
        u64 replays = 0;
        Count ras_mispredicts = 0;
        u32 partial_overflows = 0; // Layouts with some sets overflowing.
        const auto count = countersDuring([&] {
            for (size_t wi = 0; wi < workloads().size(); ++wi) {
                const Workload &w = workloads()[wi];
                layout::HeapLayout heap(w.prog, fixed);
                const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
                const StreamOutcomes stream = simulateStream(
                    cfg, w.plan, heap, layout::PageMap(), plan_part);
                Machine machine(cfg);
                for (u64 seed = 1; seed <= 3; ++seed) {
                    auto code = codeFor(w, seed);
                    for (bool physical : {false, true}) {
                        layout::PageMap pages =
                            physical ? layout::PageMap(seed * 31 + 7)
                                     : layout::PageMap();
                        const std::string what =
                            pc.name + ", workload " + std::to_string(wi) +
                            " seed " + std::to_string(seed) +
                            (physical ? " physical" : " identity");
                        if (pc.randomHeap) {
                            const layout::HeapLayout own_heap(
                                w.prog, layout::HeapKey{seed, true});
                            const LayoutTables tables(
                                w.plan, code, own_heap, pages,
                                cfg.hierarchy.l1i.lineBytes);
                            StreamScratch own;
                            simulateStream(cfg, w.plan, tables, own);
                            const SharedPaths paths = choosePaths(
                                cfg, w.plan, tables, plan_part, own.stream);
                            EXPECT_EQ(paths.l2Data, pc.l2Shared) << what;
                            EXPECT_EQ(paths.btb, pc.btbShared) << what;
                            ConflictFacts l1i;
                            canShareL1i(cfg, w.plan, tables, plan_part, &l1i);
                            partial_overflows +=
                                l1i.overflowingSets > 0 &&
                                l1i.overflowingSets <
                                    cfg.hierarchy.l1i.numSets();
                            Machine fresh(cfg);
                            const RunResult ref = fresh.runReference(
                                w.prog, w.trace, code, own_heap, pages);
                            expectSameResult(
                                ref,
                                machine.replayOwnStream(w.plan, tables,
                                                        plan_part),
                                what);
                            expectSameResult(ref,
                                             machine.replay(w.plan, tables),
                                             what + ", two-argument");
                            ras_mispredicts += ref.rasMispredicts;
                            replays += 2;
                            continue;
                        }
                        const LayoutTables tables(
                            w.plan, code, pages, cfg.hierarchy.l1i.lineBytes);
                        const SharedPaths paths = choosePaths(
                            cfg, w.plan, tables, plan_part, stream);
                        EXPECT_EQ(paths.l2Data, pc.l2Shared) << what;
                        EXPECT_EQ(paths.btb, pc.btbShared) << what;
                        ConflictFacts l1i;
                        canShareL1i(cfg, w.plan, tables, plan_part, &l1i);
                        partial_overflows +=
                            l1i.overflowingSets > 0 &&
                            l1i.overflowingSets < cfg.hierarchy.l1i.numSets();
                        const LayoutTables with_data(
                            w.plan, code, heap, pages,
                            cfg.hierarchy.l1i.lineBytes);
                        Machine fresh(cfg);
                        const RunResult ref = fresh.runReference(
                            w.prog, w.trace, code, heap, pages);
                        expectSameResult(
                            ref,
                            machine.replay(w.plan,
                                           paths.l2Data ? tables : with_data,
                                           plan_part, stream, paths),
                            what);
                        expectSameResult(ref, machine.replay(w.plan, with_data),
                                         what + ", two-argument");
                        ras_mispredicts += ref.rasMispredicts;
                        replays += 2;
                    }
                }
            }
        });
        EXPECT_EQ(count("replay.calls"), replays) << pc.name;
        EXPECT_EQ(count("replay.l2_shared"), pc.l2Shared ? replays : 0)
            << pc.name;
        EXPECT_EQ(count("replay.btb_shared"), pc.btbShared ? replays : 0)
            << pc.name;
        EXPECT_EQ(count("replay.btb_simulated"), pc.btbShared ? 0 : replays)
            << pc.name;
        auto replays_if = [&](Fetch f) { return pc.fetch == f ? replays : 0; };
        EXPECT_EQ(count("replay.l1i_shared"), replays_if(Fetch::FirstTouch))
            << pc.name;
        EXPECT_EQ(count("replay.l1i_per_set"), replays_if(Fetch::PerSet))
            << pc.name;
        EXPECT_EQ(count("replay.l2_simulated"),
                  replays_if(Fetch::OwnSumInLine))
            << pc.name;
        EXPECT_GT(ras_mispredicts, 0u) << pc.name;
        // A multi-set L1I on the per-set path overflows some of its sets
        // and not others: the two forms meet in one outcome.
        if (pc.fetch == Fetch::PerSet && cfg.hierarchy.l1i.numSets() > 1) {
            EXPECT_GT(partial_overflows, 0u) << pc.name;
        }
    }
}

/** The RAS part replays bpred::ReturnAddressStack over site ids: on a
 *  random call/return stream with deep recursion (one return site
 *  pushed again and again, so overwritten entries can match), every
 *  return's mispredict bit equals the address-keyed stack's verdict
 *  at every depth, overflow and empty pops included. */
TEST(ReplayGolden, SharedRasBitsMatchReturnAddressStack)
{
    using RP = ReplayPlan;
    ReplayPlan plan;
    Rng rng(17);
    for (u32 e = 0; e < 4000; ++e) {
        const bool call = rng.uniformInt(2) == 0;
        const u32 site = static_cast<u32>(rng.uniformInt(4));
        plan.site.push_back(site);
        plan.flags.push_back(call ? RP::kHasBranch | RP::kCall | RP::kTaken
                                  : RP::kHasBranch | RP::kReturn);
        plan.rasPushSite.push_back(call && site != 3 ? site : RP::kNoSite);
        plan.returnSite.push_back(call ? RP::kNoSite : site);
        // The plan part is built whole: its BTB reads each taken call's
        // target, its first events the site table.
        plan.targetSite.push_back(call ? site : RP::kNoSite);
    }
    plan.siteProc.assign(4, 0);
    for (u32 depth : {1u, 2u, 4u, 16u}) {
        auto cfg = MachineConfig::xeonE5440();
        cfg.rasDepth = depth;
        const PlanOutcomes plan_part = simulatePlan(cfg, plan);
        bpred::ReturnAddressStack ras(depth);
        u32 misses = 0;
        for (size_t e = 0; e < plan.eventCount(); ++e) {
            bool miss = false;
            if (plan.flags[e] & RP::kReturn) {
                const Addr predicted = ras.pop();
                miss = predicted != plan.returnSite[e] + 1;
            } else if (plan.rasPushSite[e] != RP::kNoSite) {
                ras.push(plan.rasPushSite[e] + 1);
            }
            misses += miss;
            EXPECT_EQ((plan_part.rasMissBits[e / 64] >> (e % 64)) & 1,
                      u64{miss})
                << "depth " << depth << " event " << e;
        }
        EXPECT_GT(misses, 0u) << "depth " << depth;
    }
}

/** The fallbacks are not vacuous: where a path is refused, taking it
 *  anyway gives a wrong result on at least one workload. That includes
 *  the rows whose L2 proof holds but whose L1I and L2 lines differ:
 *  there the per-set fetch's L1I misses hold, but it misreads the L2
 *  verdicts of fetches and prefetches, which shows in l2Misses. An L2
 *  line wider than a page leaves the stream no L2 part: no L2 outcome
 *  to force. */
TEST(ReplayGolden, RefusedSharedPathsWouldDiverge)
{
    for (const PathCase &pc : pathCases()) {
        if (pc.randomHeap)
            continue; // The same machines as fixed-heap rows.
        const bool l2_part = pc.cfg.hierarchy.l2.lineBytes <=
                             (Addr{1} << layout::PageMap::pageBits);
        const bool l2_refused = !pc.l2Shared && l2_part;
        if (!l2_refused && pc.btbShared)
            continue;
        const MachineConfig &cfg = pc.cfg;
        u32 differing = 0;
        for (const Workload &w : workloads()) {
            layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
            LayoutTables tables(w.plan, codeFor(w, 4), heap,
                                layout::PageMap(9),
                                cfg.hierarchy.l1i.lineBytes);
            const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
            const StreamOutcomes stream = simulateStream(
                cfg, w.plan, heap, tables.pages(), plan_part);
            ASSERT_EQ(stream.l2.has_value(), l2_part) << pc.name;
            Machine machine(cfg);
            const RunResult honest = machine.replay(w.plan, tables);
            SharedPaths forced;
            forced.l2Data = l2_refused;
            forced.btb = !pc.btbShared;
            const RunResult wrong =
                machine.replay(w.plan, tables, plan_part, stream, forced);
            differing += honest.l2Misses != wrong.l2Misses ||
                         honest.btbMisses != wrong.btbMisses;
        }
        EXPECT_GT(differing, 0u)
            << pc.name << ": the refusal guards nothing on these workloads";
    }
}

/** The L2 proof counts each code line's *physical* successor, which the
 *  next-line prefetcher fetches: at a page end it is line 0 of whatever
 *  physical page follows. A large synthetic program makes a layout
 *  whose page-end successor is a touched data line findable by
 *  searching page seeds; on that layout no L2 set overflows, yet the
 *  proof must refuse, and the evaluator-style replay still matches the
 *  reference. */
TEST(ReplayGolden, L2ProofRefusesPageEndPrefetchOntoDataLine)
{
    auto profile = workloads::defaultProfile("page-end");
    profile.procedures = 3000;
    profile.hotProcedures = 1500;
    profile.meanInstsPerBlock = 12;
    profile.memWorkingSet = 64 << 20;
    profile.fracL1 = 0.5;
    profile.fracL2 = 0.2;
    profile.fracMem = 0.3;
    const Workload w(profile, 60000);
    const auto cfg = MachineConfig::xeonE5440();
    const u32 page_bits = layout::PageMap::pageBits;
    const Addr page_bytes = Addr{1} << page_bits;
    const Addr line = cfg.hierarchy.l1i.lineBytes;
    ASSERT_EQ(line, cfg.hierarchy.l2.lineBytes);

    auto code = codeFor(w, 1);
    layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
    const LayoutTables virt(w.plan, code, heap, layout::PageMap(), line);
    // Virtual pages whose last line some site spans, and virtual pages
    // whose first line the data stream touches.
    std::set<Addr> code_ends, data_starts;
    for (u32 s = 0; s < w.plan.siteCount(); ++s) {
        const Addr end = virt.siteAddr[s] + w.plan.siteBytes[s] - 1;
        for (Addr l = virt.siteAddr[s] & ~(line - 1); l <= end; l += line)
            if ((l & (page_bytes - 1)) == page_bytes - line)
                code_ends.insert(l >> page_bits);
    }
    for (Addr a : virt.dataAddr)
        if ((a & (page_bytes - 1)) < line)
            data_starts.insert(a >> page_bits);
    ASSERT_FALSE(code_ends.empty());
    ASSERT_FALSE(data_starts.empty());

    u64 found = 0;
    std::vector<Addr> phys_data;
    for (u64 seed = 1; seed <= 200000 && !found; ++seed) {
        const layout::PageMap pages(seed);
        phys_data.clear();
        for (Addr d : data_starts)
            phys_data.push_back(pages.translate(d << page_bits) >> page_bits);
        std::sort(phys_data.begin(), phys_data.end());
        for (Addr c : code_ends)
            if (std::binary_search(
                    phys_data.begin(), phys_data.end(),
                    (pages.translate(c << page_bits) >> page_bits) + 1))
                found = seed;
    }
    ASSERT_NE(found, 0u) << "no page seed puts a page-end prefetch on data";

    const layout::PageMap pages(found);
    const LayoutTables tables(w.plan, code, heap, pages, line);
    const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
    const StreamOutcomes stream =
        simulateStream(cfg, w.plan, heap, virt.pages(), plan_part);
    ConflictFacts facts;
    EXPECT_FALSE(canShareL2Data(cfg, w.plan, tables, stream, &facts))
        << "page seed " << found;
    EXPECT_FALSE(facts.checked);
    EXPECT_EQ(facts.overflowingSets, 0u);
    // The identity map keeps code and data pages apart: same program,
    // same heap, the proof holds.
    const LayoutTables identity(w.plan, code, heap, layout::PageMap(), line);
    EXPECT_TRUE(canShareL2Data(cfg, w.plan, identity, stream));

    const SharedPaths paths =
        choosePaths(cfg, w.plan, tables, plan_part, stream);
    EXPECT_FALSE(paths.l2Data);
    Machine machine(cfg);
    expectSameResult(
        machine.runReference(w.prog, w.trace, code, heap, pages),
        machine.replay(w.plan, tables, plan_part, stream, paths),
        "page seed " + std::to_string(found));
}

/** A layout's own stream (DESIGN.md §5x), built from its physical
 *  tables in one scratch reused across layouts, plans and machines,
 *  equals the heap-layout builder's stream for the same heap: the same
 *  L1D and first-touch bits, its pages the heap stream's pages placed
 *  through the layout's page map, in the same order with the same
 *  masks, and, once added, the same cycle sum. Where the own pass stops
 *  at a set its data lines overflow (a 64 KiB L2), the heap stream's
 *  proof refuses the layout on overflowing sets too. */
TEST(ReplayGolden, OwnStreamEqualsTheHeapStream)
{
    using cache::CacheConfig;
    const MachineConfig xeon = MachineConfig::xeonE5440();
    MachineConfig small_l2 = xeon;
    small_l2.hierarchy.l2 =
        CacheConfig{"L2", 64 << 10, 16, 64, cache::Replacement::Random};
    const u32 page_bits = layout::PageMap::pageBits;
    StreamScratch own;
    for (const MachineConfig &cfg : {xeon, small_l2, xeon}) {
        ASSERT_TRUE(canShareL1d(cfg.hierarchy.l1d, true, false));
        const bool small = cfg.hierarchy.l2.sizeBytes == (64 << 10);
        u32 with_l2 = 0;
        u32 stopped = 0;
        for (size_t wi = 0; wi < workloads().size(); ++wi) {
            const Workload &w = workloads()[wi];
            const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
            for (u64 seed = 1; seed <= 3; ++seed) {
                const std::string what =
                    std::string(small ? "64 KiB L2" : "default") +
                    ", workload " + std::to_string(wi) + " seed " +
                    std::to_string(seed);
                const layout::HeapLayout heap(w.prog,
                                              layout::HeapKey{seed, true});
                const layout::PageMap pages(seed * 31 + 7);
                const LayoutTables tables(w.plan, codeFor(w, seed), heap,
                                          pages, cfg.hierarchy.l1i.lineBytes);
                const StreamOutcomes from_heap =
                    simulateStream(cfg, w.plan, heap, pages, plan_part);
                ASSERT_TRUE(from_heap.l2 && from_heap.l2->pageMap.isIdentity())
                    << what;
                simulateStream(cfg, w.plan, tables, own);
                const StreamOutcomes &s = own.stream;
                EXPECT_EQ(s.memCount, from_heap.memCount) << what;
                EXPECT_EQ(s.hitBits, from_heap.hitBits) << what;
                EXPECT_EQ(s.misses, from_heap.misses) << what;
                if (!s.l2) {
                    ++stopped;
                    ConflictFacts facts;
                    EXPECT_FALSE(canShareL2Data(cfg, w.plan, tables,
                                                from_heap, &facts))
                        << what;
                    EXPECT_GT(facts.overflowingSets, 0u) << what;
                    continue;
                }
                ++with_l2;
                const L2FirstTouch &a = *s.l2;
                const L2FirstTouch &b = *from_heap.l2;
                EXPECT_TRUE(a.pageMap == pages) << what;
                EXPECT_EQ(a.firstBits, b.firstBits) << what;
                EXPECT_EQ(a.sum.l2DataMisses, b.sum.l2DataMisses) << what;
                EXPECT_EQ(a.pageWords, b.pageWords) << what;
                EXPECT_EQ(a.pageMask, b.pageMask) << what;
                ASSERT_EQ(a.pages.size(), b.pages.size()) << what;
                for (size_t g = 0; g < a.pages.size(); ++g)
                    EXPECT_EQ(a.pages[g],
                              pages.translate(b.pages[g] << page_bits) >>
                                  page_bits)
                        << what << " page " << g;
                addStreamSum(cfg, w.plan, plan_part, own.stream);
                EXPECT_EQ(a.sum.sumBase, b.sum.sumBase) << what;
                EXPECT_EQ(a.sum.instructions, b.sum.instructions) << what;
                EXPECT_EQ(a.sum.condBranches, b.sum.condBranches) << what;
                EXPECT_EQ(a.sum.rasMispredicts, b.sum.rasMispredicts) << what;
                EXPECT_EQ(a.sum.l1dMisses, b.sum.l1dMisses) << what;
                EXPECT_EQ(a.sum.condFrom, b.sum.condFrom) << what;
                EXPECT_EQ(a.sum.delta, b.sum.delta) << what;
            }
        }
        EXPECT_EQ(stopped > 0, small) << "stopped " << stopped;
        EXPECT_EQ(with_l2 > 0, !small) << "with an L2 part " << with_l2;
    }
}

/** Data pages recorded under the identity map are placed through each
 *  layout's page map; pages recorded under another map apply only to
 *  layouts under that same map, and the proof refuses the rest. A
 *  stream is recorded under another map only where the L1D outcome
 *  does not hold across page maps, so this machine's L1D indexes past
 *  the page offset (the L2 proof reads only its line size). */
TEST(ReplayGolden, L2ProofPlacesDataPagesThroughTheRecordingMap)
{
    auto cfg = MachineConfig::xeonE5440();
    const Workload &w = workloads()[1];
    layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
    const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
    // Where the L1D outcome holds across page maps, the stream is
    // recorded under the identity map whatever map it is built under.
    EXPECT_TRUE(simulateStream(cfg, w.plan, heap, layout::PageMap(5),
                               plan_part)
                    .l2->pageMap.isIdentity());
    cfg.hierarchy.l1d = cache::CacheConfig{"L1D", 64 << 10, 8, 64};
    ASSERT_FALSE(canShareL1d(cfg.hierarchy.l1d, true, false));
    const auto code = codeFor(w, 6);
    const u32 line = cfg.hierarchy.l1i.lineBytes;
    const StreamOutcomes recorded_under_5 = simulateStream(
        cfg, w.plan, heap, layout::PageMap(5), plan_part);
    const StreamOutcomes recorded_virtual = simulateStream(
        cfg, w.plan, heap, layout::PageMap(), plan_part);
    const LayoutTables under_5(w.plan, code, layout::PageMap(5), line);
    const LayoutTables under_6(w.plan, code, layout::PageMap(6), line);
    EXPECT_TRUE(canShareL2Data(cfg, w.plan, under_5, recorded_under_5));
    ConflictFacts facts;
    EXPECT_FALSE(
        canShareL2Data(cfg, w.plan, under_6, recorded_under_5, &facts));
    EXPECT_FALSE(facts.checked);
    EXPECT_TRUE(canShareL2Data(cfg, w.plan, under_5, recorded_virtual));
    EXPECT_TRUE(canShareL2Data(cfg, w.plan, under_6, recorded_virtual));
}

/** The L1I proof histograms the lines that enter the L1I: each line an
 *  executed site spans and, with the prefetcher, its *physical*
 *  successor, which at a page end is line 0 of the next physical page
 *  (DESIGN.md §5r). An independent count, from virtual site addresses
 *  translated line by line, gives the same facts on every workload and
 *  page map, with the prefetcher and without, on L1Is whose set index
 *  stays inside the page offset and on 1- and 2-way L1Is whose index
 *  reaches past it, where a page-end successor's set depends on which
 *  physical page follows. */
TEST(ReplayGolden, L1iProofCountsPhysicalLinesAndSuccessors)
{
    const cache::CacheConfig geometries[] = {
        {"L1I", 32 << 10, 8, 64},
        {"L1I", 64 << 10, 2, 64},
        {"L1I", 256 << 10, 1, 64},
    };
    u32 refused = 0;
    for (const Workload &w : workloads()) {
        for (const cache::CacheConfig &l1i : geometries) {
            for (bool prefetch : {true, false}) {
                auto cfg = MachineConfig::xeonE5440();
                cfg.hierarchy.l1i = l1i;
                cfg.hierarchy.nextLinePrefetch = prefetch;
                const u32 line = l1i.lineBytes;
                const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
                for (u64 seed = 1; seed <= 3; ++seed) {
                    const auto code = codeFor(w, seed);
                    const layout::PageMap pages(seed * 31 + 7);
                    const LayoutTables tables(w.plan, code, pages, line);
                    std::set<Addr> lines;
                    for (u32 s = 0; s < w.plan.siteCount(); ++s) {
                        if (plan_part.siteFirstEvent[s] ==
                            ReplayPlan::kNoSite)
                            continue;
                        const Addr end =
                            tables.siteAddr[s] + w.plan.siteBytes[s] - 1;
                        for (Addr v = tables.siteAddr[s] & ~Addr{line - 1};
                             v <= end; v += line) {
                            const Addr phys = pages.translate(v) / line;
                            lines.insert(phys);
                            if (prefetch)
                                lines.insert(phys + 1);
                        }
                    }
                    std::vector<u32> per_set(l1i.numSets(), 0);
                    for (Addr l : lines)
                        ++per_set[l % l1i.numSets()];
                    u32 overflowing = 0;
                    u32 largest = 0;
                    for (u32 c : per_set) {
                        overflowing += c > l1i.assoc;
                        largest = std::max(largest, c);
                    }
                    ConflictFacts facts;
                    const bool holds =
                        canShareL1i(cfg, w.plan, tables, plan_part, &facts);
                    const std::string what =
                        std::to_string(l1i.sizeBytes >> 10) + " KiB " +
                        std::to_string(l1i.assoc) + "-way, prefetch " +
                        std::to_string(prefetch) + ", seed " +
                        std::to_string(seed);
                    EXPECT_TRUE(facts.checked) << what;
                    EXPECT_EQ(facts.overflowingSets, overflowing) << what;
                    EXPECT_EQ(facts.maxPerSet, largest) << what;
                    EXPECT_EQ(holds, overflowing == 0) << what;
                    refused += !holds;
                }
            }
        }
    }
    EXPECT_GT(refused, 0u) << "no geometry overflows: the count is vacuous";
}

/** The L1I outcome counts from the warmup event on, as the replay's
 *  statistics do. For warmup fractions 0 and 0.5, the trace is cut so
 *  that its warmup event is the first event of a site and carries
 *  fetch misses of its own (the reference counts more of them with
 *  warmup there than one event later): a line's first demand falls on
 *  the boundary. On a layout where the L2 and L1I proofs hold, the
 *  first-touch replay equals the reference there; on a 4 KiB 2-way
 *  L1I, which overflows sets, so does the per-set replay, which
 *  simulates the hot events before the warmup event and counts from
 *  it, and, with 32-byte L1I lines, the in-line fetch of the layout's
 *  own sum, whose boundary event also costs a demand-miss stall. */
TEST(ReplayGolden, L1iFirstTouchCountsFromTheWarmupEvent)
{
    const auto &profile = workloads::specFor("400.perlbench").profile;
    const Program prog = workloads::buildProgram(profile);
    const Trace full =
        TraceGenerator(prog, profile.behaviourSeed).makeTrace(80000);
    const ReplayPlan full_plan(prog, full);
    // First events of sites in the first half, latest first.
    std::vector<size_t> fresh;
    std::vector<bool> seen(full_plan.siteCount(), false);
    for (size_t e = 0; 2 * e <= full_plan.eventCount(); ++e)
        if (!seen[full_plan.site[e]]) {
            seen[full_plan.site[e]] = true;
            fresh.push_back(e);
        }
    std::reverse(fresh.begin(), fresh.end());
    ASSERT_GT(fresh.size(), 1u);

    const auto code =
        layout::Linker().link(prog, layout::LayoutKey{1, true, true});
    const layout::HeapLayout heap(prog, layout::HeapKey::deterministic());
    const layout::PageMap pages(5);
    for (Fetch fetch :
         {Fetch::FirstTouch, Fetch::PerSet, Fetch::OwnSumInLine}) {
        for (double frac : {0.0, 0.5}) {
            auto cfg = MachineConfig::xeonE5440();
            if (fetch == Fetch::PerSet)
                cfg.hierarchy.l1i = cache::CacheConfig{"L1I", 4 << 10, 2, 64};
            if (fetch == Fetch::OwnSumInLine)
                cfg.hierarchy.l1i.lineBytes = 32;
            cfg.warmupFraction = frac;
            const std::string what =
                std::string(fetch == Fetch::FirstTouch ? "first touch"
                            : fetch == Fetch::PerSet   ? "per set"
                                                       : "in-line fetch") +
                ", warmup " + std::to_string(frac);
            bool found = false;
            for (size_t f : frac == 0.0 ? std::vector<size_t>{0} : fresh) {
                // The first 2f events (all of them at fraction 0), so that
                // the warmup event is f.
                Trace cut = full;
                if (frac > 0.0) {
                    cut.events.resize(2 * f);
                    size_t mem = 0;
                    for (size_t e = 0; e < 2 * f; ++e)
                        mem += full_plan.nMem[e];
                    cut.memIds.resize(mem);
                    cut.recount(prog);
                }
                const ReplayPlan plan(prog, cut);
                const size_t warm = static_cast<size_t>(
                    static_cast<double>(plan.eventCount()) * frac);
                ASSERT_EQ(warm, f);
                const PlanOutcomes plan_part = simulatePlan(cfg, plan);
                const StreamOutcomes stream = simulateStream(
                    cfg, plan, heap, layout::PageMap(), plan_part);
                ASSERT_EQ(plan_part.siteFirstEvent[plan.site[warm]], warm);
                // Only the own sum reads data addresses.
                const u32 line = cfg.hierarchy.l1i.lineBytes;
                const LayoutTables tables =
                    fetch == Fetch::OwnSumInLine
                        ? LayoutTables(plan, code, heap, pages, line)
                        : LayoutTables(plan, code, pages, line);
                const SharedPaths paths =
                    choosePaths(cfg, plan, tables, plan_part, stream);
                ASSERT_EQ(paths.l2Data, fetch != Fetch::OwnSumInLine) << what;
                Machine fresh_machine(cfg);
                const RunResult ref =
                    fresh_machine.runReference(prog, cut, code, heap, pages);
                auto later = cfg;
                later.warmupFraction = (static_cast<double>(warm) + 1.5) /
                                       static_cast<double>(plan.eventCount());
                Machine later_machine(later);
                const RunResult ref_later =
                    later_machine.runReference(prog, cut, code, heap, pages);
                // The simulated forms also owe event f's stall: a demand
                // miss.
                const bool boundary_misses =
                    ref.l1iMisses != ref_later.l1iMisses ||
                    (fetch == Fetch::FirstTouch &&
                     ref.l2PrefMisses != ref_later.l2PrefMisses);
                if (!boundary_misses)
                    continue; // Every line of event f arrived earlier.
                found = true;
                Machine machine(cfg);
                RunResult fast;
                const auto count = countersDuring([&] {
                    fast = machine.replay(plan, tables, plan_part, stream,
                                          paths);
                });
                expectSameResult(ref, fast,
                                 what + ", warmup event " +
                                     std::to_string(warm));
                EXPECT_EQ(count("replay.l1i_shared"),
                          fetch == Fetch::FirstTouch ? 1u : 0u)
                    << what;
                EXPECT_EQ(count("replay.l1i_per_set"),
                          fetch == Fetch::PerSet ? 1u : 0u)
                    << what;
                EXPECT_EQ(count("replay.l2_simulated"),
                          fetch == Fetch::OwnSumInLine ? 1u : 0u)
                    << what;
                break;
            }
            EXPECT_TRUE(found) << "no first demand on " << what;
        }
    }
}

/** The cycle sum counts mispredicts and their charges from the first
 *  conditional branch at or after the warmup event, and trains the
 *  predictor on every branch before it. For warmup fractions 0 and 0.5
 *  the trace is cut so that its warmup event is a conditional branch
 *  the reference mispredicts (it counts one more mispredict with warmup
 *  there than one event later): at fraction 0 by dropping leading
 *  events, at 0.5 by keeping the first 2f. The default machine and a
 *  64-set BTB take the shared sum, with the shared BTB bits or their
 *  own; a 64 KiB L2 and a randomized heap (no shared L1D part) build
 *  their own sum with the L2 simulated and the fetch in line (DESIGN.md
 *  §5u). Each replay equals the reference there, on the path its row
 *  names. */
TEST(ReplayGolden, CycleSumCountsFromAMispredictedWarmupBranch)
{
    const auto &profile = workloads::specFor("400.perlbench").profile;
    const Program prog = workloads::buildProgram(profile);
    const Trace full =
        TraceGenerator(prog, profile.behaviourSeed).makeTrace(80000);
    const ReplayPlan full_plan(prog, full);
    // Events [lo, hi) of the full trace as a trace of their own.
    auto window = [&](size_t lo, size_t hi) {
        Trace cut;
        cut.events.assign(full.events.begin() + static_cast<long>(lo),
                          full.events.begin() + static_cast<long>(hi));
        size_t mem_lo = 0;
        for (size_t e = 0; e < lo; ++e)
            mem_lo += full_plan.nMem[e];
        size_t mem_hi = mem_lo;
        for (size_t e = lo; e < hi; ++e)
            mem_hi += full_plan.nMem[e];
        cut.memIds.assign(full.memIds.begin() + static_cast<long>(mem_lo),
                          full.memIds.begin() + static_cast<long>(mem_hi));
        cut.recount(prog);
        return cut;
    };
    std::vector<size_t> conds; // Conditional branches, first half.
    for (size_t e = 1; 2 * e <= full_plan.eventCount(); ++e)
        if (full_plan.flags[e] & ReplayPlan::kCond)
            conds.push_back(e);
    ASSERT_GT(conds.size(), 1u);

    // Each row with whether its heap is randomized: a randomized heap
    // replays through the layout's own stream, whose L2 proof holds on
    // the default machine and refuses on a 64 KiB L2 (DESIGN.md §5x).
    std::vector<std::pair<PathCase, bool>> rows;
    for (const PathCase &pc : pathCases())
        if (pc.name == "default" || pc.name == "64-set BTB" ||
            pc.name == "64 KiB L2") {
            rows.push_back({pc, false});
            if (pc.name != "64-set BTB") {
                PathCase randomized = pc;
                randomized.name += ", randomized heap";
                rows.push_back({randomized, true});
            }
        }

    const auto code =
        layout::Linker().link(prog, layout::LayoutKey{1, true, true});
    const layout::PageMap pages(5);
    for (const auto &[row, random_heap] : rows) {
        layout::HeapKey hk = layout::HeapKey::deterministic();
        if (random_heap) {
            hk.seed = 3;
            hk.randomize = true;
        }
        const layout::HeapLayout heap(prog, hk);
        for (double frac : {0.0, 0.5}) {
            auto cfg = row.cfg;
            cfg.warmupFraction = frac;
            const std::string what =
                row.name + ", warmup " + std::to_string(frac);
            bool found = false;
            // At 0.5 the latest candidates first: a warmed predictor.
            for (size_t i = 0; i < conds.size() && !found; ++i) {
                const size_t c =
                    frac == 0.0 ? conds[i] : conds[conds.size() - 1 - i];
                const Trace cut = frac == 0.0
                                      ? window(c, full_plan.eventCount())
                                      : window(0, 2 * c);
                const ReplayPlan plan(prog, cut);
                const size_t warm = warmupEvent(cfg, plan);
                ASSERT_EQ(warm, frac == 0.0 ? 0 : c);
                ASSERT_TRUE(plan.flags[warm] & ReplayPlan::kCond);
                Machine ref_machine(cfg);
                const RunResult ref =
                    ref_machine.runReference(prog, cut, code, heap, pages);
                auto later = cfg;
                later.warmupFraction = (static_cast<double>(warm) + 1.5) /
                                       static_cast<double>(plan.eventCount());
                Machine later_machine(later);
                const RunResult ref_later =
                    later_machine.runReference(prog, cut, code, heap, pages);
                if (ref.mispredicts != ref_later.mispredicts + 1)
                    continue; // The warmup branch is predicted right.
                found = true;
                // As a LayoutEvaluator builds them: a fixed heap shares
                // one data stream, a randomized heap's layout builds its
                // own from its tables.
                const PlanOutcomes plan_part = simulatePlan(cfg, plan);
                const u32 line = cfg.hierarchy.l1i.lineBytes;
                LayoutTables tables =
                    random_heap ? LayoutTables(plan, code, heap, pages, line)
                                : LayoutTables(plan, code, pages, line);
                StreamScratch own;
                if (random_heap)
                    simulateStream(cfg, plan, tables, own);
                else
                    own.stream = simulateStream(cfg, plan, heap,
                                                layout::PageMap(), plan_part);
                const StreamOutcomes &stream = own.stream;
                const SharedPaths paths =
                    choosePaths(cfg, plan, tables, plan_part, stream);
                ASSERT_EQ(paths.l2Data, row.l2Shared) << what;
                ASSERT_EQ(paths.btb, row.btbShared) << what;
                if (!paths.l2Data)
                    tables = LayoutTables(plan, code, heap, pages, line);
                Machine machine(cfg);
                RunResult fast;
                const auto count = countersDuring([&] {
                    fast = random_heap
                               ? machine.replayOwnStream(plan, tables,
                                                         plan_part)
                               : machine.replay(plan, tables, plan_part,
                                                stream, paths);
                });
                expectSameResult(ref, fast,
                                 what + ", warmup event " +
                                     std::to_string(c));
                EXPECT_EQ(count("replay.l2_simulated"),
                          row.l2Shared ? 0u : 1u)
                    << what;
                EXPECT_EQ(count("replay.btb_simulated"),
                          row.btbShared ? 0u : 1u)
                    << what;
            }
            EXPECT_TRUE(found) << "no mispredicted warmup branch on " << what;
        }
    }
}

/** Tables without data addresses replay only where the shared
 *  outcomes stand in for every data address: the L1D and the L2. */
TEST(ReplayGoldenDeathTest, DatalessTablesNeedTheSharedL2Path)
{
    auto cfg = MachineConfig::xeonE5440();
    const Workload &w = workloads()[0];
    layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
    const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
    const StreamOutcomes stream =
        simulateStream(cfg, w.plan, heap, layout::PageMap(), plan_part);
    const LayoutTables code_only(w.plan, codeFor(w, 1), layout::PageMap(3),
                                 cfg.hierarchy.l1i.lineBytes);
    Machine machine(cfg);
    SharedPaths btb_only;
    btb_only.btb = true;
    EXPECT_DEATH(
        machine.replay(w.plan, code_only, plan_part, stream, btb_only),
                 "tables without data addresses");
}

/** Shared outcomes built for another plan's event stream must never be
 *  replayed. */
TEST(ReplayGoldenDeathTest, SharedOutcomesForAnotherStreamPanic)
{
    auto cfg = MachineConfig::xeonE5440();
    const Workload &w = workloads()[0];
    const Workload &other = workloads()[1];
    ASSERT_NE(w.plan.eventCount(), other.plan.eventCount());
    layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
    LayoutTables tables(w.plan, codeFor(w, 1), heap, layout::PageMap(),
                        cfg.hierarchy.l1i.lineBytes);
    const PlanOutcomes foreign = simulatePlan(cfg, other.plan);
    Machine machine(cfg);
    StreamScratch own;
    EXPECT_DEATH(machine.replay(w.plan, tables, foreign,
                                simulateStream(cfg, w.plan, tables, own)),
                 "shared outcomes cover");
    EXPECT_DEATH(machine.replayOwnStream(w.plan, tables, foreign),
                 "shared outcomes cover");
}

/** The evaluator's fallback: a fixed-heap campaign on a 64 KiB L2
 *  overflows L2 sets, so each layout's proof refuses, its tables gain
 *  data addresses and the L2 is simulated; the BTB stays shared. Every
 *  sample equals the reference model (noise off). */
TEST(ReplayGolden, FixedHeapCampaignMatchesReferenceWhenL2Overflows)
{
    interferometry::CampaignConfig cc;
    cc.instructionBudget = 60000;
    cc.jobs = 1;
    cc.physicalPages = true;
    cc.randomizeHeap = false;
    cc.machine.hierarchy.l2 =
        cache::CacheConfig{"L2", 64 << 10, 16, 64, cache::Replacement::Random};
    cc.runner.noise = NoiseConfig::none();
    std::vector<core::Measurement> samples;
    const auto counters = countersDuring([&] {
        interferometry::Campaign camp(
            workloads::specFor("445.gobmk").profile, cc);
        samples = camp.measureLayouts(0, 4);
        for (u32 i = 0; i < samples.size(); ++i) {
            Machine fresh(cc.machine);
            const RunResult ref = fresh.runReference(
                camp.program(), camp.trace(), camp.codeLayoutFor(i),
                camp.heapLayoutFor(i), camp.pageMapFor(i));
            EXPECT_EQ(samples[i].cycles, ref.cycles) << "layout " << i;
            EXPECT_EQ(samples[i].l2Misses, ref.l2Misses) << "layout " << i;
            EXPECT_EQ(samples[i].btbMisses, ref.btbMisses) << "layout " << i;
        }
    });
    EXPECT_EQ(counters("replay.l2_simulated"), 4u);
    EXPECT_EQ(counters("replay.btb_shared"), 4u);
    EXPECT_EQ(counters("replay.l2_shared"), 0u);
}

/** Fetch lines are built for one L1I line size: tables built for 64 B
 *  lines must never replay on a machine with 32 B lines. */
TEST(ReplayGoldenDeathTest, TablesForAnotherLineSizePanic)
{
    auto cfg = MachineConfig::xeonE5440();
    ASSERT_EQ(cfg.hierarchy.l1i.lineBytes, 64u);
    const Workload &w = workloads()[0];
    layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
    const LayoutTables tables(w.plan, codeFor(w, 1), heap,
                              layout::PageMap(4), 64);
    cfg.hierarchy.l1i.lineBytes = 32;
    Machine machine(cfg);
    EXPECT_DEATH(machine.replay(w.plan, tables),
                 "fetch lines of 64 B, the machine's L1I line is 32 B");
}

/** Outcomes that do not cover the plan's memory stream must never be
 *  replayed. */
TEST(ReplayGoldenDeathTest, MismatchedL1dOutcomesPanic)
{
    auto cfg = MachineConfig::xeonE5440();
    const Workload &w = workloads()[0];
    layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
    LayoutTables tables(w.plan, codeFor(w, 1), heap, layout::PageMap(),
                        cfg.hierarchy.l1i.lineBytes);
    const PlanOutcomes plan_part = simulatePlan(cfg, w.plan);
    StreamOutcomes short_by_one =
        simulateStream(cfg, w.plan, heap, tables.pages(), plan_part);
    short_by_one.memCount -= 1;
    Machine machine(cfg);
    EXPECT_DEATH(machine.replay(w.plan, tables, plan_part, short_by_one),
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

/** The golden contract holds for non-default machine geometry too: a
 *  non-power-of-two issue width. */
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

/** Under the identity map the fetch-line table lists exactly each
 *  site's virtual lines, for the line size it was built for. */
TEST(ReplayPlanProperties, IdentityLineTableListsVirtualLines)
{
    const Workload &w = workloads()[1];
    const auto code = codeFor(w, 17);
    layout::HeapLayout heap(w.prog, layout::HeapKey::deterministic());
    for (u32 line : {32u, 64u}) {
        const LayoutTables tables(w.plan, code, heap, layout::PageMap(),
                                  line);
        EXPECT_EQ(tables.fetchLineBytes(), line);
        ASSERT_EQ(tables.siteLineStart.size(), w.plan.siteCount() + 1);
        EXPECT_EQ(tables.siteLineStart.back(), tables.linePhys.size());
        for (u32 s = 0; s < w.plan.siteCount(); ++s) {
            std::vector<Addr> lines;
            const Addr end = tables.siteAddr[s] + w.plan.siteBytes[s];
            for (Addr l = tables.siteAddr[s] & ~Addr{line - 1}; l < end;
                 l += line)
                lines.push_back(l);
            const std::vector<Addr> listed(
                tables.linePhys.begin() + tables.siteLineStart[s],
                tables.linePhys.begin() + tables.siteLineStart[s + 1]);
            EXPECT_EQ(listed, lines) << "site " << s << ", " << line << " B";
        }
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
