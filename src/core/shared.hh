/**
 * @file
 * Outcomes a replay reads instead of simulating a structure, and the
 * proofs that say when it may (DESIGN.md §5n, §5p, §5r, §5t).
 *
 * Some structures' hit/miss outcomes do not depend on the layout:
 *
 *  - the L1D sees only the data stream, so one heap layout fixes its
 *    outcome (under canShareL1d, across page maps too);
 *  - in an L2 where no set ever receives more distinct lines than it
 *    has ways, nothing is evicted, so a data access that missed the
 *    L1D misses the L2 exactly when it is the first access to its L2
 *    line: again fixed by the heap layout alone;
 *  - in a BTB with no overflowing set, a taken branch hits exactly when
 *    its site redirected before, with the right target exactly when its
 *    last target site is this one: fixed by the plan;
 *  - the RAS compares site addresses, which are injective and never 0,
 *    so its per-return verdict is fixed by the plan and its depth;
 *  - in an L1I set that receives no more lines than it has ways, a
 *    fetch misses exactly when its line has not arrived before (at its
 *    first demand fetch, or right after its physical predecessor's with
 *    the next-line prefetcher), and under the L2 proof such a first
 *    arrival goes to memory: one sort of each layout's (line, first
 *    demand) pairs gives those sets' outcome, from the first event of
 *    each site (DESIGN.md §5r). An LRU set that overflows is simulated
 *    alone, over the events whose fetch reaches it (§5w).
 *
 * With the L1D and the L2 data side fixed, every term of a replay's
 * cycles is fixed too, except three: the fetch stalls, the BTB
 * penalties where the BTB proof refuses, and the charge of each
 * conditional branch the layout's predictor mispredicts. So one more
 * part, the cycle sum, holds the rest of the cycles and counters and
 * a charge per conditional branch, and such a replay runs only its
 * predictor over the branch stream (DESIGN.md §5t).
 *
 * simulatePlan() and simulateStream() build the plan part and one heap
 * layout's data-stream part (DESIGN.md §5v), the latter shared by a
 * fixed heap's layouts or, where the heap is randomized, each layout's
 * own (§5x); choosePaths() runs the proofs canShareL2Data() and
 * canShareBtb() per layout, and fetchPerSet() derives a layout's fetch
 * outcome where the L2 data side is shared.
 * Campaigns and the optimizer call choosePaths() through
 * interferometry::LayoutEvaluator and core::Machine::replayOwnStream;
 * interf_verify reports its facts.
 */

#ifndef INTERF_CORE_SHARED_HH
#define INTERF_CORE_SHARED_HH

#include <optional>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "core/config.hh"
#include "layout/heap.hh"
#include "layout/pagemap.hh"
#include "trace/replay.hh"
#include "util/types.hh"

namespace interf::core
{

/**
 * A BTB's outcome over one replay's taken non-return branches, counted
 * from the warmup event: its misses and their penalties as if no
 * branch mispredicted (misfetchPenalty, or frontendDepth for an
 * indirect branch that hit with a wrong target), and which taken
 * conditional branches it misses. A conditional branch is neither a
 * return nor indirect, so where it mispredicts, the penalty it
 * suppresses is misfetchPenalty.
 */
struct BtbOutcome
{
    Count misses = 0;
    Cycle penalty = 0;
    /** Per conditional branch: taken, and the BTB misses its target. */
    std::vector<u64> condMissBits;
};

/**
 * The plan's part: the outcomes every layout of one plan shares, built
 * whole by simulatePlan(). Bit i % 64 of word i / 64 of rasMissBits
 * belongs to event i. Immutable once built, so pool workers share one.
 */
struct PlanOutcomes
{
    size_t eventCount = 0;         ///< Events covered.
    std::vector<u64> rasMissBits;  ///< A return mispredicts.
    BtbOutcome btb;                ///< Of a BTB that never evicts.
    std::vector<u32> btbSites;     ///< Distinct taken non-return sites.
    /** First event of each site, or ReplayPlan::kNoSite for a site
     *  never executed (the input of canShareL1i and fetchPerSet). */
    std::vector<u32> siteFirstEvent;
};

/**
 * The cycle sum (DESIGN.md §5t, §5u): one data stream's, or, where the
 * L2 is simulated, one layout's own. Every term of a replay's cycles
 * but three is fixed by it, so a replay's cycles are sumBase + its BTB
 * penalty + its fetch stalls + delta[j] summed over the conditional
 * branches j >= condFrom it mispredicts. Counts start at the warmup
 * event.
 */
struct CycleSum
{
    Cycle sumBase = 0;      ///< Issue slots, extra execution, MLP, RAS.
    Count instructions = 0; ///< Retired after warmup.
    Count condBranches = 0; ///< Conditional branches after warmup.
    Count rasMispredicts = 0;
    Count l1dMisses = 0;    ///< The data stream's.
    Count l2DataMisses = 0; ///< The data accesses that missed the L2.
    size_t condFrom = 0; ///< First conditional branch at or after warmup.
    /** Per conditional branch: frontendDepth + its resolve time, less
     *  the misfetchPenalty a mispredict suppresses where the BTB the
     *  sum was built with misses it. */
    std::vector<CycleDelta> delta;
};

/**
 * One data stream's L2 part, where no L2 set overflows: a data access
 * that missed the L1D misses the L2 exactly at the first access to its
 * L2 line.
 */
struct L2FirstTouch
{
    std::vector<u64> firstBits; ///< First access to its L2 line.
    /**
     * The distinct data L2 lines, grouped by page (the input of
     * canShareL2Data). Page pages[g], numbered under pageMap (the map
     * the stream was recorded under), holds the lines whose bits are
     * set in words [g * pageWords, (g + 1) * pageWords) of pageMask
     * (bit b: the b-th L2 line of the page). A page map moves whole
     * pages, so the masks hold under any of them.
     */
    std::vector<Addr> pages;
    std::vector<u64> pageMask;
    u32 pageWords = 0;
    layout::PageMap pageMap;
    /** The stream's cycle sum, built with the plan part's BTB. */
    CycleSum sum;
};

/**
 * The data-stream part: one heap layout's outcomes. Bit i % 64 of word
 * i / 64 of each bit vector belongs to memory access i. Immutable once
 * built, so pool workers share one; a layout's own stream (a randomized
 * heap) lives in its Machine's StreamScratch instead.
 */
struct StreamOutcomes
{
    size_t memCount = 0;       ///< Accesses covered.
    std::vector<u64> hitBits;  ///< L1D hit.
    Count misses = 0;          ///< L1D misses after warmup.
    /** Exactly where the machine's L2 line fits in a page: a wider line
     *  would straddle page-map moves. */
    std::optional<L2FirstTouch> l2;
};

/** The plan part of @p plan on @p machine: the RAS verdicts, the
 *  outcome and sites of a BTB that never evicts, and each site's first
 *  event. */
PlanOutcomes simulatePlan(const MachineConfig &machine,
                          const trace::ReplayPlan &plan);

/**
 * The data-stream part of @p heap: the L1D hit bits from power-on
 * state, and the L2 first-touch bits, pages and cycle sum (built with
 * @p plan_part's RAS and BTB verdicts) where the L2 line fits in a
 * page. The stream is recorded under the identity map where the L1D
 * outcome holds across page maps (canShareL1d), so the L2 proof places
 * its pages under each layout's own map, and under @p pages otherwise.
 * Miss counts start at the warmup event. Counts one replay.l1d_passes.
 */
StreamOutcomes simulateStream(const MachineConfig &machine,
                              const trace::ReplayPlan &plan,
                              const layout::HeapLayout &heap,
                              const layout::PageMap &pages,
                              const PlanOutcomes &plan_part);

/**
 * What a layout's own data stream reuses from one layout to the next
 * (simulateStream() over tables), as FetchScratch does for the fetch:
 * the stream's bits, pages and cycle sum, and the first-touch pass's
 * page index and per-set counts.
 */
struct StreamScratch
{
    StreamOutcomes stream; ///< The last layout's own stream.
    /** The L2 part's buffers while the stream has no L2 part. */
    L2FirstTouch spare;
    /** Open-addressing page index of the first-touch pass: each slot 0
     *  or a page's position + 1, about 1.25x the plan's distinct ids. */
    std::vector<u32> pageIndex;
    std::vector<u32> perSet; ///< Distinct data lines per L2 set.

    /** Room for every layout of @p plan on @p machine. */
    void reserve(const MachineConfig &machine, const trace::ReplayPlan &plan);
};

/**
 * A layout's own data-stream part where no stream is shared (a
 * randomized heap; DESIGN.md §5x): the L1D hit bits over @p data's
 * addresses and, where the machine's L2 line fits in a page, the L2
 * first-touch bits and pages, recorded under @p data's page map, so the
 * L2 proof places them for this layout alone. The first-touch pass
 * counts the data lines per L2 set and stops at the first set they
 * overflow; the stream then has no L2 part, since code lines only add
 * to a set and the proof would refuse anyway. The cycle sum is left
 * out: addStreamSum() builds it once the proof holds. Built in
 * @p scratch, reusing its buffers; the result is scratch.stream. Counts
 * one replay.l1d_passes.
 */
const StreamOutcomes &simulateStream(const MachineConfig &machine,
                                     const trace::ReplayPlan &plan,
                                     const trace::LayoutTables &data,
                                     StreamScratch &scratch);

/** Build the cycle sum of @p stream's L2 part (which it must have) with
 *  @p plan_part's RAS and BTB verdicts, as simulateStream() over a heap
 *  layout does. */
void addStreamSum(const MachineConfig &machine,
                  const trace::ReplayPlan &plan,
                  const PlanOutcomes &plan_part, StreamOutcomes &stream);

/**
 * Which structures one replay takes from its plan and data-stream
 * parts instead of simulating. Set per layout by choosePaths(); the
 * default simulates both. With the L2 data side shared, the replay
 * takes its L1I fetch from fetchPerSet(): its misses go to memory or
 * hit the L2 only because the L2 proof holds.
 */
struct SharedPaths
{
    bool l2Data = false; ///< L2 data side and per-set fetch.
    bool btb = false;    ///< BTB (canShareBtb).
};

/** What a sharing proof found for one layout (interf_verify's facts). */
struct ConflictFacts
{
    u32 overflowingSets = 0; ///< Sets with more distinct tags than ways.
    u32 maxPerSet = 0;       ///< Largest per-set distinct count.
    /** False when the proof could not run or found an aliasing it must
     *  refuse (L2: a code-reachable line that is also a data line;
     *  BTB: two sites on one PC; L1I: a line size it cannot use). */
    bool checked = true;
    /** L1I only: the events whose site fetches into an overflowing set,
     *  which fetchPerSet() simulates where the layout takes it. */
    size_t hotEvents = 0;

    /** The proof's verdict: it ran, and no set overflows. */
    bool holds() const { return checked && overflowingSets == 0; }
};

/** The facts of each of one layout's three proofs. */
struct PathFacts
{
    ConflictFacts l2;
    ConflictFacts btb;
    ConflictFacts l1i;
};

/**
 * The L1D sharing predicate: whether an L1D outcome computed for one
 * layout holds for every other layout replaying the same plan. It does
 * when the layouts share one heap layout (so one virtual data stream)
 * and either one page map or an L1D whose set index lies inside the
 * page offset (sets x lineBytes <= the PageMap page size). The page map
 * is an offset-preserving bijection, so then every set index and every
 * tag equality survives translation.
 */
bool canShareL1d(const cache::CacheConfig &l1d, bool same_heap,
                 bool same_pages);

/**
 * The L2 proof: whether @p stream's L2 data outcome holds for the
 * layout of @p tables (which place the heap @p stream was built from;
 * their data addresses are not read, so code tables suffice). It does
 * when the L1D line is at most the L2 line, neither L2 nor L1I line
 * exceeds a page, the L2 lines code can reach (every line a site spans
 * and its physical successor, which the next-line prefetcher fetches)
 * are disjoint from the data lines, and no L2 set receives more of
 * these distinct physical lines than it has ways. The data pages are
 * placed by translating its L2 part's pages through the layout's page
 * map when they were recorded under the identity map; pages recorded
 * under another map apply only to layouts under that same map. A
 * stream without an L2 part refuses, unchecked. Fills @p facts when
 * given.
 */
bool canShareL2Data(const MachineConfig &machine,
                    const trace::ReplayPlan &plan,
                    const trace::LayoutTables &tables,
                    const StreamOutcomes &stream,
                    ConflictFacts *facts = nullptr);

/**
 * The BTB proof: whether @p plan_part's BTB outcome holds for the layout
 * of @p tables. It does when the distinct taken non-return branch
 * sites sit on distinct u32 PCs and no BTB set receives more of them
 * than it has ways. Fills @p facts when given.
 */
bool canShareBtb(const MachineConfig &machine,
                 const trace::ReplayPlan &plan,
                 const trace::LayoutTables &tables,
                 const PlanOutcomes &plan_part,
                 ConflictFacts *facts = nullptr);

/**
 * The L1I proof: whether no L1I set of @p machine can overflow on the
 * layout of @p tables, so that fetchPerSet() takes its whole fetch
 * outcome from first touches. It histograms, per L1I set, the distinct
 * physical lines the executed sites span plus, with the next-line
 * prefetcher, each one's physical successor (at a page end: line 0 of
 * the next *physical* page). It refuses, unchecked, when the L1I and L2
 * lines differ, when @p tables carry fetch lines of another size or when
 * @p plan_part was built for another plan, and it refuses when any set
 * receives more lines than it has ways. Fills @p facts when given, with
 * the events that reach an overflowing set.
 */
bool canShareL1i(const MachineConfig &machine,
                 const trace::ReplayPlan &plan,
                 const trace::LayoutTables &tables,
                 const PlanOutcomes &plan_part,
                 ConflictFacts *facts = nullptr);

/**
 * The paths one replay of the layout of @p tables may take: the L2
 * data side where @p stream passes the L2 proof and fetchPerSet() can
 * run (equal L1I and L2 lines, fetch lines at the L1I size, a plan part
 * for this plan), and the BTB where @p plan_part passes the BTB proof.
 * Fills @p facts, when given, with every proof's facts, the L2's as its
 * proof found them and the L1I's included where the L2 proof refuses;
 * without them the L1I's sets are not counted here.
 */
SharedPaths choosePaths(const MachineConfig &machine,
                        const trace::ReplayPlan &plan,
                        const trace::LayoutTables &tables,
                        const PlanOutcomes &plan_part,
                        const StreamOutcomes &stream,
                        PathFacts *facts = nullptr);

/**
 * The event at which a replay of @p plan on @p machine clears its
 * statistics (MachineConfig::warmupFraction): every count and cycle
 * before it is warmup. The cycle sums, the passes and the shared
 * outcomes all split there; runReference() computes it on its own, as
 * the spec.
 */
size_t warmupEvent(const MachineConfig &machine,
                   const trace::ReplayPlan &plan);

/** Fetch stall of a demand I-miss served at latency @p lat: the decode
 *  queue hides a few cycles of it. */
constexpr Cycle
fetchStall(u32 lat)
{
    return lat > 4 ? lat - 4 : 0;
}

/**
 * A layout's fetch outcome from its warmup event on, as the replay adds
 * it to the rest of its counters: where the L2 data side is shared, the
 * hierarchy sees only fetches, so this is its whole L1I and code-side
 * L2 contribution. Every L2 miss it counts is a demand or a prefetch
 * miss, so the L2 total is l2InstMisses + l2PrefMisses.
 */
struct FetchOutcome
{
    Cycle stallCycles = 0;  ///< Demand-miss fetch stalls.
    Count l1iMisses = 0;    ///< Demand L1I misses.
    Count l2InstMisses = 0; ///< Demand fetches that missed the L2.
    Count l2PrefMisses = 0; ///< Next-line prefetches that missed the L2.
};

/**
 * What fetchPerSet() reuses from one layout to the next, so that after
 * the first layout it allocates nothing: allocated per layout, or grown
 * by doubling in each new Machine, these buffers left glibc's heap of a
 * long optimizer search holding up to 2.6 MiB more (DESIGN.md §5w).
 */
struct FetchScratch
{
    explicit FetchScratch(const cache::CacheConfig &l1i_config)
        : l1i(l1i_config)
    {
    }

    /** An L1I of the machine's geometry, reset before each layout's
     *  overflowing sets are simulated in it. */
    cache::Cache l1i;
    /** Each line's first demand, sorted by line (see fetchPerSet). */
    std::vector<std::pair<Addr, u64>> firsts;
    std::vector<u32> perSet;   ///< Distinct lines each L1I set receives.
    std::vector<u8> overSets;  ///< Per L1I set: it overflows.
    std::vector<u8> hotSites;  ///< Per site: it fetches into one of them.

    /** Room for every layout of @p plan on @p machine. */
    void reserve(const MachineConfig &machine, const trace::ReplayPlan &plan);
};

/**
 * The fetch outcome of the layout of @p tables where canShareL2Data()
 * holds and the L1I and L2 lines are equal (DESIGN.md §5r, §5w). It
 * counts the lines each L1I set receives, as canShareL1i() does. A set
 * that receives no more than its ways never evicts, so a line misses
 * there only at its first arrival: its first demand unless the
 * prefetcher brought it in right after its physical predecessor's
 * first demand. A line's first demand is the first event of any site
 * spanning it, then its slot in that site, so one sort of (line,
 * position) pairs over the executed sites gives those sets' outcome in
 * O(site-lines). Where sets overflow, they alone are simulated, in
 * @p scratch's L1I from power-on and in event order, over the events
 * whose site has a line in one of them or a line whose prefetched
 * successor is in one. Only they evict, so a Random L1I draws from its
 * RNG there alone, in the order a simulation of every set would. Under
 * the L2 proof the L2 never evicts a code line, so every line's first
 * arrival, a demand or a prefetch, misses the L2 and any later L1I miss
 * hits it.
 * Counts one replay.l1i_shared where no set overflows, one
 * replay.l1i_per_set otherwise.
 */
FetchOutcome fetchPerSet(const MachineConfig &machine,
                         const trace::ReplayPlan &plan,
                         const trace::LayoutTables &tables,
                         const PlanOutcomes &plan_part,
                         FetchScratch &scratch);

} // namespace interf::core

#endif // INTERF_CORE_SHARED_HH
