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
 *  - in an L1I with no overflowing set, a fetch misses exactly when its
 *    line has not arrived before (at its first demand fetch, or right
 *    after its physical predecessor's with the next-line prefetcher),
 *    and under the L2 proof every such miss goes to memory: one sort
 *    of each layout's (line, first demand) pairs gives its whole fetch
 *    outcome, from the first event of each site (DESIGN.md §5r).
 *
 * With the L1D and the L2 data side fixed, every term of a replay's
 * cycles is fixed too, except three: the fetch stalls, the BTB
 * penalties where the BTB proof refuses, and the charge of each
 * conditional branch the layout's predictor mispredicts. So one more
 * part, the cycle sum, holds the rest of the cycles and counters and
 * a charge per conditional branch, and such a replay runs only its
 * predictor over the branch stream (DESIGN.md §5t).
 *
 * simulateShared() computes those outcomes once; canShareL2Data(),
 * canShareBtb() and canShareL1i() prove, per layout, that the
 * no-overflow premise holds, and fetchFirstTouch() derives a layout's
 * fetch outcome where the L1I proof does. Campaigns and the optimizer
 * call the proofs through interferometry::LayoutEvaluator; interf_verify
 * reports their facts.
 */

#ifndef INTERF_CORE_SHARED_HH
#define INTERF_CORE_SHARED_HH

#include <vector>

#include "cache/cache.hh"
#include "core/config.hh"
#include "layout/pagemap.hh"
#include "trace/replay.hh"
#include "util/types.hh"

namespace interf::core
{

/** @{ Parts of a SharedOutcomes (bit flags for simulateShared). */
constexpr u8 kShareL1d = 1u << 0; ///< L1D hit bits (needs data tables).
constexpr u8 kShareL2 = 1u << 1;  ///< L2 first-touch bits (with kShareL1d).
constexpr u8 kShareBtb = 1u << 2; ///< BTB hit and target bits.
constexpr u8 kShareRas = 1u << 3; ///< RAS mispredict bits.
constexpr u8 kShareL1i = 1u << 4; ///< First event of each site.
/** The cycle sum's terms (with kShareL1d, kShareL2, kShareBtb and
 *  kShareRas, which it reads). */
constexpr u8 kShareSum = 1u << 5;
constexpr u8 kShareAll =
    kShareL1d | kShareL2 | kShareBtb | kShareRas | kShareL1i | kShareSum;
/** @} */

/**
 * What a replay reads in place of the structures it skips, what a
 * layout's L1I fetch outcome is derived from, and the cycle sum.
 * Bit i % 64 of word i / 64 of each bit vector belongs to memory access
 * i (data parts) or event i (control parts). Immutable once built, so
 * pool workers share one.
 */
struct SharedOutcomes
{
    u8 parts = 0; ///< kShare* flags of the parts built.

    /** @{ One data stream's (one heap layout's). */
    std::vector<u64> hitBits;     ///< L1D hit.
    std::vector<u64> l2FirstBits; ///< First access to its L2 line.
    Count misses = 0;             ///< L1D misses after warmup.
    Count l2Misses = 0;           ///< First touches after warmup.
    size_t memCount = 0;          ///< Accesses covered.
    /**
     * The distinct data L2 lines, grouped by page (the input of
     * canShareL2Data). Page l2Pages[g], numbered under l2PageMap (the
     * map of the tables the outcomes were built from), holds the lines
     * whose bits are set in words [g * l2PageWords, (g + 1) *
     * l2PageWords) of l2PageMask (bit b: the b-th L2 line of the
     * page). A page map moves whole pages, so the masks hold under any
     * of them.
     */
    std::vector<Addr> l2Pages;
    std::vector<u64> l2PageMask;
    u32 l2PageWords = 0;
    layout::PageMap l2PageMap;
    /** @} */

    /** @{ The plan's (every layout's). */
    std::vector<u64> btbHitBits;    ///< A taken non-return branch hits.
    std::vector<u64> btbTargetBits; ///< ... and its target is right.
    std::vector<u64> rasMissBits;   ///< A return mispredicts.
    std::vector<u32> btbSites; ///< Distinct taken non-return sites.
    /** The charges of the BTB bits (btbCharges), which every layout
     *  whose BTB proof holds pays. */
    Count btbMisses = 0;
    Cycle btbPenalty = 0; ///< As if nothing mispredicted.
    /** Per conditional branch: taken, and the shared BTB misses its
     *  target. */
    std::vector<u64> condBtbMissBits;
    /** First event of each site, or ReplayPlan::kNoSite for a site
     *  never executed (the input of canShareL1i and fetchFirstTouch). */
    std::vector<u32> siteFirstEvent;
    size_t eventCount = 0;     ///< Events covered.
    /** @} */

    /**
     * @{ The cycle sum (DESIGN.md §5t, §5u): one data stream's, or,
     * where the L2 is simulated, one layout's own. Every term of a
     * replay's cycles but three is fixed by these, so a replay's cycles
     * are sumBase + its BTB penalty + its fetch stalls + delta[j]
     * summed over the conditional branches j >= condFrom it
     * mispredicts. Counts start at the warmup event.
     */
    Cycle sumBase = 0;      ///< Issue slots, extra execution, MLP, RAS.
    Count instructions = 0; ///< Retired after warmup.
    Count condBranches = 0; ///< Conditional branches after warmup.
    Count rasMispredicts = 0;
    size_t condFrom = 0;  ///< First conditional branch at or after warmup.
    /** Per conditional branch: frontendDepth + its resolve time, less
     *  the misfetchPenalty a mispredict suppresses where the BTB the
     *  sum was built with misses it (condBtbMissBits for the shared
     *  sum). */
    std::vector<CycleDelta> delta;
    /** @} */

    bool has(u8 part) const { return (parts & part) == part; }
};

/**
 * Build the @p parts of the shared outcomes of @p plan on @p machine.
 * The data parts run over @p data's stream (any tables with data
 * addresses; may be null when @p parts has none), from power-on state;
 * their miss counts start at the kernel's warmup event. kShareL2
 * requires kShareL1d, and kShareSum every part but kShareL1i; where
 * kShareL2 cannot be built (an L2 line wider than a page), kShareSum is
 * not built either. Counts one replay.l1d_passes when it runs the L1D.
 */
SharedOutcomes simulateShared(const MachineConfig &machine,
                              const trace::ReplayPlan &plan,
                              const trace::LayoutTables *data, u8 parts);

/**
 * Which structures one replay takes from its SharedOutcomes instead of
 * simulating. Set per layout from the proofs below; the default
 * simulates all three. The L1I path needs the L2 data path: its misses
 * go to memory only because the L2 proof holds.
 */
struct SharedPaths
{
    bool l2Data = false; ///< L2 data side (canShareL2Data).
    bool btb = false;    ///< BTB (canShareBtb).
    bool l1i = false;    ///< L1I fetch, from fetchFirstTouch (canShareL1i).
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
 * The L2 proof: whether @p shared's L2 data outcome holds for the
 * layout of @p tables (which place the heap @p shared was built from;
 * their data addresses are not read, so code tables suffice). It does
 * when the L1D line is at most the L2 line, neither L2 nor L1I line
 * exceeds a page, the L2 lines code can reach (every line a site spans
 * and its physical successor, which the next-line prefetcher fetches)
 * are disjoint from the data lines, and no L2 set receives more of
 * these distinct physical lines than it has ways. The data pages are
 * placed by translating shared.l2Pages through the layout's page map
 * when they were recorded under the identity map; pages recorded under
 * another map apply only to layouts under that same map. Fills
 * @p facts when given.
 */
bool canShareL2Data(const MachineConfig &machine,
                    const trace::ReplayPlan &plan,
                    const trace::LayoutTables &tables,
                    const SharedOutcomes &shared,
                    ConflictFacts *facts = nullptr);

/**
 * The BTB proof: whether @p shared's BTB outcome holds for the layout
 * of @p tables. It does when the distinct taken non-return branch
 * sites sit on distinct u32 PCs and no BTB set receives more of them
 * than it has ways. Fills @p facts when given.
 */
bool canShareBtb(const MachineConfig &machine,
                 const trace::ReplayPlan &plan,
                 const trace::LayoutTables &tables,
                 const SharedOutcomes &shared,
                 ConflictFacts *facts = nullptr);

/**
 * The L1I proof: whether no L1I set of @p machine can overflow on the
 * layout of @p tables, so that fetchFirstTouch() gives its whole fetch
 * outcome. It histograms, per L1I set, the distinct physical lines the
 * executed sites span plus, with the next-line prefetcher, each one's
 * physical successor (at a page end: line 0 of the next *physical*
 * page). It refuses when the L1I and L2 lines differ, when @p tables
 * carry fetch lines of another size, when @p shared has no L1I part
 * for this plan, or when any set receives more lines than it has ways.
 * The replay may use the outcome only where canShareL2Data() holds
 * too. Fills @p facts when given.
 */
bool canShareL1i(const MachineConfig &machine,
                 const trace::ReplayPlan &plan,
                 const trace::LayoutTables &tables,
                 const SharedOutcomes &shared,
                 ConflictFacts *facts = nullptr);

/**
 * What a BTB charges one replay, from its verdicts on the plan's taken
 * non-return branches, counted from the warmup event: the misses and
 * their penalties as if no branch mispredicted (misfetchPenalty, or
 * frontendDepth for an indirect branch that hit with a wrong target).
 * A conditional branch is neither a return nor indirect, so where it
 * mispredicts, the penalty it suppresses is misfetchPenalty.
 */
struct BtbCharges
{
    Count misses = 0;
    Cycle penalty = 0;
};

/**
 * The charges of the BTB whose per-event hit and target bits are
 * @p hit_bits and @p target_bits (SharedOutcomes::btbHitBits layout).
 * Sets bit j of @p cond_miss_bits, resized to the plan's conditional
 * branches, where conditional branch j is taken and missed.
 */
BtbCharges btbCharges(const MachineConfig &machine,
                      const trace::ReplayPlan &plan, const u64 *hit_bits,
                      const u64 *target_bits,
                      std::vector<u64> &cond_miss_bits);

/**
 * The event at which a replay of @p plan on @p machine clears its
 * statistics (MachineConfig::warmupFraction): every count and cycle
 * before it is warmup. The kernel, the passes and the shared outcomes
 * all split there; runReference() computes it on its own, as the spec.
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
 * The fetch outcome of the layout of @p tables where canShareL1i() and
 * canShareL2Data() hold: nothing is evicted, so a line misses at its
 * first demand fetch unless the prefetcher brought it in right after
 * its physical predecessor's first demand fetch, and a prefetch misses
 * when its line has not been demanded yet; each such miss is the
 * line's first L2 touch, served from memory. A line's first demand is
 * the first event of any site spanning it, then its slot in that site,
 * so one sort of (line, position) pairs over the executed sites gives
 * the outcome in O(site-lines), whatever the event count. Where the L1I
 * proof refuses, the Machine's own fetch pass produces the same
 * outcome by simulation (DESIGN.md §5s).
 */
FetchOutcome fetchFirstTouch(const MachineConfig &machine,
                             const trace::ReplayPlan &plan,
                             const trace::LayoutTables &tables,
                             const SharedOutcomes &shared);

} // namespace interf::core

#endif // INTERF_CORE_SHARED_HH
